"""Every module-level function, class and constant in src/lobkit is read
somewhere under src/, scripts/, tests/ or perfbench/.

A static scan with the standard library's ``ast``: a name counts as read
where it is loaded as an identifier, loaded as an attribute (``lio.read_kv``)
or imported by name (``from .metrics import WEIGHTS``). Dunder names such as
``__version__`` are exempt.
"""

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(path for folder in ("src", "scripts", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))
DEFINERS = sorted((ROOT / "src" / "lobkit").rglob("*.py"))


def definitions(source: str) -> dict[str, int]:
    """The module-level def, class and assigned names, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.setdefault(name.id, node.lineno)
    return {name: line for name, line in found.items()
            if not (name.startswith("__") and name.endswith("__"))}


def reads(source: str) -> set[str]:
    """The names a module loads, loads as attributes or imports by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_scan_flags_a_definition_nothing_reads():
    definer = ("__version__ = '1'\nLIMIT = 3\nSTALE = 4\n"
               "def used():\n    return LIMIT\n"
               "def unused():\n    pass\n"
               "class Kept:\n    pass\nclass Gone:\n    pass\n")
    reader = ("from pkg.mod import used\nimport pkg.mod as m\n"
              "m.Kept()\nm.STALE = 5\n")
    read = reads(definer) | reads(reader)
    assert {name: line for name, line in definitions(definer).items()
            if name not in read} == {"STALE": 3, "unused": 6, "Gone": 10}


def test_no_definition_in_src_is_dead():
    read = set().union(*(reads(path.read_text()) for path in READERS))
    dead = {path.relative_to(ROOT).as_posix(): [
                f"line {line}: {name}" for name, line in
                definitions(path.read_text()).items() if name not in read]
            for path in DEFINERS}
    offenders = {module: names for module, names in dead.items() if names}
    assert not offenders, f"definitions nothing reads: {offenders}"
