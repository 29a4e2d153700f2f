"""Every module-level function, class and constant in src/lobkit, and every
public method of its classes, is read somewhere under src/, scripts/ or
perfbench/.

A static scan with the standard library's ``ast``: a name counts as read
where it is loaded as an identifier, loaded as an attribute (``lio.read_kv``,
``book.add_level``) or imported by name (``from .metrics import WEIGHTS``).
Reads from tests/ do not count: a definition only tests read belongs in the
tests. Dunder names such as ``__version__`` are exempt.
"""

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "scripts", "perfbench")  # folders whose reads count
READERS = sorted(path for folder in (*PROGRAM, "tests")
                 for path in (ROOT / folder).rglob("*.py"))
DEFINERS = sorted((ROOT / "src" / "lobkit").rglob("*.py"))


def definitions(source: str) -> dict[str, int]:
    """The module-level def, class and assigned names, and each class's
    public methods as Class.method, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.setdefault(node.name, node.lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    found.setdefault(f"{node.name}.{item.name}", item.lineno)
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


def unread(definer: str, readers: dict[str, str]) -> dict[str, int]:
    """The definitions in definer that no reader under PROGRAM reads;
    readers maps each reader's root-relative posix path to its source."""
    read = set().union(*(reads(source) for path, source in readers.items()
                         if path.split("/")[0] in PROGRAM))
    return {name: line for name, line in definitions(definer).items()
            if name.rpartition(".")[2] not in read}


def test_scan_flags_a_definition_nothing_reads():
    definer = ("__version__ = '1'\nLIMIT = 3\nSTALE = 4\n"
               "def used():\n    return LIMIT\n"
               "def unused():\n    pass\n"
               "class Kept:\n    def __init__(self):\n        pass\n"
               "    def read(self):\n        pass\n"
               "    def unread(self):\n        pass\n"
               "    def _private(self):\n        pass\n"
               "class Gone:\n    pass\n"
               "def tested():\n    pass\n")
    reader = ("from pkg.mod import used\nimport pkg.mod as m\n"
              "m.Kept().read()\nm.STALE = 5\n")
    test = "from pkg.mod import tested\ntested()\nm.Kept().unread()\n"
    assert unread(definer, {"src/pkg/mod.py": definer,
                            "src/pkg/use.py": reader,
                            "tests/test_mod.py": test}) == {
        "STALE": 3, "unused": 6, "Kept.unread": 13, "Gone": 17,
        "tested": 19}


def test_no_definition_in_src_is_dead():
    readers = {path.relative_to(ROOT).as_posix(): path.read_text()
               for path in READERS}
    dead = {path.relative_to(ROOT).as_posix(): [
                f"line {line}: {name}" for name, line in
                unread(path.read_text(), readers).items()]
            for path in DEFINERS}
    offenders = {module: names for module, names in dead.items() if names}
    assert not offenders, f"definitions nothing reads: {offenders}"
