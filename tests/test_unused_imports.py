"""Every name a module under src/, scripts/ or tests/ imports is used in it.

A static scan with the standard library's ``ast``: a name counts as used when
it appears as an identifier anywhere in the module (the root of an attribute
chain included) or is listed in ``__all__``. ``from __future__`` imports are
exempt.
"""

import ast
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import_and_keeps_used_ones():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\n"
              "from math import pi, tau as t\nfrom re import sub\n"
              "__all__ = ['sub']\n"
              "def f():\n    return os.path.join('a', str(t))\n")
    assert unused_imports(source) == ["line 3: json", "line 4: pi"]


def test_no_module_has_an_unused_import():
    found = {module: unused_imports((ROOT / module).read_text())
             for module in MODULES}
    offenders = {module: names for module, names in found.items() if names}
    assert not offenders, f"unused imports: {offenders}"
