"""Every name a module of the package imports is used in that module.

A deletion that removes a helper's last caller tends to leave its import
behind; this test reads each module's syntax tree (stdlib ``ast``) and
names the imports that nothing reads.  ``__init__.py`` imports names to
re-export them, so it is exempt, and so are ``from __future__`` imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexcohom"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no other node of
    it reads, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_of_the_package_imports_a_name_it_does_not_use():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p.read_text()))}
    assert unused == {}


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from .core import _divides_any, saturate as sat\n"
              "sat(sys.argv)\n")
    assert unused_imports(source) == ["os", "_divides_any"]
