"""The README's library example runs as printed, and every name the package
exports is one that its CLI or harness uses or that the README names."""

import ast
import re
from pathlib import Path

import lexcohom
from lexcohom.betti import Corner, corners
from lexcohom.localcohom import compare_tables

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
EXAMPLE = re.search(r"```python\n(.*?)```", README, re.S).group(1)


def _names_used(path: Path) -> set[str]:
    """Every identifier that the module's code reads, imports or looks up
    as an attribute; docstrings and comments do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    return used


def test_the_readme_example_runs_and_names_the_exported_surface():
    ns: dict = {}
    exec(compile(EXAMPLE, "README.md", "exec"), ns)
    # the values its comments state
    assert str(ns["L"]) == "(x1^2, x1*x2^2, x2^4)"
    assert ns["T"].entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}
    assert corners(ns["T"]) == [Corner(i=2, slope=3, value=1)]
    assert compare_tables(ns["TI"], ns["TL"]) == (True, None)

    package = Path(lexcohom.__file__).parent
    used = _names_used(package / "cli.py") | _names_used(package / "verify.py")
    named = set(re.findall(r"\w+", EXAMPLE)) | set(re.findall(r"`(\w+)", README))
    assert [name for name in lexcohom.__all__ if name not in used | named] == []
