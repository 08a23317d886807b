"""No module of the package but ``core`` and ``ioformat`` reads ``.gens``.

An ideal holds its generators as exponent tuples (``MonomialIdeal.exps``);
``gens`` builds validated Monomials on every read, for callers outside the
package.  A package module that reads it pays a Monomial per generator
where the tuples would do, so this test reads each module's syntax tree
(stdlib ``ast``) and names every read of an attribute ``gens`` outside the
two modules that own that surface."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexcohom"

ALLOWED = {"core.py", "ioformat.py"}


def gens_reads(source: str) -> list[int]:
    """The line numbers of the reads of an attribute named ``gens`` in
    ``source``, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "gens"
                  and isinstance(node.ctx, ast.Load))


def test_no_module_but_core_and_ioformat_reads_gens():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ALLOWED)
    assert modules
    reads = {p.name: lines for p in modules if (lines := gens_reads(p.read_text()))}
    assert reads == {}


def test_a_gens_read_is_found():
    source = ("def f(I, gens):\n"
              "    a = I.gens\n"
              "    b = [g.exps for g in gens]\n"
              "    return len(I.exps), getattr(I, 'exps'), f(I, I.gens[0])\n")
    assert gens_reads(source) == [2, 4]
