"""The package runs on the standard library alone."""

import os
import subprocess
import sys

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import lexcohom
from lexcohom import Monomial, MonomialIdeal, RingContext
ctx = RingContext(3)
I = MonomialIdeal.make(ctx, [Monomial((2, 0, 0)), Monomial((1, 1, 0)),
                             Monomial((0, 1, 2))])
assert lexcohom.betti_table(I).entries
A = lexcohom.cohomology_table(I, backend="combinatorial")
B = lexcohom.cohomology_table(I, backend="ext")
assert A.rows == B.rows
"""


def test_package_runs_without_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
