"""Every resource and input limit, with the reason for its value, and the
two routines that refuse input above one.  A refusal names its constant as
``limits.<NAME>``; both routines look the limit up when called.

No code of the package sets a limit; a test may, as
``monkeypatch.setattr(limits, "CELL_LIMIT", 11)``.  Setting one empties
every memo (``memos.clear_all``), so a memo only ever holds answers
computed under the current limits, and a memo hit never stands in for a
refusal.
"""

from __future__ import annotations

import sys
from types import ModuleType

from . import memos
from .errors import ResourceLimitError

# Largest exponent, in an ideal file, a family's d and maxdeg, and every
# Monomial: an overflow guard, since the degrees reached here stay tiny.
EXPONENT_LIMIT = 1 << 40
# A char must lie below it: there, strong-probable-prime tests to the prime
# bases up to 41 decide primality exactly (Sorenson and Webster, 2015).
MR_LIMIT = 3_317_044_064_679_887_385_961_981
# Most x variables of an ideal file or a verify family.  The default hilb
# window grows with n, and hilb reads it off n nested running sums: on (x1)
# a whole run takes about 0.4 s at the limit on a 2-vCPU Xeon host, 0.16 s
# at n = 1,000 and 0.75 s at 2,500 (with the limit raised).  lpp grows its
# table of suffix-ring dims by n entries a degree, to just past the
# numerator's degree, which is at most the lcm degree: at the limit, on
# x1*x3 and 200 squares (lcm degree 400) a run takes 1.4-1.9 s, and with
# 50 squares 0.4-0.5 s.
FILE_VARIABLE_LIMIT = 2_000
# Most degrees a --window may span: hilb and cohom print one value per
# degree.  The widest default window seen, a cohom window of a lex ideal in
# four variables, spans about 9,000 degrees.  hilb reads its dims from
# degree 0 up to HI, so it bounds those HI - min(LO, 0) + 1 degrees too: on
# (x1) in four variables, --window=4999999:5000000 took 1.5 s and 322 MB
# before it did, on a 2-vCPU Xeon host.
WINDOW_SPAN_LIMIT = 100_000
# Largest lcm degree sum_i max_g e_i of the generators of a Hilbert series.
# It bounds the numerator's degree and the pivot recursion's depth: each
# level lowers the lcm degree, so at two interpreter frames a level the
# recursion stays below Python's default limit of 1000, whatever n is.
# It is checked in four places, each for its own reason:
# ``hilbert._numerator``, the recursion's depth; the embeddings'
# ``_certified_embedding``, whose selection stops at one degree past it;
# ``zstable._stable_chain``, the length of the chain the rounds start from;
# ``zstable._check_lcm_degree``, each round's new chain, and the reads of
# a chain's numerators and embedded components, which refuse on a chain
# held across a change of the limit; its other stored facts run no
# recursion and are read with no check.
NUMERATOR_DEGREE_LIMIT = 400
# Most multidegrees prod_i (rho_i + 1) a cohomology cell walk visits: over
# four times the 449,875 of the largest lex ideal tried (240 generators of
# degree up to 74 in four variables).  It bounds the walks of both
# backends.  The slowest legal walks found are those of powers of the
# maximal ideal, where no two ext slices share their masks: on a 2-vCPU
# Xeon host (x1,x2)^1400 (1,401 generators, 1.96 M multidegrees) takes
# 2.6 s in the combinatorial backend and 13.3 s in ext, (x1,x2,x3)^124
# 1.7 s and 7.2 s, (x1..x4)^36 0.8 s and 3.0 s.
CELL_LIMIT = 2_000_000
# Most variables of a cohomology table.  Its n + 1 tails hold n integer
# coefficients each, and a table of (x1) is dominated by their polynomial
# products (a third of it) and by its n + 1 rows on a window that widens
# with n: on a 2-vCPU Xeon host `cohomology_table` of it, with cold memos,
# takes about 0.8 ms at n = 32 in either backend, and 2.7 ms at n = 64.
# A walk over prod_i (rho_i + 1) >= 2^n multidegrees meets CELL_LIMIT first
# once the generators use 21 variables.
COHOM_VARIABLE_LIMIT = 32
# Most points of an lcm lattice, each a Koszul complex for the Betti table.
LATTICE_LIMIT = 20_000
# Most candidate generators a verify family draws from, counted before they
# are listed: at the limit, listing the pool of 2,000 variables in degree 1
# takes about 1.5 s and 32 MB on a 2-vCPU Xeon host.
POOL_LIMIT = 2_000
# Most instances of a verify family: the samples of a random one, the
# ideals of an exhaustive one.  The acceptance suite runs at most 500
# samples, and 494 ideals.  An exhaustive family lists its ideals as the
# antichains of its candidate pool, each candidate tested against every
# antichain listed so far, and is refused as soon as it has listed more
# than the limit.  So the listing costs at most about the pool's length
# times the limit in divisibility tests: on a 2-vCPU Xeon host the
# slowest class tried, n=2,d=2 (x2 free), lists 19,898 ideals at maxdeg
# 198 (394 candidates) in 1.1-1.8 s, and is refused at maxdeg 1,000
# (1,998 candidates) in 1.0-1.6 s; n=4,d=2:3:3:3,maxdeg=6 (158,129 ideals)
# is refused in 0.07 s.
INSTANCE_LIMIT = 20_000
# Most draws in a row of a random non-stable family that find no non-stable
# ideal, before it is refused as too stable, whatever its sample count.  The
# z families sampled in the tests, CI and benchmark (1..3 x variables,
# powers (), (2) or (2, 2), maxdeg 2..4) are 20-64% non-stable, so a run of
# 200 stable draws has probability at most 0.8^200 < 10^-19 there; a draw
# takes about 0.2 ms on a 2-vCPU Xeon host.
DRAWS_PER_SAMPLE_LIMIT = 200
# Most rounds of z_stabilize, each a strict step up a finite chain.  The
# longest among 1,080 sampled non-stable ideals (2..4 x variables and z,
# powers (), (2) or (2, 2), maxdeg 3) took 9 rounds.
STABILIZATION_ROUND_LIMIT = 500


def check(name: str, value: int, what: str, error=ResourceLimitError) -> int:
    """``value``, refused with ``error("<what>, above limits.<name> =
    <limit>")`` when it exceeds the limit ``name``."""
    limit = globals()[name]
    if value > limit:
        raise error(f"{what}, above limits.{name} = {limit}")
    return value


def read_int(name: str, digits: str, what: str, error=ResourceLimitError) -> int:
    """The integer ``digits`` spells, refused above the limit ``name`` by its
    digit count before int(), which refuses more than 4,300 digits, reads it.
    Blanks around it, a leading + and leading zeros do not count.  Anything
    but ASCII digits after them, which int() would read too (as in 1_000)
    or refuse naming no ``what``, is refused with ``error``."""
    digits = digits.strip()
    body = digits.lstrip("+0") or digits[-1:]  # zeros only: the last one
    if not (body.isascii() and body.isdigit()):
        raise error(f"{what} must be a digit string, not {digits!r}")
    limit = globals()[name]
    if len(body) > len(str(limit)):
        raise error(f"{what} of {len(body)} digits, above limits.{name} = {limit}")
    value = int(body)
    return check(name, value, f"{what}={value}", error)


class _Limits(ModuleType):
    """The class of this module: setting an attribute empties every memo."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        memos.clear_all()


sys.modules[__name__].__class__ = _Limits
