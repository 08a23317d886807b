"""Hilbert functions of local cohomology of monomial quotients, two ways.

Both backends decompose by multidegree and group multidegrees into finitely
many cells on which the relevant complex is constant.  What each backend
owns is its cell decomposition: its walk, its complexes and its memo.  Both
hand over cells of one shape, (fixed_sum, f, {i: dim H^i}) for the
multidegrees of H^i_m(A/I) with f coordinates <= -1 and the others pinned
at values summing to fixed_sum, so one routine assembles the rows of
either from per-cell dims times lattice-point counts (binomials), and one
reads the regularity.  Besides that assembly they share the rank kernel and
the homology routine:

* ``ext``: graded local duality.  The dual of the Taylor complex of I is
  sliced per multidegree; the slice pattern only depends on clamp(-a, 0, rho)
  and its cohomology gives the Ext modules, whence
  dim H^i_m(A/I)_j = dim Ext^{n-i}(A/I, A)_{-n-j}.
* ``combinatorial``: the degreewise simplicial formula for the Cech complex
  of a monomial quotient: dim H^i_m(A/I)_a is a reduced homology dim of a
  complex depending only on the negative support of a and its clamped
  positive part.

Tables live on a degree window [lo, hi]; below lo each row is described by a
fitted tail polynomial whose certification is checked on the lowest points
(the rows are eventually polynomial because the dual modules are finitely
generated).  Each backend takes the window top from its own cells: by
Eisenbud-Goto, reg(A/I) = max_i (a_i + i) where a_i is the top nonzero
degree of H^i_m(A/I), and every cell knows its top degree.

Each backend memoizes the homology of its complexes across calls, for the
whole process, in its own ``lru_cache`` (``_takayama_dims``, ``_ext_dims``):
a complex is named by a compact key that determines its faces, plus the
characteristic p, and only a miss lists faces.  The two memos are separate,
so one backend's cached answer never stands in for the other's.  Their
values are immutable tuples of pairs, copied into fresh dicts in the cells,
and TAKAYAMA_MEMO_SIZE and EXT_MEMO_SIZE bound them.

Both backends walk prod_i (rho_i + 1) multidegrees, rho_i the largest
exponent of x_i in a generator; each checks that count against
``limits.CELL_LIMIT`` before the walk starts, and the number of variables
against ``limits.COHOM_VARIABLE_LIMIT``.  The ext backend also checks its
generators against ``limits.EXT_GENERATOR_LIMIT``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import limits
from .core import MonomialIdeal, saturate
from .errors import WindowUncertifiedError
from .hilbert import _poly_mul, hilbert_series, quotient_window, values_nonneg
from .homology import reduced_homology_dims

TAKAYAMA_MEMO_SIZE = 4_096
EXT_MEMO_SIZE = 8_192


def _exponent_bounds(gens: list[tuple[int, ...]], n: int) -> list[int]:
    """rho_i = max_g g_i for each coordinate, after checking that the walk
    over prod_i (rho_i + 1) multidegrees stays within ``limits.CELL_LIMIT``."""
    rho = [max((g[i] for g in gens), default=0) for i in range(n)]
    cells = 1
    for r in rho:
        cells *= r + 1
    limits.check("CELL_LIMIT", cells, f"the cell walk covers {cells} multidegrees")
    return rho


# ---------------------------------------------------------------------------
# combinatorial backend


@lru_cache(maxsize=TAKAYAMA_MEMO_SIZE)
def _takayama_dims(pinned: int, exceed: frozenset[int], p: int) -> tuple[tuple[int, int], ...]:
    """((k, dim H~_k), ...) of the complex on ``pinned`` vertices whose
    faces are the masks with a complement meeting every exceed mask."""
    full = (1 << pinned) - 1
    faces = [mask for mask in range(full + 1) if all((full ^ mask) & e for e in exceed)]
    return tuple(reduced_homology_dims(faces, p).items())


def _takayama_cells(I: MonomialIdeal):
    """Cells (fixed_sum, n_negative, {i: dim}) covering every multidegree
    with nonzero cohomology.

    A coordinate is either negative (free, <= -1) or pinned to a value below
    the generator-exponent bound rho_i; multidegrees with a_i >= rho_i give
    cones, hence no homology, and are skipped.  On the pinned vertices a
    generator's exceed mask marks where it lies above the pinned value; a
    face is kept iff its complement meets every exceed mask, so the number
    of pinned vertices and the set of masks, with p, are the memo key of
    ``_takayama_dims``.

    The multidegrees are walked depth first, coordinate by coordinate, in
    the order of ``itertools.product`` over (negative, 0, ..., rho_i - 1),
    so the cells come out in that order.  Each generator's exceed mask is
    carried down the walk: pinning a coordinate adds its bit (the number of
    coordinates pinned before it) to the masks of the generators lying
    above the pinned value.
    """
    ctx = I.ctx
    n, p = ctx.n, ctx.char
    gens = [g.exps for g in I.gens]
    rho = _exponent_bounds(gens, n)
    cells = []
    stack = [(0, 0, 0, (0,) * len(gens))]  # (coordinate, pinned, fixed_sum, masks)
    while stack:
        i, pinned, fixed_sum, masks = stack.pop()
        if i < n:
            bit = 1 << pinned
            stack.extend(
                (i + 1, pinned + 1, fixed_sum + a,
                 tuple(m | bit if g[i] > a else m for m, g in zip(masks, gens)))
                for a in reversed(range(rho[i]))
            )
            stack.append((i + 1, pinned, fixed_sum, masks))
            continue
        hom = _takayama_dims(pinned, frozenset(masks), p)
        if not hom:
            continue
        f = n - pinned
        by_i = {}
        for k, dim in hom:
            row = k + f + 1
            if 0 <= row <= n:
                by_i[row] = by_i.get(row, 0) + dim
        if by_i:
            cells.append((fixed_sum, f, by_i))
    return cells


# ---------------------------------------------------------------------------
# ext backend (dual Taylor complex + graded local duality)


@lru_cache(maxsize=EXT_MEMO_SIZE)
def _ext_dims(g: int, masks: frozenset[int], p: int) -> tuple[tuple[int, int], ...]:
    """((k, dim Ext^k), ...) of the cochain complex on the order filter of
    subsets of g generators that meet every mask; empty for a cone (see
    ``_ext_cells``) without listing any subset."""
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    union = 0
    for m in minimal:
        union |= m
    if union != (1 << g) - 1:
        return ()
    subsets = [S for S in range(1 << g) if all(S & m for m in minimal)]
    return tuple((k + 1, d) for k, d in reduced_homology_dims(subsets, p).items())


def _ext_cells(I: MonomialIdeal):
    """Cells (fixed_sum, n_negative, {i: dim}) in the shape of
    ``_takayama_cells``, read off the Ext modules Ext^k(A/I, A).

    At a multidegree c of prod_i [0, rho_i] the dual Taylor slice is the
    order filter of generator subsets S with lcm(S) >= c, i.e. those meeting
    {t : g_t[i] >= c_i} for every coordinate with c_i > 0; the number of
    generators and the set of those bitmasks, with p, are the memo key of
    ``_ext_dims``.  Its cohomology is Ext^k in the multidegrees b with
    b_i = -c_i where c_i > 0 and b_i >= 0 where c_i = 0.  By multigraded
    local duality, dim H^i_m(A/I)_a = dim Ext^{n-i}(A/I, A)_{-a-1}, so these
    are the multidegrees a of H^{n-k} with a_i pinned at c_i - 1 where
    c_i > 0 and a_i <= -1 at the z coordinates where c_i = 0: a cell
    (sum(c) - n + z, z, {n - k: dim}).

    A slice is a cone, with no cohomology, when some generator t lies in
    none of the key's inclusion-minimal masks: a subset meets every mask iff
    it meets every minimal one, which does not depend on whether it holds
    t.  So the filter is F' times the two subsets (empty, {t}), where F' is
    a filter on the other generators, and its cochain complex is acyclic.
    Such slices are memoized as () without listing any subset.
    """
    ctx = I.ctx
    n, p = ctx.n, ctx.char
    g = len(I.gens)
    limits.check("EXT_GENERATOR_LIMIT", g, f"{g} generators for the Taylor complex")
    gens = [gen.exps for gen in I.gens]
    rho = _exponent_bounds(gens, n)
    above = [
        [sum(1 << t for t, e in enumerate(gens) if e[i] >= c) for c in range(rho[i] + 1)]
        for i in range(n)
    ]
    cells = []
    for c in itertools.product(*[range(r + 1) for r in rho]):
        hom = _ext_dims(g, frozenset(above[i][ci] for i, ci in enumerate(c) if ci), p)
        if hom:
            z = c.count(0)
            cells.append((sum(c) - n + z, z, {n - k: dim for k, dim in hom if k <= n}))
    return cells


# ---------------------------------------------------------------------------
# rows, tables, tails, comparisons


def _count_negatives(j: int, fixed_sum: int, f: int) -> int:
    """Number of multidegrees with f coordinates <= -1 summing to
    j - fixed_sum (the other coordinates being pinned)."""
    if f == 0:
        return 1 if j == fixed_sum else 0
    m = fixed_sum - j
    return comb(m - 1, f - 1) if m >= f else 0


def _rows(cells, n: int, lo: int, hi: int) -> dict[int, list[int]]:
    rows = {i: [0] * (hi - lo + 1) for i in range(n + 1)}
    for fixed_sum, f, by_i in cells:
        for i, dim in by_i.items():
            row = rows[i]
            for j in range(lo, hi + 1):
                cnt = _count_negatives(j, fixed_sum, f)
                if cnt:
                    row[j - lo] += dim * cnt
    return rows


@dataclass(frozen=True)
class TailPoly:
    """The polynomial describing a row for degrees below the window."""

    coeffs: tuple[Fraction, ...]  # low-to-high powers of j
    certified: bool

    def value(self, j: int) -> Fraction:
        return sum(c * j**k for k, c in enumerate(self.coeffs))


def _fit_tail(values: list[int], lo: int, module_dim: int) -> TailPoly:
    """Fit a polynomial of degree < module_dim through the lowest points and
    certify it on the two spare ones.

    Every cell of either backend counts a polynomial in j on all of j <= -1,
    but not beyond, so a certificate needs all fitted points at j <= -1.
    With deg = max(module_dim, 0), the k-th forward differences D_k at lo
    (k < deg) give the fit by Newton's forward formula
    P(j) = sum_k D_k / k! * (j - lo) (j - lo - 1) ... (j - lo - k + 1),
    expanded here into powers of j.  P fits the two spare points iff the
    deg-th forward differences of the deg + 2 values vanish at both
    positions, which is checked in integers.
    """
    deg = max(module_dim, 0)
    coeffs = [Fraction(0)] * max(deg, 1)
    falling = (1,)  # (j - lo) ... (j - lo - k + 1), low-to-high powers of j
    diffs = values[:deg + 2]
    for k in range(deg):
        scale = Fraction(diffs[0], factorial(k))
        for e, c in enumerate(falling):
            coeffs[e] += scale * c
        falling = _poly_mul(falling, (-(lo + k), 1))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    ok = lo + deg + 1 <= -1 and not any(diffs)
    return TailPoly(tuple(coeffs), certified=ok)


@dataclass(frozen=True)
class CohomologyTable:
    """Hilbert functions of H^i_m(A/I) on a window, with tail descriptors."""

    n: int
    char: int
    lo: int
    hi: int
    rows: dict[int, tuple[int, ...]]
    tails: dict[int, TailPoly]
    module_dim: int
    hi_covers_reg: bool

    def value(self, i: int, j: int) -> int:
        if i < 0 or i > self.n:
            return 0
        if self.lo <= j <= self.hi:
            return self.rows[i][j - self.lo]
        if j > self.hi:
            if not self.hi_covers_reg:
                raise ValueError(f"degree {j} above the window top {self.hi}")
            return 0
        tail = self.tails[i]
        if not tail.certified:
            raise WindowUncertifiedError(
                f"row {i}: tail not certified, cannot evaluate below {self.lo}"
            )
        v = tail.value(j)
        if v.denominator != 1:
            raise WindowUncertifiedError(f"row {i}: non-integral tail value at {j}")
        return int(v)

    def all_certified(self) -> bool:
        return all(t.certified for t in self.tails.values())


def _cells(I: MonomialIdeal, backend: str):
    limits.check("COHOM_VARIABLE_LIMIT", I.ctx.n, f"the ring has {I.ctx.n} variables")
    if backend == "combinatorial":
        return _takayama_cells(I)
    if backend == "ext":
        return _ext_cells(I)
    raise ValueError(f"unknown backend {backend!r}")


def _regularity(cells) -> int:
    """reg(A/I) = max{i + j : H^i_m(A/I)_j != 0}, read off the cells; 0 when
    there are none (the unit ideal).  A cell reaches up to degree
    fixed_sum - f, every negative coordinate at -1."""
    return max((fs - f + i for fs, f, by_i in cells for i in by_i), default=0)


def _window_lo(I: MonomialIdeal) -> int:
    """The default window bottom, low enough that every tail is certified.

    ``_fit_tail`` certifies from the deg + 2 lowest points, deg = max(dim, 0)
    <= n, and needs them all at j <= -1: here lo + deg + 1 <= -sum(deg g) - 1
    <= -1.  On j <= -1 every cell counts a polynomial in j: a cell
    (fs, f) adds dim * C(fs - j - 1, f - 1), a polynomial on j <= fs - 1,
    and fs >= 0 since its pinned coordinates are >= 0; a cell with f = 0
    sits at the one degree fs >= 0.

    Row i is the Hilbert function of H^i, dual to an Ext module of dimension
    <= i <= dim, so its polynomial has degree < dim and the deg-th forward
    differences vanish: the certificate always holds.
    """
    return -(I.ctx.n + sum(g.degree for g in I.gens)) - 2


def _table(I: MonomialIdeal, cells, reg: int, lo: int, hi: int) -> CohomologyTable:
    ctx = I.ctx
    dim = hilbert_series(I).krull_dim()
    if hi - lo + 1 < max(dim, 0) + 2:
        raise ValueError(
            f"window too short to certify tails (need {max(dim, 0) + 2} points)"
        )
    rows = _rows(cells, ctx.n, lo, hi)
    if any(v < 0 for row in rows.values() for v in row):
        raise AssertionError("negative cohomology dimension (bug)")
    tails = {i: _fit_tail(rows[i], lo, dim) for i in rows}
    return CohomologyTable(
        n=ctx.n,
        char=ctx.char,
        lo=lo,
        hi=hi,
        rows={i: tuple(v) for i, v in rows.items()},
        tails=tails,
        module_dim=dim,
        hi_covers_reg=I.is_unit or hi >= reg,
    )


def cohomology_table(
    I: MonomialIdeal,
    window: tuple[int, int] | None = None,
    backend: str = "combinatorial",
) -> CohomologyTable:
    """Local-cohomology Hilbert functions of A/I over GF(p) on a window.

    ``backend`` is "combinatorial" or "ext"; both must agree entrywise on
    every input (this is the package's primary anti-bug oracle, exercised by
    the test suite).  The default window is that of
    ``cohomology_tables((I,), backend)``.
    """
    if window is None:
        return cohomology_tables((I,), backend)[0]
    if window[0] > window[1]:
        raise ValueError("window must satisfy lo <= hi")
    cells = _cells(I, backend)
    return _table(I, cells, _regularity(cells), *window)


def cohomology_tables(ideals, backend: str) -> list[CohomologyTable]:
    """Tables of several ideals on their shared default window, computing
    each ideal's cells once.

    The window runs from the lowest ``_window_lo`` to one above the largest
    regularity read off this backend's cells.  Every tail is certified
    there (see ``_window_lo``), so the window is never widened.
    """
    cells = [_cells(I, backend) for I in ideals]
    regs = [_regularity(c) for c in cells]
    lo = min(_window_lo(I) for I in ideals)
    hi = max(regs) + 1
    return [_table(I, c, reg, lo, hi) for I, c, reg in zip(ideals, cells, regs)]


def h0_via_saturation(I: MonomialIdeal, window: tuple[int, int]) -> tuple[int, ...]:
    """H^0 row from the saturation: Hilb(A/I) - Hilb(A/I^sat) on the window."""
    lo, hi = window
    sat = saturate(I, I.ctx.max_ideal())
    if hi < 0:
        return (0,) * (hi - lo + 1)
    qi = quotient_window(I, hi)
    qs = quotient_window(sat, hi)
    return tuple(
        (qi[j] - qs[j]) if j >= 0 else 0 for j in range(lo, hi + 1)
    )


def compare_tables(
    A: CohomologyTable, B: CohomologyTable
) -> tuple[bool, tuple[int, int] | None]:
    """Entrywise A <= B on the shared window and below it via tails.

    Returns (holds, first_failure_coordinates).  Raises on mixed
    characteristics or uncertified tails (never silently truncates).
    """
    if A.char != B.char:
        raise ValueError("mixed-characteristic comparison rejected")
    if A.n != B.n or A.lo != B.lo or A.hi != B.hi:
        raise ValueError("tables must be computed on a shared window")
    for i in range(A.n + 1):
        for j in range(A.lo, A.hi + 1):
            if A.value(i, j) > B.value(i, j):
                return False, (i, j)
    for i in range(A.n + 1):
        ta, tb = A.tails[i], B.tails[i]
        if not (ta.certified and tb.certified):
            raise WindowUncertifiedError(
                f"row {i}: uncertified tail in comparison; widen the window"
            )
        below = range(A.lo - 1, A.lo - 1 - max(len(ta.coeffs), len(tb.coeffs)), -1)
        if not values_nonneg([tb.value(j) - ta.value(j) for j in below]):
            return False, (i, A.lo - 1)
    return True, None
