"""Hilbert functions of local cohomology of monomial quotients, two ways.

Both backends decompose by multidegree and group multidegrees into finitely
many cells on which the relevant complex is constant.  What each backend
owns is its cell decomposition: its walk, its complexes and its memo.  Both
hand over cells of one shape, ((fixed_sum, f, ((i, dim H^i), ...)), ...)
in sorted order, a cell for the multidegrees of H^i_m(A/I) with f
coordinates <= -1 and the others pinned at values summing to fixed_sum.
Each walk adds every multidegree's dims into the sums of its
(fixed_sum, f, i) as it goes: rows, tails, the module dimension and the
regularity are sums and maxima over cells, so merging changes no table,
the walk's order does not matter, and there are at most
(sum_i rho_i + 1)(n + 1) cells however many multidegrees the walk visits.
One routine assembles the rows of either backend from per-cell dims times
lattice-point counts (binomials), and one reads the regularity.  Besides
that assembly they share the rank kernel and the homology routine:

* ``ext``: graded local duality.  The dual of the Taylor complex of I is
  sliced per multidegree; the slice pattern only depends on clamp(-a, 0, rho)
  and its cohomology gives the Ext modules, whence
  dim H^i_m(A/I)_j = dim Ext^{n-i}(A/I, A)_{-n-j}.
* ``combinatorial``: the degreewise simplicial formula for the Cech complex
  of a monomial quotient: dim H^i_m(A/I)_a is a reduced homology dim of a
  complex depending only on the negative support of a and its clamped
  positive part.

Tables live on a degree window [lo, hi].  On all degrees j <= -1 each row is
a polynomial in j, its tail, which is summed off the cells (``_tails``), so
a window from lo <= 0 leaves no degree uncovered below it.  A tail is held
exactly, as integer coefficients over one scale (``TailPoly``); its value
at a degree is one exact division, and fractions appear only when it is
printed.  The rows evaluate the tails there and walk each cell only over
the degrees >= 0 it reaches (``_rows``), so a window far below 0 costs its
span times the tails' width, not times the number of cells.  Each backend
takes the window top from its own cells: by
Eisenbud-Goto, reg(A/I) = max_i (a_i + i) where a_i is the top nonzero
degree of H^i_m(A/I), and every cell knows its top degree.

Both walks skip every multidegree below a node where some generator can no
longer enter any of the node's masks: it lies in no mask chosen so far and
has no positive exponent on the coordinates left.  Below such a node every
Takayama complex is void and every ext slice is a cone, so no cell
changes.  Each walk applies this one rule to its own masks (see
``_takayama_cells`` and ``_ext_cells``).

Each backend memoizes the homology of its complexes across calls, for the
whole process, in its own memo (``_takayama_dims``, ``_ext_dims``):
a complex is named by a compact key that determines its faces, plus the
characteristic p, and only a miss lists faces.  An ext slice is ranked on
the nerve of its minimal masks, at most n vertices, when that is smaller
than its order filter of up to 2^g generator subsets (``_ext_dims``).  The
two memos are separate, so one backend's cached answer never stands in for
the other's.  Their values are immutable tuples of pairs, added into the
walk's sums.

One level up, ``_cells`` memoizes each ideal's cells, for the whole
process, in the memo ``_merged_cells`` keyed on (I, backend); I
carries its ring, so p is in the key.  The two backends get separate
entries, so the two-backend oracle still compares two independent
computations.  An entry is the walk's answer, tuples of ints all the way
down.  Every limit of the walk is checked before the lookup, and the
checks of ``_table`` run on every call: a hit skips computation, never a
refusal or a check.

Both backends walk at most prod_i (rho_i + 1) multidegrees, rho_i the
largest exponent of x_i in a generator; ``_cells`` checks that count against
``limits.CELL_LIMIT``, and the number of variables against
``limits.COHOM_VARIABLE_LIMIT``, on every call, and each walk checks the
count again before it starts.  For the ext backend ``_cells`` and the walk
also check the generators against ``limits.EXT_GENERATOR_LIMIT``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import limits, memos
from .core import MonomialIdeal
from .hilbert import _poly_mul, values_nonneg
from .homology import reduced_homology_dims


def _exponent_bounds(gens: list[tuple[int, ...]], n: int) -> list[int]:
    """rho_i = max_g g_i for each coordinate, after checking that the walk
    over prod_i (rho_i + 1) multidegrees stays within ``limits.CELL_LIMIT``."""
    rho = [max((g[i] for g in gens), default=0) for i in range(n)]
    cells = 1
    for r in rho:
        cells *= r + 1
    limits.check("CELL_LIMIT", cells, f"the cell walk covers {cells} multidegrees")
    return rho


def _cell_tuple(dims: dict[tuple[int, int, int], int]):
    """A walk's sums (fixed_sum, f, i) -> dim as the cells
    ((fixed_sum, f, ((i, dim), ...)), ...), in sorted order."""
    return tuple(
        (fs, f, tuple((i, dim) for (_, _, i), dim in group))
        for (fs, f), group in itertools.groupby(sorted(dims.items()),
                                                key=lambda item: item[0][:2])
    )


# ---------------------------------------------------------------------------
# combinatorial backend


@memos.memo(memos.TAKAYAMA_MEMO_SIZE)
def _takayama_dims(pinned: int, exceed: frozenset[int], p: int) -> tuple[tuple[int, int], ...]:
    """((k, dim H~_k), ...) of the complex on ``pinned`` vertices whose
    faces are the masks with a complement meeting every exceed mask."""
    full = (1 << pinned) - 1
    faces = [mask for mask in range(full + 1) if all((full ^ mask) & e for e in exceed)]
    return tuple(reduced_homology_dims(faces, p).items())


def _ended(gens: list[tuple[int, ...]], n: int) -> list[int]:
    """ended[i], for i = 0..n, the bitmask of the generators with no
    positive exponent on the coordinates i..n-1 (all of them at i = n)."""
    ended = [0] * (n + 1)
    for t, e in enumerate(gens):
        i = n
        while i and not e[i - 1]:
            i -= 1
        for k in range(i, n + 1):
            ended[k] |= 1 << t
    return ended


def _takayama_cells(I: MonomialIdeal):
    """The cells ((fixed_sum, f, ((i, dim), ...)), ...) covering every
    multidegree with nonzero cohomology, f the number of negative
    coordinates.

    A coordinate is either negative (free, <= -1) or pinned to a value below
    the generator-exponent bound rho_i; multidegrees with a_i >= rho_i give
    cones, hence no homology, and are skipped.  On the pinned vertices a
    generator's exceed mask marks where it lies above the pinned value; a
    face is kept iff its complement meets every exceed mask, so the number
    of pinned vertices and the set of masks, with p, are the memo key of
    ``_takayama_dims``.

    The multidegrees are walked depth first, coordinate by coordinate.
    The generators are carried down the walk in blocks of equal exceed
    mask, pairs (mask, bitmask of the generators with that mask): pinning
    coordinate i at a splits each block by ``exceeds[i][a]``, those with
    g_t[i] > a, and adds its bit (the number of coordinates pinned before
    it) to the mask of the part inside.  So a node costs its blocks, at
    most min(g, 2^pinned), not its g generators, and the leaf's key is the
    set of the blocks' masks.  The walk also carries ``covered``, the
    generators whose mask is not empty.  Each leaf adds its dims to the
    sums of its (fixed_sum, f, row), so the cells come out merged and
    sorted, whatever the order of the walk.

    A node at coordinate i is skipped, with all the multidegrees below it,
    when some generator t outside ``covered`` has no positive exponent on
    the coordinates i..n-1 (``_ended``): a later coordinate k adds a bit to
    t's mask only if g_t[k] > a_k >= 0, so t's mask stays empty, and no
    complement meets an empty mask.  Every leaf below is the void complex,
    with no homology.  At i = n this drops every void leaf before its
    lookup.  Since exceeds[i][a] shrinks as a grows, the values of a
    coordinate are tried upwards until the first one that is skipped.
    """
    ctx = I.ctx
    n, p = ctx.n, ctx.char
    gens = [g.exps for g in I.gens]
    rho = _exponent_bounds(gens, n)
    exceeds = [
        [sum(1 << t for t, e in enumerate(gens) if e[i] > a) for a in range(rho[i])]
        for i in range(n)
    ]
    ended = _ended(gens, n)
    dims: dict[tuple[int, int, int], int] = {}
    blocks = ((0, (1 << len(gens)) - 1),) if gens else ()
    # (coordinate, pinned, fixed_sum, blocks, covered)
    stack = [] if ended[0] else [(0, 0, 0, blocks, 0)]
    while stack:
        i, pinned, fixed_sum, blocks, covered = stack.pop()
        if i < n:
            need = ended[i + 1]
            if not need & ~covered:
                stack.append((i + 1, pinned, fixed_sum, blocks, covered))
            bit = 1 << pinned
            for a, exceed in enumerate(exceeds[i]):
                cov = covered | exceed
                if need & ~cov:
                    break
                split = []
                for mask, members in blocks:
                    inside = members & exceed
                    if inside:
                        split.append((mask | bit, inside))
                    if inside != members:
                        split.append((mask, members ^ inside))
                stack.append((i + 1, pinned + 1, fixed_sum + a, tuple(split), cov))
            continue
        f = n - pinned
        # the complex lives on the pinned vertices, so -1 <= k <= pinned - 1
        # and the row k + f + 1 always lies in f..n
        for k, dim in _takayama_dims(pinned, frozenset(mask for mask, _ in blocks), p):
            key = (fixed_sum, f, k + f + 1)
            dims[key] = dims.get(key, 0) + dim
    return _cell_tuple(dims)


# ---------------------------------------------------------------------------
# ext backend (dual Taylor complex + graded local duality)


@memos.memo(memos.EXT_MEMO_SIZE)
def _ext_dims(g: int, masks: frozenset[int], p: int) -> tuple[tuple[int, int], ...]:
    """((k, dim Ext^k), ...) of the cochain complex on the order filter F of
    subsets of g generators that meet every mask.

    Only the inclusion-minimal masks M matter, since a subset meets every
    mask iff it meets every minimal one.  A cone (see ``_ext_cells``) is
    empty without listing anything.  Otherwise, for g >= 1, F is the full
    simplex on the generators minus Gamma, the union of the simplices
    2^([g] \\ m) over m in M, and ``reduced_homology_dims`` of F is the
    relative homology of that pair.  The simplex is acyclic, so
    H_k(F) = H~_{k-1}(Gamma).  An intersection of those simplices is the
    simplex on [g] minus the union of their masks, nonempty iff the masks
    do not cover [g].  So by the nerve lemma (Borsuk 1948; Bjorner,
    "Topological methods", 1995) Gamma has the reduced homology of the
    nerve N = {Q subset of M : the union of Q is not [g]}, whose faces
    include Q = {}, and Ext^{k+2} = H~_k(N).  M = {[g]} gives N = {{}} and
    Ext^1 = K, the filter of nonempty subsets.

    N has at most 2^|M| faces and F at most 2^g, so N is ranked when
    |M| < g and F otherwise; g = 0 lists F = {{}}.
    """
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    full = (1 << g) - 1
    union = 0
    for m in minimal:
        union |= m
    if union != full:
        return ()
    if len(minimal) < g:
        unions = [0] * (1 << len(minimal))
        for Q in range(1, len(unions)):
            low = Q & -Q
            unions[Q] = unions[Q ^ low] | minimal[low.bit_length() - 1]
        nerve = [Q for Q, u in enumerate(unions) if u != full]
        return tuple((k + 2, d) for k, d in reduced_homology_dims(nerve, p).items())
    subsets = [S for S in range(1 << g) if all(S & m for m in minimal)]
    return tuple((k + 1, d) for k, d in reduced_homology_dims(subsets, p).items())


def _ext_cells(I: MonomialIdeal):
    """The cells of ``_takayama_cells``, merged and sorted alike, read off
    the Ext modules Ext^k(A/I, A).

    At a multidegree c of prod_i [0, rho_i] the dual Taylor slice is the
    order filter of generator subsets S with lcm(S) >= c, i.e. those meeting
    above[i][c_i] = {t : g_t[i] >= c_i} for every coordinate with c_i > 0;
    the number of generators and the set of those bitmasks, with p, are the
    memo key of ``_ext_dims``.  Its cohomology is Ext^k in the multidegrees
    b with b_i = -c_i where c_i > 0 and b_i >= 0 where c_i = 0.  By
    multigraded local duality, dim H^i_m(A/I)_a = dim Ext^{n-i}(A/I, A)_{-a-1},
    so these are the multidegrees a of H^{n-k} with a_i pinned at c_i - 1
    where c_i > 0 and a_i <= -1 at the z coordinates where c_i = 0: a cell
    (sum(c) - n + z, z) in row n - k.  Ext^k(A/I, A) = 0 for k > n (A has
    global dimension n), so a slice with cohomology there is a bug.

    A slice is a cone, with no cohomology, when some generator t lies in
    none of the key's inclusion-minimal masks: a subset meets every mask iff
    it meets every minimal one, which does not depend on whether it holds
    t.  So the filter is F' times the two subsets (empty, {t}), where F' is
    a filter on the other generators, and its cochain complex is acyclic.
    Such slices are memoized as () without listing any subset.

    The multidegrees are walked depth first, coordinate by coordinate, like
    those of ``_takayama_cells``, carrying the masks chosen so far and
    ``covered``, their union.  A node at coordinate i is skipped, with all
    the multidegrees below it, when some generator t outside ``covered``
    has no positive exponent on the coordinates i..n-1 (``_ended``): a
    later mask above[k][c_k] with c_k >= 1 holds t only if g_t[k] >= 1, so
    t lies in no mask and every slice below is a cone.  At i = n this
    drops every slice whose masks miss a generator before its lookup.
    Since above[i][c] shrinks as c grows, the values of a coordinate are
    tried upwards until the first one that is skipped.
    """
    ctx = I.ctx
    n, p = ctx.n, ctx.char
    g = len(I.gens)
    limits.check("EXT_GENERATOR_LIMIT", g, f"{g} generators for the Taylor complex")
    gens = [gen.exps for gen in I.gens]
    rho = _exponent_bounds(gens, n)
    above = [
        [sum(1 << t for t, e in enumerate(gens) if e[i] >= c) for c in range(1, rho[i] + 1)]
        for i in range(n)
    ]
    ended = _ended(gens, n)
    dims: dict[tuple[int, int, int], int] = {}
    # (coordinate, sum(c), zero coordinates, masks, covered)
    stack = [] if ended[0] else [(0, 0, 0, (), 0)]
    while stack:
        i, total, z, masks, covered = stack.pop()
        if i < n:
            need = ended[i + 1]
            if not need & ~covered:
                stack.append((i + 1, total, z + 1, masks, covered))
            for c, mask in enumerate(above[i], 1):
                cov = covered | mask
                if need & ~cov:
                    break
                stack.append((i + 1, total + c, z, masks + (mask,), cov))
            continue
        for k, dim in _ext_dims(g, frozenset(masks), p):
            if k > n:
                raise AssertionError(f"Ext^{k}(A/I, A) != 0 in {n} variables (bug)")
            key = (total - n + z, z, n - k)
            dims[key] = dims.get(key, 0) + dim
    return _cell_tuple(dims)


# ---------------------------------------------------------------------------
# rows, tables, tails, comparisons


@dataclass(frozen=True)
class TailPoly:
    """The polynomial that a row equals on every degree j <= -1, as integer
    coefficients over one scale: sum_e coeffs[e] j^e / scale."""

    scale: int
    coeffs: tuple[int, ...]  # low-to-high powers of j, times the scale

    def value(self, j: int) -> int:
        """The row at degree j <= -1, by Horner's rule and one exact
        division."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * j + c
        q, r = divmod(v, self.scale)
        if r:
            raise AssertionError(f"non-integral tail value at {j} (bug)")
        return q

    def printed(self) -> list[str]:
        """The coefficients as reduced fractions, as reports print them."""
        return [str(Fraction(c, self.scale)) for c in self.coeffs]


def _tails(cells, n: int, module_dim: int) -> dict[int, TailPoly]:
    """Each row's polynomial on j <= -1, summed off the cells, as
    width = max(module_dim, 1) integer coefficients over the one scale
    (width - 1)!.

    A cell (fs, f) with f >= 1 adds dim * C(fs - j - 1, f - 1) to its row in
    degree j, one for each multidegree with f coordinates <= -1 summing to
    j - fs (none when fs - j < f).  Its pinned coordinates are >= 0, so
    fs >= 0 and fs - j - 1 >= 0 on j <= -1, where that binomial is the
    polynomial (fs - j - 1) (fs - j - 2) ... (fs - j - f + 1) / (f - 1)!
    of degree f - 1, positive as j -> -oo.  A cell with f = 0 sits at the
    one degree fs >= 0.  Row i is dual to the Hilbert function of an Ext
    module of dimension <= i, so its cells have f - 1 < i <= module_dim,
    and every (f - 1)! divides the scale.
    """
    width = max(module_dim, 1)
    scale = factorial(width - 1)
    sums = {i: [0] * width for i in range(n + 1)}
    for fs, f, dims in cells:
        if not f:
            continue
        poly = (scale // factorial(f - 1),)
        for t in range(1, f):
            poly = _poly_mul(poly, (fs - t, -1))
        for i, dim in dims:
            for e, c in enumerate(poly):
                sums[i][e] += dim * c
    return {i: TailPoly(scale, tuple(row)) for i, row in sums.items()}


def _rows(cells, lo: int, hi: int, tails: dict[int, TailPoly]) -> dict[int, list[int]]:
    """Each row on the window [lo, hi], from its tail on the degrees <= -1
    and from the cells on the degrees >= 0.

    From 0 up each cell is walked over the degrees it reaches: a cell with
    f = 0 only the degree fs, one with f >= 1 the degrees j <= fs - f,
    where it adds dim * C(fs - j - 1, f - 1).
    """
    rows = {i: [0] * (hi - lo + 1) for i in tails}
    for i, tail in tails.items():
        if any(tail.coeffs):
            for j in range(lo, min(hi, -1) + 1):
                rows[i][j - lo] = tail.value(j)
    start = max(lo, 0)
    for fs, f, dims in cells:
        for j in range(start if f else max(start, fs), min(hi, fs - f) + 1):
            cnt = comb(fs - j - 1, f - 1) if f else 1
            for i, dim in dims:
                rows[i][j - lo] += dim * cnt
    return rows


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
        if j >= 0:
            raise ValueError(f"degree {j} below the window bottom {self.lo}: "
                             "the tails cover degrees <= -1 only")
        return self.tails[i].value(j)

    def all_certified(self) -> bool:
        # every tail is exact; kept while perfbench/workloads.py calls it
        return True


def _cells(I: MonomialIdeal, backend: str):
    """The cells of I in ``backend``, merged by (fixed_sum, f), as
    ((fixed_sum, f, ((i, dim), ...)), ...) in sorted order.

    Every limit that the backend's walk checks is checked here first, on
    every call, so a memo hit skips the walk and never a refusal.
    """
    n = I.ctx.n
    limits.check("COHOM_VARIABLE_LIMIT", n, f"the ring has {n} variables")
    if backend == "ext":
        g = len(I.gens)
        limits.check("EXT_GENERATOR_LIMIT", g, f"{g} generators for the Taylor complex")
    elif backend != "combinatorial":
        raise ValueError(f"unknown backend {backend!r}")
    _exponent_bounds([g.exps for g in I.gens], n)
    return _merged_cells(I, backend)


@memos.memo(memos.CELL_MEMO_SIZE)
def _merged_cells(I: MonomialIdeal, backend: str):
    """``_cells`` without the limit checks: the backend's walk."""
    return (_takayama_cells if backend == "combinatorial" else _ext_cells)(I)


def _regularity(cells) -> int:
    """reg(A/I) = max{i + j : H^i_m(A/I)_j != 0}, read off the cells; 0 when
    there are none (the unit ideal).  A cell reaches up to degree
    fixed_sum - f, every negative coordinate at -1."""
    return max((fs - f + i for fs, f, dims in cells for i, _ in dims), default=0)


def _window_lo(I: MonomialIdeal) -> int:
    """The default window bottom, -(n + sum deg g) - 2.

    The tails need no window points (see ``_tails``), so any bottom <= 0
    would do.  This one is kept because reports and the benchmark's
    recorded digests print the rows from it, byte for byte; a bottom that
    depends on n alone waits for a change that records the digests again.
    """
    return -(I.ctx.n + sum(g.degree for g in I.gens)) - 2


def _table(I: MonomialIdeal, cells, reg: int, lo: int, hi: int) -> CohomologyTable:
    ctx = I.ctx
    # by Grothendieck vanishing and non-vanishing, the top nonzero row is
    # the Krull dimension; -1 for the unit ideal, which has no cells
    dim = max((i for _, _, dims in cells for i, _ in dims), default=-1)
    tails = _tails(cells, ctx.n, dim)
    rows = _rows(cells, lo, hi, tails)
    if any(v < 0 for row in rows.values() for v in row):
        raise AssertionError("negative cohomology dimension (bug)")
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
    regularity read off this backend's cells.
    """
    cells = [_cells(I, backend) for I in ideals]
    regs = [_regularity(c) for c in cells]
    lo = min(_window_lo(I) for I in ideals)
    hi = max(regs) + 1
    return [_table(I, c, reg, lo, hi) for I, c, reg in zip(ideals, cells, regs)]


def compare_tables(
    A: CohomologyTable, B: CohomologyTable
) -> tuple[bool, tuple[int, int] | None]:
    """Entrywise A <= B on the shared window and below it via tails.

    Returns (holds, first_failure_coordinates).  Raises on mixed
    characteristics, and on a window from lo > 0, whose degrees 0..lo - 1
    neither the rows nor the tails cover (never silently truncates).
    """
    if A.char != B.char:
        raise ValueError("mixed-characteristic comparison rejected")
    if A.n != B.n or A.lo != B.lo or A.hi != B.hi:
        raise ValueError("tables must be computed on a shared window")
    if A.lo > 0:
        raise ValueError(f"window from degree {A.lo} leaves degrees 0..{A.lo - 1} uncovered")
    for i in range(A.n + 1):
        for j, (a, b) in enumerate(zip(A.rows[i], B.rows[i]), A.lo):
            if a > b:
                return False, (i, j)
    for i in range(A.n + 1):
        ta, tb = A.tails[i], B.tails[i]
        below = range(A.lo - 1, A.lo - 1 - max(len(ta.coeffs), len(tb.coeffs)), -1)
        if not values_nonneg([tb.value(j) - ta.value(j) for j in below]):
            return False, (i, A.lo - 1)
    return True, None
