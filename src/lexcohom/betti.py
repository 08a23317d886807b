"""Minimal graded Betti tables of monomial quotients, computed from
multigraded Koszul homology.

For a monomial ideal I and a multidegree b, the Betti number of A/I in
homological position i and multidegree b is the reduced homology in
dimension i-2 of the squarefree complex { tau : x^(b-tau) in I }; only
multidegrees in the lcm lattice of the generators can contribute.  Ranks are
taken over GF(p), so tables carry the characteristic as a tag.

The homology of each upper Koszul complex is memoized across calls, for the
whole process, in the memo ``_koszul_dims``, under the key
(supp(b), tight masks, p).  The face rule of ``upper_koszul_faces`` reads
nothing but supp(b) and the tight masks, so they determine the complex; p is
in the key because the homology depends on the field.  The tight masks are
taken on the vertices of supp(b), numbered 0, 1, ... in order, and keyed
as one int (``homology._mask_family``), so a key has at most 2^|supp(b)|
bits however many variables the ring has.  Many ideals share
these small complexes, so most lattice points of a run of many ideals are
memo hits.  Its values are tuples, so a caller cannot change them.

One level up, ``betti_table`` memoizes the entries that the lattice walk
finds, for the whole process, in the memo ``_lattice_entries``
keyed on I, which carries its ring and so p.  An entry is a tuple of
((i, j), beta_ij); every call builds a fresh ``BettiTable`` from it and
checks the Hilbert identity, so a hit skips computation, never the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import limits, memos
from .core import MonomialIdeal
from .hilbert import hilbert_series
from .homology import _family_masks, reduced_homology_dims

NEG_INF = float("-inf")


def lcm_lattice(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """All joins of nonempty generator subsets, deduplicated and sorted.

    The joins of g_1..g_k are those of g_1..g_{k-1}, g_k itself, and the
    join of g_k with each of them: one pass per generator, each at most
    doubling the set, so a refusal comes by 2 * LATTICE_LIMIT + 1 points.
    """
    lattice: set[tuple[int, ...]] = set()
    for g in I.exps:
        lattice |= {tuple(map(max, a, g)) for a in lattice}
        lattice.add(g)
        limits.check("LATTICE_LIMIT", len(lattice),
                     f"the lcm lattice has at least {len(lattice)} points")
    return sorted(lattice)


def _koszul_keys(I: MonomialIdeal, lattice):
    """(deg b, supp(b), tight masks) for each point b of the lattice: the
    tight masks {i : g_i = b_i > 0} of the generators g dividing x^b, as
    bitmasks on the vertices of supp(b) numbered in order, are all that the
    face rule reads.  They come as one ``_mask_family`` int.

    Generators are bits too.  For each coordinate i and each distinct
    exponent e of x_i among the generators there is the set of generators
    with g_i <= e and the set with g_i = e; every coordinate of a lattice
    point is such an exponent.  The divisors of x^b are then the AND over i
    of the sets with g_i <= b_i, and a divisor is tight at i iff it lies in
    the set with g_i = b_i.
    """
    gens = I.exps
    below, equal = [], []
    for i in range(I.ctx.n):
        eq: dict[int, int] = {}
        for t, g in enumerate(gens):
            eq[g[i]] = eq.get(g[i], 0) | 1 << t
        le, acc = {}, 0
        for e in sorted(eq):
            acc |= eq[e]
            le[e] = acc
        below.append(le)
        equal.append(eq)
    everyone = (1 << len(gens)) - 1
    for b in lattice:
        divisors = everyone
        for le, e in zip(below, b):
            divisors &= le[e]
        supp = 0
        tight = []
        for i, e in enumerate(b):
            if e:
                supp |= 1 << i
                tight.append((1 << len(tight), equal[i][e] & divisors))
        family = 0
        rest = divisors
        while rest:
            t = rest & -rest
            family |= 1 << sum(bit for bit, T in tight if T & t)
            rest ^= t
        yield sum(b), supp, family


def upper_koszul_faces(supp: int, family: int) -> list[int]:
    """Faces (as vertex bitmasks) of the upper Koszul complex at b, from its
    key (supp(b), tight masks) of ``_koszul_keys``: ``family`` holds the
    tight masks on the vertices of supp(b), which are placed back on the
    ring's vertices here.

    tau is a face iff x^(b - tau) lies in I, i.e. iff some generator g
    divides x^b and tau avoids {i : g_i = b_i > 0}; the faces are found
    among the submasks of supp(b).
    """
    verts = [1 << i for i in range(supp.bit_length()) if supp >> i & 1]
    tight = [sum(v for k, v in enumerate(verts) if m >> k & 1) for m in _family_masks(family)]
    faces = []
    tau = supp
    while True:
        if any(not tau & t for t in tight):
            faces.append(tau)
        if not tau:
            return faces
        tau = (tau - 1) & supp


@memos.memo(memos.KOSZUL_MEMO_SIZE)
def _koszul_dims(supp: int, family: int, p: int) -> tuple[tuple[int, int], ...]:
    """((k, dim H~_k), ...) of the upper Koszul complex with key (supp, family)."""
    return tuple(reduced_homology_dims(upper_koszul_faces(supp, family), p).items())


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers beta_{ij} of a cyclic quotient, over GF(char)."""

    n: int
    char: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    @cached_property
    def projdim(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    @cached_property
    def regularity(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def reg_h(self, h: int):
        """sup of j - i over rows i >= n - h; -inf for the empty set (h = -1
        always gives -inf)."""
        if h < -1 or h > self.n:
            raise ValueError(f"h must be in [-1, {self.n}]")
        vals = [j - i for (i, j) in self.entries if i >= self.n - h]
        return max(vals) if vals else NEG_INF

    def alternating_sum(self) -> tuple[int, ...]:
        """Coefficients of sum (-1)^i beta_ij t^j, for the Hilbert identity."""
        top = max((j for (_, j) in self.entries), default=0)
        out = [0] * (top + 1)
        for (i, j), v in self.entries.items():
            out[j] += (-1) ** i * v
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)


@memos.memo(memos.BETTI_MEMO_SIZE)
def _lattice_entries(I: MonomialIdeal) -> tuple[tuple[tuple[int, int], int], ...]:
    """The Betti entries ((i, j), beta_ij) that the walk over the lcm
    lattice of I finds."""
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    if not I.is_zero:
        p = I.ctx.char
        for j, supp, tight in _koszul_keys(I, lcm_lattice(I)):
            for k, dim in _koszul_dims(supp, tight, p):
                i = k + 2  # H~_{i-2} of the upper Koszul complex at b
                entries[(i, j)] = entries.get((i, j), 0) + dim
    return tuple(entries.items())


def betti_table(I: MonomialIdeal) -> BettiTable:
    """Minimal graded Betti table of A/I over GF(p).

    Every call checks the alternating-sum identity against the exact
    Hilbert numerator (an independent correctness cross-check).  Only a
    memo miss walks the lattice, and only a miss there lists faces (see the
    module docstring).
    """
    ctx = I.ctx
    if I.is_unit:
        raise ValueError("the ideal must be proper")
    table = BettiTable(ctx.n, ctx.char, dict(_lattice_entries(I)))
    numer = hilbert_series(I).numer
    alt = table.alternating_sum()
    if alt != numer:
        raise AssertionError(f"Betti table fails the Hilbert identity: {alt} vs {numer}")
    return table


@dataclass(frozen=True)
class Corner:
    """A dominance-maximal nonzero Betti position, stored as (i, j - i)."""

    i: int
    slope: int  # j - i
    value: int

    @property
    def j(self) -> int:
        return self.i + self.slope


def corners_via_reg(T: BettiTable) -> list[Corner]:
    """Corners read off the strict jumps of the partial regularities.

    reg_h(n - i) is the largest j - r over the rows r >= i, so one pass
    over the entries finds each row's largest j - r, and a running maximum
    from row n down gives reg_h(n - i) after row i and reg_h(n - i - 1)
    before it (rows run 0..n)."""
    top: dict[int, int] = {}
    for i, j in T.entries:
        if j - i > top.get(i, NEG_INF):
            top[i] = j - i
    out = []
    hi = NEG_INF
    for i in range(T.n, -1, -1):
        lo, hi = hi, max(hi, top.get(i, NEG_INF))
        if lo < hi:
            out.append(Corner(i, hi, T.beta(i, i + hi)))
    return out[::-1]


def corners_direct(T: BettiTable) -> list[Corner]:
    """Corners from the definition: beta_ij != 0 is extremal when every
    beta_rs with r >= i, s >= j+1 and s - r >= j - i vanishes."""
    out = []
    for (i, j), v in T.entries.items():
        extremal = all(
            not (r >= i and s >= j + 1 and s - r >= j - i)
            for (r, s) in T.entries
        )
        if extremal:
            out.append(Corner(i, j - i, v))
    return sorted(out, key=lambda c: c.i)


def corners(T: BettiTable) -> list[Corner]:
    """Extremal Betti positions; both characterizations are computed and
    must agree."""
    via_reg = corners_via_reg(T)
    direct = corners_direct(T)
    if via_reg != direct:
        raise AssertionError(
            f"corner characterizations disagree: {via_reg} vs {direct}"
        )
    return via_reg


def region_dominates(corners_a: list[Corner], corners_b: list[Corner]) -> bool:
    """True iff every corner of A is dominated by some corner of B in both
    the homological index and the slope."""
    return all(
        any(ca.i <= cb.i and ca.slope <= cb.slope for cb in corners_b)
        for ca in corners_a
    )
