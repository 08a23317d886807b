"""Exact Hilbert series of monomial quotients and Macaulay growth bounds.

The series of B/I is stored as an integer-coefficient numerator over
(1-t)^n.  When an ideal of a power quotient S = B/b is meant, callers pass
the preimage (I containing the power generators), which makes the same
machinery compute Hilb(S/I) directly.  Hilb(S) is the power ideal's
numerator prod (1 - t^di) over (1-t)^n, built by
``RingContext.powers_numerator`` only up to the degree asked, so an ideal's
own dims (``ideal_coeffs``) are one pass over the difference of numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from math import comb

from . import limits, memos
from .core import MonomialIdeal, RingContext, _grlex_key, series_value


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _shift(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    return (0,) * k + tuple(a)


@memos.memo(memos.NUMERATOR_MEMO_SIZE)
def _numerator(gens: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Numerator of Hilb(B/(gens)) over (1-t)^n, for a canonical antichain.

    A generator that shares no variable with the others splits off as the
    factor 1 - t^deg.  On the rest, pivot on the variable x found in the
    most of them, the lowest index on ties:
    Hilb(B/I) = Hilb(B/(I+(x))) + t * Hilb(B/(I:x)), where the numerator of
    I + (x) is (1-t) times that of the generators prime to x.  In I : x only
    the generators that contain x drop by one in x; they stay an antichain
    in canonical order, and a generator prime to x survives unless one of
    them divides it, so the two canonical lists merge."""
    if not gens:
        return (1,)
    if any(sum(g) == 0 for g in gens):
        return (0,)
    counts = [len(column) - column.count(0) for column in zip(*gens)]
    out, shared = (1,), []
    for g in gens:
        if all(counts[i] == 1 for i, e in enumerate(g) if e):
            out = _poly_mul(out, _poly_add((1,), _shift((-1,), sum(g))))
        else:
            shared.append(g)
    if not shared:
        return out
    j = max(range(len(counts)), key=counts.__getitem__)
    prime = tuple(g for g in shared if not g[j])
    plus = _poly_mul((1, -1), _numerator(prime))
    lowered = [g[:j] + (g[j] - 1,) + g[j + 1:] for g in shared if g[j]]
    kept = [h for h in prime if not any(all(a <= b for a, b in zip(g, h)) for g in lowered)]
    col = tuple(merge(lowered, kept, key=_grlex_key))
    return _poly_mul(out, _poly_add(plus, _shift(_numerator(col), 1)))


def _series_coeffs(numer, nvars: int, upto: int) -> list[int]:
    """Coefficients of numer(t) / (1-t)^nvars on degrees 0..upto: each
    division by (1-t) is one running-sum pass.  None when upto < 0."""
    coeffs = (list(numer) + [0] * (upto + 1))[:max(upto + 1, 0)]
    for _ in range(nvars):
        for d in range(1, upto + 1):
            coeffs[d] += coeffs[d - 1]
    return coeffs


@dataclass(frozen=True)
class HilbertSeries:
    """Hilb(ring/I) = numer(t) / (1-t)^n with integer coefficients."""

    ctx: RingContext
    numer: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.ctx.n

    def quotient_window(self, upto: int) -> tuple[int, ...]:
        """Values of the quotient Hilbert function on degrees 0..upto."""
        return tuple(_series_coeffs(self.numer, self.n, upto))

    def value(self, d: int) -> int:
        """The quotient Hilbert function in degree d."""
        return series_value(self.numer, self.n, d)


def hilbert_series(I: MonomialIdeal) -> HilbertSeries:
    """Exact Hilbert series of (B or S)/I; pass preimages for S-quotients.

    Raises ResourceLimitError when the lcm degree of the generators exceeds
    ``limits.NUMERATOR_DEGREE_LIMIT``.
    """
    degree = lcm_degree(I)
    limits.check("NUMERATOR_DEGREE_LIMIT", degree,
                 f"the generators' lcm has degree {degree}")
    return HilbertSeries(I.ctx, _numerator(tuple(g.exps for g in I.gens)))


def lcm_degree(I: MonomialIdeal) -> int:
    """sum_i max_g e_i over the generators g of I: the degree of their lcm."""
    return sum(map(max, zip(*(g.exps for g in I.gens)))) if I.gens else 0


def ideal_window(I: MonomialIdeal, upto: int) -> tuple[int, ...]:
    """Degreewise dims of the ideal I itself inside the full ring."""
    return ideal_coeffs(I.ctx, hilbert_series(I).numer, upto)


def ideal_coeffs(ctx: RingContext, numer, upto: int) -> tuple[int, ...]:
    """Dims on degrees 0..upto of the ideal whose quotient has the numerator
    ``numer``: one ``_series_coeffs`` pass over N_b - numer, where N_b is
    the power ideal's numerator truncated at upto
    (``RingContext.powers_numerator``)."""
    diff = ctx.powers_numerator(upto)
    for i, c in enumerate(numer[:len(diff)]):
        diff[i] -= c
    return tuple(_series_coeffs(diff, ctx.n, upto))


def values_nonneg(values) -> bool:
    """Whether P(0), P(1), P(2), ... are all >= 0, given the m values
    P(0), ..., P(m-1) of a polynomial P of degree < m.

    The forward differences Delta^k at the current point fill a table with
    Delta^m = 0.  One step to the next point is Delta^k += Delta^{k+1} for
    k = 0, 1, ...  The answer is False at the first negative value, and
    True at the first point where every difference is >= 0: from there
    each difference is a running sum of nonnegative ones.  The walk ends
    because the top nonzero difference is a constant c: if c > 0 each lower
    difference in turn becomes positive and stays so, and if c < 0 each in
    turn becomes negative, down to the values themselves.
    """
    diffs = list(values)
    m = len(diffs)
    for k in range(1, m):
        for t in range(m - 1, k - 1, -1):
            diffs[t] -= diffs[t - 1]
    while any(d < 0 for d in diffs):
        if diffs[0] < 0:
            return False
        for k in range(m - 1):
            diffs[k] += diffs[k + 1]
    return True


def series_signs(numer, nvars: int) -> tuple[bool, bool]:
    """(every coefficient of numer(t) / (1-t)^nvars is >= 0, every one is
    <= 0), over all degrees >= 0, decided exactly from one pass.

    Coefficients are checked explicitly across the numerator's support D;
    from degree D + 1 - nvars on they follow one polynomial of degree
    < nvars, so the nvars coefficients after D decide the rest, for either
    sign.  Trailing zeros of ``numer`` do not count towards D.
    """
    D = len(numer) - 1
    while D >= 0 and numer[D] == 0:
        D -= 1
    if D < 0:
        return True, True
    coeffs = _series_coeffs(numer[:D + 1], nvars, D + nvars)
    head, tail = coeffs[:D + 1], coeffs[D + 1:]
    nonneg = min(head) >= 0 and values_nonneg(tail)
    nonpos = max(head) <= 0 and values_nonneg([-c for c in tail])
    return nonneg, nonpos


def macaulay_rep(a: int, d: int) -> list[tuple[int, int]]:
    """The unique d-th Macaulay representation a = sum C(k_i, i).

    Returns [(k_d, d), (k_{d-1}, d-1), ...] with k_d > k_{d-1} > ... >= i >= 1.
    Each k_i is the largest k with C(k, i) <= rem, the part of a still left.
    As C(k, i) >= k - i + 1, it lies in [i, rem + i - 1], and bisection
    finds it in O(log rem) binomials.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if a < 0:
        raise ValueError("a must be >= 0")
    rep = []
    rem, i = a, d
    while rem > 0 and i >= 1:
        lo, hi = i, rem + i - 1  # C(lo, i) <= rem < C(hi + 1, i)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if comb(mid, i) <= rem else (lo, mid - 1)
        rep.append((lo, i))
        rem -= comb(lo, i)
        i -= 1
    return rep


def macaulay_growth(a: int, d: int) -> int:
    """a^<d>: the maximal value of H(d+1) given H(d) = a (Macaulay bound)."""
    return sum(comb(k + 1, i + 1) for k, i in macaulay_rep(a, d))


def is_O_sequence(H, n: int) -> bool:
    """Macaulay's criterion for quotient Hilbert functions in n variables."""
    vals = tuple(H)
    if not vals:
        return True
    if vals[0] != 1:
        return False
    if len(vals) > 1 and vals[1] > n:
        return False
    for d in range(1, len(vals) - 1):
        if vals[d + 1] > macaulay_growth(vals[d], d):
            return False
    return True
