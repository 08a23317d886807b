"""A minimal Buchberger engine over GF(p) for homogeneous ideals.

Weight orders with a lex or revlex tiebreak, reduced Groebner bases, and
initial ideals.  The stabilization loop of ``zstable`` does not call it:
the initial ideal of a distraction has a closed form there
(``zstable.distraction_initial``), and this engine is the tests' oracle
for it.  Inputs
are always homogeneous, which keeps weight orders with zero entries (such as
(1,...,1,0)) safe: reductions never leave the current degree.

Each basis member's leading term is computed once, when the member enters
the basis, and stored next to it; pairs, reductions, minimalization and
inter-reduction read it from there.  The S-pairs wait in a heap under the
normal selection order: the key (sum(lcm), lcm, i, j), smallest lcm degree
first (Giovini et al., "One sugar cube, please", ISSAC 1991), with the lcm
computed once, when the pair is pushed.  The key is unique, so the order in
which pairs are processed, and the pair on which the degree cap raises, are
fixed by the input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import Monomial, MonomialIdeal, RingContext, format_term
from .errors import DegreeCapExceededError, MixedContextError

DEFAULT_DEGREE_CAP = 20


@dataclass(frozen=True)
class TermOrder:
    """Weight vector with a lex/revlex tiebreak on x1 > ... > xn (> z)."""

    weights: tuple[int, ...]
    tiebreak: str = "revlex"

    def __post_init__(self):
        if self.tiebreak not in ("lex", "revlex"):
            raise ValueError(f"unknown tiebreak {self.tiebreak!r}")

    def key(self, exps: tuple[int, ...]):
        """Sort key; larger key = larger monomial."""
        w = sum(a * b for a, b in zip(self.weights, exps))
        if self.tiebreak == "lex":
            return (w, exps)
        return (w, tuple(-e for e in reversed(exps)))

    @staticmethod
    def standard(ctx: RingContext, tiebreak: str = "revlex") -> "TermOrder":
        return TermOrder((1,) * ctx.n, tiebreak)

    @staticmethod
    def x_weight(ctx: RingContext, tiebreak: str = "revlex") -> "TermOrder":
        """Weight 1 on the x variables and 0 on z (context must have z)."""
        if not ctx.z:
            raise ValueError("x_weight order needs a context with z")
        return TermOrder((1,) * (ctx.n - 1) + (0,), tiebreak)


@dataclass(frozen=True)
class Polynomial:
    """Sparse homogeneous polynomial over GF(ctx.char)."""

    ctx: RingContext
    coeffs: tuple[tuple[tuple[int, ...], int], ...]  # ((exps, coeff), ...)

    @staticmethod
    def make(ctx: RingContext, terms) -> "Polynomial":
        p = ctx.char
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in dict(terms).items() if isinstance(terms, dict) else terms:
            if len(exps) != ctx.n:
                raise MixedContextError("term length does not match context")
            acc[exps] = (acc.get(exps, 0) + c) % p
        items = tuple(sorted((e, c) for e, c in acc.items() if c))
        poly = Polynomial(ctx, items)
        if not poly.is_zero and len({sum(e) for e, _ in items}) != 1:
            raise ValueError("polynomials must be homogeneous")
        return poly

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return sum(self.coeffs[0][0]) if self.coeffs else -1

    def leading_term(self, order: TermOrder) -> tuple[tuple[int, ...], int]:
        return max(self.coeffs, key=lambda t: order.key(t[0]))

    def __str__(self):
        names = self.ctx.var_names()
        terms = sorted(self.coeffs, key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))
        return " + ".join(format_term(names, e, c) for e, c in terms) or "0"


# A basis member is stored as the triple (lt, lc, poly): the exponents and
# coefficient of its leading term, computed once, next to the polynomial.
Entry = tuple[tuple[int, ...], int, Polynomial]


def _monic_entry(f: Polynomial, order: TermOrder) -> Entry:
    lt, lc = f.leading_term(order)
    if lc != 1:
        p = f.ctx.char
        inv = pow(lc, p - 2, p)
        f = Polynomial(f.ctx, tuple((e, c * inv % p) for e, c in f.coeffs))
    return lt, 1, f


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce(ctx: RingContext, terms, basis: list[Entry], order: TermOrder) -> Polynomial:
    """Full remainder of the sum of ``terms`` under division by ``basis``:
    largest term first, each term is cancelled with the first member whose
    leading term divides it, or else kept."""
    p = ctx.char
    key = order.key
    rem: dict[tuple[int, ...], int] = {}
    work: dict[tuple[int, ...], int] = {}
    for e, c in terms:
        work[e] = (work.get(e, 0) + c) % p
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        if not c:
            continue
        for le, lc, g in basis:
            if _divides(le, e):
                q = tuple(a - b for a, b in zip(e, le))
                factor = c if lc == 1 else c * pow(lc, p - 2, p) % p
                for ge, gc in g.coeffs:
                    if ge != le:
                        t = tuple(a + b for a, b in zip(ge, q))
                        work[t] = (work.get(t, 0) - factor * gc) % p
                break
        else:
            rem[e] = c
    return Polynomial(ctx, tuple(sorted(rem.items())))


def normal_form(f: Polynomial, basis: list[Polynomial], order: TermOrder) -> Polynomial:
    """Full remainder of f under division by basis (all terms reduced)."""
    return _reduce(f.ctx, f.coeffs, [(*g.leading_term(order), g) for g in basis], order)


def _s_terms(f: Entry, g: Entry):
    """The terms of the S-polynomial of two monic members, leading terms
    left out (they cancel)."""
    (ef, _, pf), (eg, _, pg) = f, g
    lcm = tuple(map(max, ef, eg))
    p = pf.ctx.char
    for le, h, sign in ((ef, pf, 1), (eg, pg, p - 1)):
        q = tuple(l - e for l, e in zip(lcm, le))
        for e, c in h.coeffs:
            if e != le:
                yield tuple(a + b for a, b in zip(e, q)), c * sign


def buchberger(
    gens, order: TermOrder, degree_cap: int = DEFAULT_DEGREE_CAP
) -> list[Polynomial]:
    """Reduced Groebner basis; deterministic for a fixed order.

    Raises DegreeCapExceededError if an S-pair degree exceeds the cap.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ctx = gens[0].ctx

    def sort_key(entry: Entry):
        return (sum(entry[0]), order.key(entry[0]))

    basis = sorted((_monic_entry(g, order) for g in gens), key=sort_key)
    # normal selection: smallest lcm degree first; (lcm, i, j) breaks ties
    pairs = []
    for j in range(1, len(basis)):
        for i in range(j):
            lcm = tuple(map(max, basis[i][0], basis[j][0]))
            pairs.append((sum(lcm), lcm, i, j))
    heapq.heapify(pairs)
    while pairs:
        deg, lcm, i, j = heapq.heappop(pairs)
        if deg > degree_cap:
            raise DegreeCapExceededError(
                f"S-pair degree {deg} exceeds cap {degree_cap}"
            )
        ei, ej = basis[i][0], basis[j][0]
        if all(a + b == l for a, b, l in zip(ei, ej, lcm)):
            continue  # coprime leading terms reduce to zero
        s = _reduce(ctx, _s_terms(basis[i], basis[j]), basis, order)
        if s.is_zero:
            continue
        new = _monic_entry(s, order)
        basis.append(new)
        k = len(basis) - 1
        for i2 in range(k):
            lcm = tuple(map(max, basis[i2][0], new[0]))
            heapq.heappush(pairs, (sum(lcm), lcm, i2, k))
    # minimalize: drop members whose leading term another one divides
    basis.sort(key=sort_key)
    minimal: list[Entry] = []
    for entry in basis:
        if not any(_divides(h[0], entry[0]) for h in minimal):
            minimal.append(entry)
    # inter-reduce tails; leading terms stay, so each member stays monic
    reduced = [
        (lt, 1, _reduce(ctx, g.coeffs, minimal[:idx] + minimal[idx + 1 :], order))
        for idx, (lt, _, g) in enumerate(minimal)
    ]
    reduced.sort(key=sort_key)
    return [g for _, _, g in reduced]


def initial_ideal(
    gens, order: TermOrder, degree_cap: int = DEFAULT_DEGREE_CAP
) -> MonomialIdeal:
    """Monomial ideal of leading terms (a flat degeneration of the input)."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    ctx = gens[0].ctx
    gb = buchberger(gens, order, degree_cap)
    return MonomialIdeal.make(ctx, [Monomial(g.leading_term(order)[0]) for g in gb])
