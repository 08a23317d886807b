"""A minimal Buchberger engine over GF(p) for homogeneous ideals.

Only what the distraction/stabilization pipeline needs: weight orders with a
lex or revlex tiebreak, reduced Groebner bases, and initial ideals.  Inputs
are always homogeneous, which keeps weight orders with zero entries (such as
(1,...,1,0)) safe: reductions never leave the current degree.
"""

from __future__ import annotations

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

    @staticmethod
    def from_monomial(ctx: RingContext, m: Monomial, c: int = 1) -> "Polynomial":
        return Polynomial.make(ctx, [(m.exps, c)])

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


def _mul_term(f: Polynomial, exps: tuple[int, ...], c: int) -> Polynomial:
    p = f.ctx.char
    return Polynomial(
        f.ctx,
        tuple(sorted((tuple(a + b for a, b in zip(e, exps)), cf * c % p)
                     for e, cf in f.coeffs)),
    )


def _sub(f: Polynomial, g: Polynomial) -> Polynomial:
    p = f.ctx.char
    acc = dict(f.coeffs)
    for e, c in g.coeffs:
        acc[e] = (acc.get(e, 0) - c) % p
    return Polynomial(f.ctx, tuple(sorted((e, c) for e, c in acc.items() if c)))


def _monic(f: Polynomial, order: TermOrder) -> Polynomial:
    if f.is_zero:
        return f
    _, c = f.leading_term(order)
    inv = pow(c, f.ctx.char - 2, f.ctx.char)
    return _mul_term(f, (0,) * f.ctx.n, inv)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def normal_form(f: Polynomial, basis: list[Polynomial], order: TermOrder) -> Polynomial:
    """Full remainder of f under division by basis (all terms reduced)."""
    p = f.ctx.char
    rem: dict[tuple[int, ...], int] = {}
    work = dict(f.coeffs)
    lts = [(g.leading_term(order), g) for g in basis]
    while work:
        e = max(work, key=order.key)
        c = work.pop(e)
        if not c:
            continue
        for (le, lc), g in lts:
            if _divides(le, e):
                q = tuple(a - b for a, b in zip(e, le))
                factor = c * pow(lc, p - 2, p) % p
                for ge, gc in g.coeffs:
                    key = tuple(a + b for a, b in zip(ge, q))
                    work[key] = (work.get(key, 0) - factor * gc) % p
                work.pop(tuple(a + b for a, b in zip(le, q)), None)
                break
        else:
            rem[e] = c % p
    return Polynomial(f.ctx, tuple(sorted((e, c) for e, c in rem.items() if c)))


def _s_poly(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    (ef, cf), (eg, cg) = f.leading_term(order), g.leading_term(order)
    lcm = tuple(map(max, ef, eg))
    p = f.ctx.char
    a = _mul_term(f, tuple(l - e for l, e in zip(lcm, ef)), pow(cf, p - 2, p))
    b = _mul_term(g, tuple(l - e for l, e in zip(lcm, eg)), pow(cg, p - 2, p))
    return _sub(a, b)


def buchberger(
    gens, order: TermOrder, degree_cap: int = DEFAULT_DEGREE_CAP
) -> list[Polynomial]:
    """Reduced Groebner basis; deterministic for a fixed order.

    Raises DegreeCapExceededError if an S-pair degree exceeds the cap.
    """
    basis = [_monic(g, order) for g in gens if not g.is_zero]
    basis.sort(key=lambda g: (g.degree, order.key(g.leading_term(order)[0])))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        # normal selection: smallest lcm degree first, deterministic tiebreak
        def pair_key(ij):
            i, j = ij
            lcm = tuple(map(max, basis[i].leading_term(order)[0],
                            basis[j].leading_term(order)[0]))
            return (sum(lcm), lcm, i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        ei = basis[i].leading_term(order)[0]
        ej = basis[j].leading_term(order)[0]
        lcm = tuple(map(max, ei, ej))
        if sum(lcm) > degree_cap:
            raise DegreeCapExceededError(
                f"S-pair degree {sum(lcm)} exceeds cap {degree_cap}"
            )
        if all(a + b == l for a, b, l in zip(ei, ej, lcm)):
            continue  # coprime leading terms reduce to zero
        s = normal_form(_s_poly(basis[i], basis[j], order), basis, order)
        if s.is_zero:
            continue
        s = _monic(s, order)
        basis.append(s)
        k = len(basis) - 1
        pairs.update((i2, k) for i2 in range(k))
    # minimalize: drop members whose leading term another one divides
    basis.sort(key=lambda g: (g.degree, order.key(g.leading_term(order)[0])))
    minimal: list[Polynomial] = []
    for g in basis:
        lt = g.leading_term(order)[0]
        if not any(_divides(h.leading_term(order)[0], lt) for h in minimal):
            minimal.append(g)
    # inter-reduce tails
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(_monic(normal_form(g, others, order), order))
    reduced.sort(key=lambda g: (g.degree, order.key(g.leading_term(order)[0])))
    return reduced


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
