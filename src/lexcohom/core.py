"""Ring contexts, exponent-vector monomials and monomial ideals.

Conventions used throughout the package:

* Variables are x1 > x2 > ... > x_{nx} (> z when the context has the
  distinguished last variable).  Lex order always refers to this order.
* A quotient S = B/b by pure powers b = (x1^d1, ..., xr^dr) is never a
  separate ring type: ideals of S are represented by their preimages in B,
  i.e. monomial ideals containing b.  ``RingContext.monomials`` with
  ``bounded=True`` lists the monomial basis of S.  The Hilbert function
  of S itself is read like every other series: S is the tensor product of
  the K[x_i]/(x_i^di) and the free variables, so its numerator over (1-t)^n
  is the power ideal's prod (1 - t^di), built only up to the degree asked
  (``RingContext.powers_numerator``, read by ``series_value``).
* All values are immutable and safe to share between threads.

Where monomials are validated: ``Monomial.__post_init__`` checks every
Monomial built by its public constructor -- by the parser, by
``RingContext.monomials``, ``variable`` and ``one``, by the validated methods
``Monomial.mul``, ``lcm`` and ``colon``, and by user code -- so each
monomial is checked once, where it enters the package.  The ideal
operations (``ideal_product``, ``ideal_intersection``, ``colon``,
``saturate``, and ``z_decompose`` / ``z_recompose`` in ``zstable``) work on
exponent tuples and build their results through :func:`_minimal_ideal`,
the one constructor that skips that check, used only where the exponents
are in range by construction: an lcm, a colon, a saturation, a product
whose coordinate maxima were checked against ``limits.EXPONENT_LIMIT``,
removing z, or appending a z-degree taken from the input.  ``ideal_sum``
builds no monomial: its result keeps the generators of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from math import comb
from operator import add, le

from . import limits, memos
from .errors import MixedContextError

DEFAULT_CHAR = 32003

# Strong-probable-prime bases that decide primality exactly below
# limits.MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@memos.memo(memos.PRIME_MEMO_SIZE)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError at or above
    ``limits.MR_LIMIT``, where it would no longer be a proof (the one limit
    that refuses its own value).  Memoized: every ring context checks its
    characteristic, and a run uses a few."""
    if p >= limits.MR_LIMIT:
        raise ValueError(f"char {p} is not below limits.MR_LIMIT = {limits.MR_LIMIT}, "
                         "the limit of the exact primality test")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingContext:
    """Ambient polynomial ring K[x1..xn] over GF(char), with optional powers.

    ``n`` counts all variables, including the adjoined last variable z when
    ``z=True``.  ``powers`` is the ascending degree sequence (d1, ..., dr) of
    the pure-power ideal on the first r variables; z never carries a power.
    """

    n: int
    char: int = DEFAULT_CHAR
    powers: tuple[int, ...] = ()
    z: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if not _is_prime(self.char):
            raise ValueError(f"char must be prime, got {self.char}")
        object.__setattr__(self, "powers", tuple(self.powers))
        if self.powers:
            if list(self.powers) != sorted(self.powers):
                raise ValueError("powers must be sorted ascending")
            if any(d < 2 for d in self.powers):
                raise ValueError("each power degree must be >= 2")
            if len(self.powers) > self.nx:
                raise ValueError("more powers than non-z variables")

    @property
    def nx(self) -> int:
        """Number of variables excluding z."""
        return self.n - 1 if self.z else self.n

    @property
    def r(self) -> int:
        return len(self.powers)

    def var_names(self) -> tuple[str, ...]:
        names = tuple(f"x{i+1}" for i in range(self.nx))
        return names + ("z",) if self.z else names

    def exp_bound(self, i: int) -> int | None:
        """Largest exponent of variable i allowed in the S-monomial basis."""
        if i < self.r:
            return self.powers[i] - 1
        return None

    def add_z(self) -> "RingContext":
        if self.z:
            raise ValueError("context already has z")
        return RingContext(self.n + 1, self.char, self.powers, z=True)

    @memos.memo(memos.CONTEXT_MEMO_SIZE)
    def drop_z(self) -> "RingContext":
        """The context without z, built (and validated) once per context."""
        if not self.z:
            raise ValueError("context has no z")
        return RingContext(self.n - 1, self.char, self.powers, z=False)

    def monomials(self, d: int, bounded: bool = False):
        """Degree-d monomials in lex-descending order.

        With ``bounded=True`` only the monomial basis of S = B/b is listed
        (exponents below the power bounds); z is never bounded.  Each step
        to the next monomial takes O(n) work and no recursion.
        """
        n = self.n
        caps = [d] * n
        if bounded:
            caps[:self.r] = [min(di - 1, d) for di in self.powers]
        room = [0] * (n + 1)  # room[i]: the most degree variables i.. can hold
        for i in range(n - 1, -1, -1):
            room[i] = room[i + 1] + caps[i]
        if d < 0 or room[0] < d:
            return
        e = [0] * n

        def fill(i, rem):  # the lex-first exponents of variables i.. of degree rem
            for k in range(i, n):
                e[k] = min(caps[k], rem)
                rem -= e[k]

        fill(0, d)
        while True:
            yield Monomial(tuple(e))
            # lower the last exponent whose followers can take one more
            # degree, and refill the followers lex-first
            tail = 0
            for i in range(n - 2, -1, -1):
                tail += e[i + 1]
                if e[i] and tail < room[i + 1]:
                    e[i] -= 1
                    fill(i + 1, tail + 1)
                    break
            else:
                return

    def dim(self, d: int) -> int:
        """dim_K of the degree-d piece of the full ring S (or B if no powers),
        read off the power ideal's numerator as every series is."""
        return series_value(self.powers_numerator(d), self.n, d)

    def powers_numerator(self, upto: int) -> list[int]:
        """The numerator prod (1 - t^di) of Hilb(S) over (1-t)^n, truncated
        at degree upto: a power may be far above every degree asked, so the
        product is never built past it."""
        numer = [1] + [0] * upto
        for di in self.powers:
            numer[di:] = [a - b for a, b in zip(numer[di:], numer)]
        return numer

    @memos.memo(memos.CONTEXT_MEMO_SIZE)
    def powers_ideal(self) -> "MonomialIdeal":
        """The power ideal b = (x1^d1, ..., xr^dr), built once per context.

        The generators are already the canonical antichain: the degrees
        ascend, and equal degrees list x_i before x_{i+1}.
        """
        gens = []
        for i, di in enumerate(self.powers):
            e = [0] * self.n
            e[i] = di
            gens.append(Monomial(tuple(e)))
        return MonomialIdeal(self, tuple(gens))

    @memos.memo(memos.CONTEXT_MEMO_SIZE)
    def max_ideal(self) -> "MonomialIdeal":
        """The maximal ideal (x1, ..., xn), built once per context.

        The variables in order are already the canonical antichain: one
        degree, descending lex.
        """
        return MonomialIdeal(self, tuple(self.variable(i) for i in range(self.n)))

    def variable(self, i: int) -> "Monomial":
        e = [0] * self.n
        e[i] = 1
        return Monomial(tuple(e))

    def one(self) -> "Monomial":
        return Monomial((0,) * self.n)


def series_value(numer, n: int, d: int) -> int:
    """The degree-d coefficient of numer(t) / (1-t)^n."""
    if d < 0:
        return 0
    return sum(c * comb(d - i + n - 1, n - 1) for i, c in enumerate(numer[:d + 1]) if c)


@dataclass(frozen=True)
class Monomial:
    """A monomial as its exponent vector."""

    exps: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")
        limit = limits.EXPONENT_LIMIT
        if any(e > limit for e in self.exps):
            raise OverflowError(f"exponent overflow in {self.exps}")

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def divides(self, other: "Monomial") -> bool:
        if len(self.exps) != len(other.exps):
            raise MixedContextError(
                f"cannot compare {self.exps} with {other.exps}: lengths differ"
            )
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(map(max, self.exps, other.exps)))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def colon(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other) -- the generator of (self) : (other)."""
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exps, other.exps)))


def format_term(names, exps, coeff: int) -> str:
    """``coeff*x1^a1*...`` in the given variable names; the coefficient 1 is
    left out and a constant term prints as its coefficient."""
    mon = "*".join(
        names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e > 0
    )
    if not mon:
        return str(coeff)
    return mon if coeff == 1 else f"{coeff}*{mon}"


def _grlex_key(e: tuple[int, ...]):
    """Sort key of an exponent vector: ascending degree, lex-descending
    inside a degree."""
    return (sum(e), tuple(-x for x in e))


def _divides_any(exps, e: tuple[int, ...]) -> bool:
    """Whether some exponent vector of ``exps`` divides ``e``."""
    for h in exps:
        if all(map(le, h, e)):
            return True
    return False


def minimal_exponents(exps) -> tuple[tuple[int, ...], ...]:
    """The divisibility antichain of exponent vectors generating the same
    monomial ideal, in ``_grlex_key`` order.

    Two stable sorts give that order without a key tuple per vector:
    lex-descending first, then by degree.
    """
    order = sorted(exps, reverse=True)
    order.sort(key=sum)
    kept: list[tuple[int, ...]] = []
    for g in order:
        if not _divides_any(kept, g):
            kept.append(g)
    return tuple(kept)


def minimalize(ctx: RingContext, gens) -> "MonomialIdeal":
    """Divisibility antichain generating the same ideal; idempotent."""
    by_exps = {g.exps: g for g in gens}
    for e in by_exps:
        if len(e) != ctx.n:
            raise MixedContextError(
                f"monomial {e} has {len(e)} exponents, context has {ctx.n}"
            )
    return MonomialIdeal(ctx, tuple(by_exps[e] for e in minimal_exponents(by_exps)))


def _minimal_ideal(ctx: RingContext, exps) -> "MonomialIdeal":
    """The ideal of ``ctx`` generated by exponent vectors that are in range
    by construction, each of length ``ctx.n``: ``minimal_exponents`` once,
    and one Monomial per minimal generator.

    The one place that builds a Monomial without ``Monomial.__post_init__``;
    the module docstring lists the operations that may call it.
    """
    gens = []
    for e in minimal_exponents(exps):
        g = object.__new__(Monomial)
        object.__setattr__(g, "exps", e)
        gens.append(g)
    return MonomialIdeal(ctx, tuple(gens))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators, canonically sorted.

    Construct through :func:`minimalize` / :meth:`make`.  The raw
    constructor trusts its input to be the canonical form: a divisibility
    antichain in grlex order (ascending degree, lex-descending inside one
    degree).  :func:`ideal_sum`, :meth:`RingContext.powers_ideal` and
    ``zstable.z_decompose`` build ideals that way without re-minimalizing,
    and rely on their inputs holding the invariant.
    """

    ctx: RingContext
    gens: tuple[Monomial, ...]

    @staticmethod
    def make(ctx: RingContext, gens) -> "MonomialIdeal":
        return minimalize(ctx, gens)

    @staticmethod
    def zero(ctx: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ctx, ())

    @staticmethod
    def unit(ctx: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ctx, (ctx.one(),))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].degree == 0

    def max_gen_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def contains(self, m: Monomial) -> bool:
        e = m.exps
        if len(e) != self.ctx.n:
            raise MixedContextError(
                f"monomial {e} has {len(e)} exponents, context has {self.ctx.n}"
            )
        # Monomial.divides inlined: every generator has the context's length
        for g in self.gens:
            if all(map(le, g.exps, e)):
                return True
        return False

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def plus_powers(self) -> "MonomialIdeal":
        """Preimage closure: the ideal plus the context's power generators."""
        if not self.ctx.powers:
            return self
        return ideal_sum(self, self.ctx.powers_ideal())

    def __str__(self):
        names = self.ctx.var_names()
        terms = ", ".join(format_term(names, g.exps, 1) for g in self.gens)
        return f"({terms or '0'})"


def _same_ctx(I: MonomialIdeal, J: MonomialIdeal):
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I + J from two canonical antichains, without ``minimalize``.

    The generators of J that no generator of I divides survive.  A
    generator of I survives unless one of those divides it: a generator of
    J that some g of I divides can divide no other generator of I, so a
    shared generator is kept once.  The survivors merge in grlex order.
    """
    _same_ctx(I, J)
    iexps = [g.exps for g in I.gens]
    right = [h for h in J.gens if not _divides_any(iexps, h.exps)]
    if not right:
        return I
    rexps = [h.exps for h in right]
    left = [g for g in I.gens if not _divides_any(rexps, g.exps)]
    return MonomialIdeal(I.ctx, tuple(merge(left, right, key=lambda g: _grlex_key(g.exps))))


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I * J from the sums of the generators' exponent vectors.

    Some product passes ``limits.EXPONENT_LIMIT``, minimal or not, exactly
    when the coordinatewise maxima of the two generator sets add up past
    it; then the validated products raise OverflowError at the first one.
    """
    _same_ctx(I, J)
    iexps = [a.exps for a in I.gens]
    jexps = [b.exps for b in J.gens]
    if iexps and jexps:
        top = max(map(add, map(max, zip(*iexps)), map(max, zip(*jexps))))
        if top > limits.EXPONENT_LIMIT:
            for a in I.gens:
                for b in J.gens:
                    a.mul(b)  # the validated product raises at the first overflow
    return _minimal_ideal(I.ctx, [tuple(map(add, a, b)) for a in iexps for b in jexps])


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I meet J, generated by the lcms of the generator pairs."""
    _same_ctx(I, J)
    jexps = [b.exps for b in J.gens]
    return _minimal_ideal(I.ctx, [tuple(map(max, a.exps, b)) for a in I.gens for b in jexps])


def colon(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The quotient ideal I : (m), generated by the g / gcd(g, m)."""
    e = m.exps
    if len(e) != I.ctx.n:
        raise MixedContextError(f"monomial {e} has {len(e)} exponents, context has {I.ctx.n}")
    return _minimal_ideal(I.ctx, [tuple([a - b if a > b else 0 for a, b in zip(g.exps, e)])
                                  for g in I.gens])


def saturate(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J^infinity, the intersection over the generators g of J of
    I : g^infinity, which sets the exponents on supp(g) to 0 in every
    generator of I.  A zero J gives the unit ideal.

    J^k contains (g_1^k, ..., g_r^k) and J^{rk} lies inside it, so both
    powers give the same saturation, and I : (g_1^k, ..., g_r^k) is the
    intersection of the I : g_t^k.

    The intersection runs on exponent tuples, minimalized at each step,
    and only its minimal generators become Monomials.
    """
    _same_ctx(I, J)
    lcms = [(0,) * I.ctx.n]  # the unit ideal, the answer for a zero J
    for g in J.gens:
        support = g.exps
        part = minimal_exponents(tuple([0 if s else e for e, s in zip(h.exps, support)])
                                 for h in I.gens)
        lcms = [tuple(map(max, a, b)) for a in minimal_exponents(lcms) for b in part]
    return _minimal_ideal(I.ctx, lcms)

