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
  is the power ideal's prod (1 - t^di), a lazy product that
  ``hilbert.ideal_stream`` reads degree by degree.
* All values are immutable and safe to share between threads.

Where monomials are validated: an ideal holds its generators as exponent
tuples, and ``Monomial.__post_init__`` checks every Monomial, each built
where input enters the package: by the parser, by ``RingContext.monomials``,
``variable`` and ``one``, by the validated methods ``Monomial.mul``, ``lcm``
and ``colon``, and by user code, whose Monomials ``MonomialIdeal.make``
takes.  So each monomial is checked once.  The power ideal of a context
checks its power generators once per context.  Past that boundary the
ideal operations (``ideal_sum``, ``ideal_product``,
``ideal_intersection``, ``colon``, ``saturate``, and the chains of
``zstable``) and the embeddings' engine work on exponent tuples, the
intersection, sum and colon through the antichain kernels, and build their
results with the raw constructor ``MonomialIdeal(ctx, exps)``, which checks
nothing.  Their exponents are in range by construction: a generator of an
input, an lcm, a colon, a saturation, a product whose coordinate maxima
were checked against ``limits.EXPONENT_LIMIT``, removing z, appending a
z-degree taken from the input, a product by a variable in a stabilization
round, whose chains ``limits.NUMERATOR_DEGREE_LIMIT`` bounds, or a
lex-first selection, whose exponents are at most its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _lex_walk(caps, d: int, after=None):
    """The exponent tuples of degree d with e_i <= caps[i], in descending lex:
    from the lex-first one, or from the one after ``after`` (itself such a
    tuple).  Each step to the next tuple takes O(n) work and no recursion.
    """
    n = len(caps)
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

    if after is None:
        fill(0, d)
        yield tuple(e)
    else:
        e[:] = after
    while True:
        # lower the last exponent whose followers can take one more degree,
        # and refill the followers lex-first
        tail = 0
        for i in range(n - 2, -1, -1):
            tail += e[i + 1]
            if e[i] and tail < room[i + 1]:
                e[i] -= 1
                fill(i + 1, tail + 1)
                break
        else:
            return
        yield tuple(e)


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
        (exponents below the power bounds); z is never bounded.
        """
        caps = [d] * self.n
        if bounded:
            caps[:self.r] = [min(di - 1, d) for di in self.powers]
        return map(Monomial, _lex_walk(caps, d))

    @memos.memo(memos.CONTEXT_MEMO_SIZE)
    def powers_ideal(self) -> "MonomialIdeal":
        """The power ideal b = (x1^d1, ..., xr^dr), built once per context.

        The generators are already the canonical antichain: the degrees
        ascend, and equal degrees list x_i before x_{i+1}.
        """
        exps = []
        for i, di in enumerate(self.powers):
            e = [0] * self.n
            e[i] = di
            exps.append(Monomial(tuple(e)).exps)  # a power past the exponent limit raises
        return MonomialIdeal(self, tuple(exps))

    @memos.memo(memos.CONTEXT_MEMO_SIZE)
    def max_ideal(self) -> "MonomialIdeal":
        """The maximal ideal (x1, ..., xn), built once per context.

        The variables in order are already the canonical antichain: one
        degree, descending lex.
        """
        return MonomialIdeal(self, tuple(self.variable(i).exps for i in range(self.n)))

    def variable(self, i: int) -> "Monomial":
        e = [0] * self.n
        e[i] = 1
        return Monomial(tuple(e))

    def one(self) -> "Monomial":
        return Monomial((0,) * self.n)


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


def _grlex_sorted(exps) -> list[tuple[int, ...]]:
    """The exponent vectors in ``_grlex_key`` order.  Two stable sorts give
    that order without a key tuple per vector: lex-descending first, then
    by degree."""
    order = sorted(exps, reverse=True)
    order.sort(key=sum)
    return order


def minimal_exponents(exps) -> tuple[tuple[int, ...], ...]:
    """The divisibility antichain of exponent vectors generating the same
    monomial ideal, in ``_grlex_key`` order."""
    order = _grlex_sorted(exps)
    kept: list[tuple[int, ...]] = []
    for g in order:
        if not _divides_any(kept, g):
            kept.append(g)
    return tuple(kept)


# The antichain kernels take and return canonical antichains (a
# ``MonomialIdeal.exps``); the ideal operations and the rounds of
# ``zstable`` run them.

def antichain_sum(a, b) -> tuple[tuple[int, ...], ...]:
    """The antichain of (a) + (b), ``a`` itself when no generator of b
    survives.  The generators of b that no generator of a divides survive;
    a generator of a survives unless one of those divides it (a generator
    of b that some g of a divides can divide no other generator of a, so a
    shared generator is kept once)."""
    right = [h for h in b if not _divides_any(a, h)]
    if not right:
        return a
    left = [g for g in a if not _divides_any(right, g)]
    return tuple(_grlex_sorted(left + right))


def antichain_intersection(a, b) -> tuple[tuple[int, ...], ...]:
    """The antichain of (a) meet (b): the lcms of the generator pairs."""
    return minimal_exponents([tuple(map(max, g, h)) for g in a for h in b])


def antichain_colon(a, m: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The antichain of (a) : (m): the g / gcd(g, m)."""
    return minimal_exponents([tuple([x - y if x > y else 0 for x, y in zip(g, m)]) for g in a])


def antichain_times_variable(a, j: int) -> tuple[tuple[int, ...], ...]:
    """The antichain of x_{j+1} * (a): the same degree shift for every
    generator keeps the order and the antichain."""
    return tuple(g[:j] + (g[j] + 1,) + g[j + 1:] for g in a)


def _check_length(e: tuple[int, ...], ctx: RingContext):
    if len(e) != ctx.n:
        raise MixedContextError(f"monomial {e} has {len(e)} exponents, context has {ctx.n}")


def minimalize(ctx: RingContext, gens) -> "MonomialIdeal":
    """Divisibility antichain of the Monomials ``gens`` generating the same
    ideal; idempotent."""
    exps = [g.exps for g in gens]
    for e in exps:
        _check_length(e, ctx)
    return _minimal_ideal(ctx, exps)


def _minimal_ideal(ctx: RingContext, exps) -> "MonomialIdeal":
    """The ideal of ``minimal_exponents(exps)``, exponent vectors of length
    ``ctx.n`` in range by construction."""
    return MonomialIdeal(ctx, minimal_exponents(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators, canonically sorted,
    as exponent tuples.

    ``exps`` is the canonical form: a divisibility antichain of exponent
    tuples in grlex order (ascending degree, lex-descending inside one
    degree).  Construct from Monomials through :func:`minimalize` /
    :meth:`make`, which validate nothing more: a Monomial is checked when
    it is built.  The raw constructor ``MonomialIdeal(ctx, exps)`` trusts
    its input to be the canonical form, of length ``ctx.n`` and in range;
    the ideal operations, :meth:`RingContext.powers_ideal`, the embeddings
    and ``zstable`` build ideals that way without re-minimalizing, and rely
    on their inputs holding the invariant.  ``gens`` reads the generators
    as Monomials, built anew on each read and never stored, so a memo that
    holds an ideal holds its tuples alone.

    Equality reads the two fields.  The hash is computed on first use and
    stored on the ideal, so a memo lookup hashes its generators once.

    Five facts read from the ideal are computed on first use and stored on
    it: its text (``text``, which ``ioformat.format_ideal`` and ``str``
    read), its preimage closure (``plus_powers``), its top generator degree
    (``max_gen_degree``), the degreewise tallies of the minimal generators
    of I/b (``generator_tallies``) and its saturation I : m^infinity by the
    maximal ideal (``m_saturation``).  No limit bounds any of them: each
    depends on the context and the generators alone, and none builds an
    exponent above a generator's (a saturation only zeroes exponents and
    takes coordinate maxima) nor runs a recursion, so nothing in them can
    be refused.  A stored fact is therefore right under any limits, also
    after a change of limits has emptied the memos.  They take no part in
    equality or hashing.
    """

    ctx: RingContext
    exps: tuple[tuple[int, ...], ...]

    def __hash__(self):
        stored = self.__dict__  # where the cached facts are stored too
        h = stored.get("_hash")
        if h is None:
            h = stored["_hash"] = hash((self.ctx, self.exps))
        return h

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The generators as Monomials, built on each read."""
        return tuple(map(Monomial, self.exps))

    @staticmethod
    def make(ctx: RingContext, gens) -> "MonomialIdeal":
        return minimalize(ctx, gens)

    @staticmethod
    def zero(ctx: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ctx, ())

    @staticmethod
    def unit(ctx: RingContext) -> "MonomialIdeal":
        return MonomialIdeal(ctx, (ctx.one().exps,))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def is_unit(self) -> bool:
        return bool(self.exps) and not any(self.exps[0])

    def max_gen_degree(self) -> int:
        """Top degree of a minimal generator, 0 for the zero ideal."""
        return self._top_degree

    @cached_property
    def _top_degree(self) -> int:
        return max(map(sum, self.exps), default=0)

    def contains(self, m: Monomial) -> bool:
        _check_length(m.exps, self.ctx)
        return _divides_any(self.exps, m.exps)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        if other.exps:  # every generator of other has the first one's length
            _check_length(other.exps[0], self.ctx)
        return all(_divides_any(self.exps, e) for e in other.exps)

    @cached_property
    def _closure(self) -> "MonomialIdeal | None":
        """``ideal_sum`` with the power ideal, or None when that is the
        ideal itself: storing the ideal on itself would make a cycle."""
        closure = ideal_sum(self, self.ctx.powers_ideal())
        return None if closure is self else closure

    def plus_powers(self) -> "MonomialIdeal":
        """Preimage closure: the ideal plus the context's power generators,
        found once per ideal.  It is the ideal itself (the same object)
        exactly when the ideal is a preimage, one that holds every power
        generator: ``ideal_sum`` returns its first argument when no
        generator of the second survives."""
        if not self.ctx.powers:
            return self
        closure = self._closure
        return self if closure is None else closure

    @cached_property
    def generator_tallies(self) -> tuple[int, ...]:
        """Degreewise counts of minimal generators of the quotient-ring
        ideal I/b, on degrees 0 to the top generator degree of I + b: the
        minimal generators of I + b outside b, which are all but the power
        generators x_i^{d_i}.  This holds for every I, also for one that
        does not contain b.  Found once per ideal."""
        closure = self.plus_powers()
        powers = set(self.ctx.powers_ideal().exps)
        tallies = [0] * (closure.max_gen_degree() + 1)
        for e in closure.exps:
            if e not in powers:
                tallies[sum(e)] += 1
        return tuple(tallies)

    @cached_property
    def m_saturation(self) -> "MonomialIdeal":
        """I : m^infinity, the ``saturate`` of I by the maximal ideal of its
        context, found once per ideal."""
        return saturate(self, self.ctx.max_ideal())

    @cached_property
    def text(self) -> str:
        """The generators in ``format_term`` form, comma-separated, or "0"
        for the zero ideal; built once per ideal."""
        names = self.ctx.var_names()
        return ", ".join(format_term(names, e, 1) for e in self.exps) or "0"

    def __str__(self):
        return f"({self.text})"


def _same_ctx(I: MonomialIdeal, J: MonomialIdeal):
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I + J by ``antichain_sum``: I itself when no generator of J survives."""
    _same_ctx(I, J)
    out = antichain_sum(I.exps, J.exps)
    return I if out is I.exps else MonomialIdeal(I.ctx, out)


def ideal_product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I * J from the sums of the generators' exponent vectors.

    Some product passes ``limits.EXPONENT_LIMIT``, minimal or not, exactly
    when the coordinatewise maxima of the two generator sets add up past
    it; then the validated products raise OverflowError at the first one.
    """
    _same_ctx(I, J)
    iexps, jexps = I.exps, J.exps
    if iexps and jexps:
        top = max(map(add, map(max, zip(*iexps)), map(max, zip(*jexps))))
        if top > limits.EXPONENT_LIMIT:
            for a in I.gens:
                for b in J.gens:
                    a.mul(b)  # the validated product raises at the first overflow
    return _minimal_ideal(I.ctx, [tuple(map(add, a, b)) for a in iexps for b in jexps])


def ideal_intersection(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I meet J by ``antichain_intersection``."""
    _same_ctx(I, J)
    return MonomialIdeal(I.ctx, antichain_intersection(I.exps, J.exps))


def colon(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The quotient ideal I : (m) by ``antichain_colon``."""
    _check_length(m.exps, I.ctx)
    return MonomialIdeal(I.ctx, antichain_colon(I.exps, m.exps))


def saturate(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J^infinity, the intersection over the generators g of J of
    I : g^infinity, which sets the exponents on supp(g) to 0 in every
    generator of I.  A zero J gives the unit ideal.

    J^k contains (g_1^k, ..., g_r^k) and J^{rk} lies inside it, so both
    powers give the same saturation, and I : (g_1^k, ..., g_r^k) is the
    intersection of the I : g_t^k.

    The intersection runs on exponent tuples, by ``antichain_intersection``
    at each step.
    """
    _same_ctx(I, J)
    lcms = ((0,) * I.ctx.n,)  # the unit ideal, the answer for a zero J
    for g in J.exps:
        part = minimal_exponents(tuple([0 if s else e for e, s in zip(h, g)]) for h in I.exps)
        lcms = antichain_intersection(lcms, part)
    return MonomialIdeal(I.ctx, lcms)
