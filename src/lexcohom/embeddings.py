"""Lex-segment and Clements-Lindstrom embeddings, and lex-plus-power ideals.

One engine selects, degree by degree, the first ``want`` monomials in
descending lex order of the monomial basis of S = B/b, by rank arithmetic:
it counts bounded monomials and never lists a graded piece.  By the
Clements-Lindstrom theorem (Macaulay's without powers) the shadow of a lex
segment of S is a lex segment, so closure under multiplication is the one
comparison c <= want, Macaulay's growth bound.  Here c - 1 is the rank of
u * x_j, u is the last monomial selected one degree lower and x_j the last
variable u can still be multiplied by in S.

Every embedding of an ideal (``lex_ideal_of``, ``lpp_ideal``,
``epsilon_one``, ``is_embedded``) is certified: it stops only when the
generated ideal has the exact Hilbert series of the input, and it refuses,
with the ``ResourceLimitError`` of ``hilbert.NUMERATOR_DEGREE_LIMIT``, an
answer whose certificate that limit would refuse.  ``cl_embed`` and
``lex_segment_ideal`` take explicit dims and the shadow theorem on trust.
The properties of the extended embedding along z (z-stability, embedded
components) are theorems that the lemma suite of ``verify`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Monomial, MonomialIdeal, RingContext, _ring_dims
from .errors import NotAttainableError, NotOSequenceError, ResourceLimitError
from .hilbert import NUMERATOR_DEGREE_LIMIT, hilbert_series


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of a degreewise lex-first embedding.

    ``lex_ideal_in_B`` is generated by the selected basis monomials viewed in
    the plain polynomial ring (for a context without powers this is the
    classical lex-segment ideal); ``image_in_S`` is lex_ideal_in_B plus the
    power generators, minimized.
    """

    lex_ideal_in_B: MonomialIdeal
    image_in_S: MonomialIdeal
    quotient_dims: tuple[int, ...]  # achieved quotient Hilbert window


def _rank(e: tuple[int, ...], bounds, count) -> int:
    """Number of basis monomials of degree sum(e) before e in descending lex.

    ``count[i][t]`` is the number of basis monomials of degree t in the
    variables i..n-1.
    """
    r, rem = 0, sum(e)
    for i, ei in enumerate(e[:-1]):
        top = rem if bounds[i] is None else min(rem, bounds[i])
        r += sum(count[i + 1][rem - a] for a in range(ei + 1, top + 1))
        rem -= ei
    return r


def _unrank(k: int, d: int, bounds, count) -> tuple[int, ...]:
    """The basis monomial of degree d with rank k in descending lex."""
    e, rem = [], d
    for i in range(len(bounds) - 1):
        a = rem if bounds[i] is None else min(rem, bounds[i])
        while k >= count[i + 1][rem - a]:
            k -= count[i + 1][rem - a]
            a -= 1
        e.append(a)
        rem -= a
    return tuple(e) + (rem,)


def _shadow_end(u: tuple[int, ...], bounds) -> tuple[int, ...] | None:
    """The lex-last monomial of the shadow of u in S: u * x_j for the last
    variable x_j that u can still be multiplied by; None when u is the socle
    monomial of S."""
    for j in reversed(range(len(u))):
        if bounds[j] is None or u[j] < bounds[j]:
            return u[:j] + (u[j] + 1,) + u[j + 1:]
    return None


def _engine(ctx: RingContext, dims, fail: type[Exception]):
    """Degree-by-degree lex-first selection, yielding each degree's new
    generators.

    ``dims`` yields the requested dim of the ideal inside S_d (the
    bounded monomial basis when the context has powers) for d = 0, 1, ...
    A dim above dim S_d, or below the shadow of the previous degree's
    selection, raises ``fail``.

    The generators come out minimal and in canonical order (ascending
    degree, descending lex inside one), so the callers build their ideals
    without ``minimalize``.  Each new generator has rank >= c, so it lies
    outside the shadow of the previous degree's selection; every selection
    holds the shadow of the one before, so no earlier generator divides it.
    Inside a degree the ranks ascend, which is descending lex.
    """
    n = ctx.n
    bounds = [ctx.exp_bound(i) for i in range(n)]  # z is never bounded
    end = None  # the last monomial of the shadow of the previous selection

    for d, want in enumerate(dims):
        count = [_ring_dims(n - i, ctx.powers[i:], d) for i in range(n)]
        if want > count[0][d]:
            raise fail(
                f"degree {d}: requested ideal dim {want} exceeds ring dim {count[0][d]}"
            )
        c = 0 if end is None else _rank(end, bounds, count) + 1  # the shadow's size
        if c > want:
            raise fail(
                f"degree {d}: lex-first selection of size {want} is not closed "
                f"under multiplication (needs {c} monomials)"
            )
        yield [Monomial(_unrank(k, d, bounds, count)) for k in range(c, want)]
        end = _shadow_end(_unrank(want - 1, d, bounds, count), bounds) if want else None


def lex_segment_ideal(ctx: RingContext, H) -> MonomialIdeal:
    """The lex-segment ideal of a plain polynomial ring with ideal dims H.

    Raises NotOSequenceError unless the complementary quotient function is
    an O-sequence (Macaulay's criterion) or that of the zero ring, whose lex
    ideal is the unit ideal.
    """
    if ctx.powers:
        raise ValueError("lex_segment_ideal expects a context without powers")
    return MonomialIdeal(ctx, tuple(
        g for new in _engine(ctx, tuple(H), NotOSequenceError) for g in new))


def cl_embed(ctx: RingContext, H) -> EmbeddingResult:
    """Clements-Lindstrom embedding: lex-first selection inside S = B/b."""
    dims = tuple(H)
    gens = tuple(g for new in _engine(ctx, dims, NotAttainableError) for g in new)
    ctx_B = RingContext(ctx.n, ctx.char, (), ctx.z)
    qdims = tuple(ctx.dim(d) - dims[d] for d in range(len(dims)))
    image = MonomialIdeal(ctx, gens).plus_powers()
    return EmbeddingResult(MonomialIdeal(ctx_B, gens), image, qdims)


def lex_ideal_of(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as I (no powers)."""
    if I.ctx.powers:
        raise ValueError("lex_ideal_of expects a context without powers")
    return _embed_matching_series(I)


def _embed_matching_series(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-first embedding of the preimage I, selected with the ideal
    dims read off the exact Hilbert series of I.

    The certificate is the exact series equality of the generated ideal
    with I.  It is checked at the first degree past the generators of I
    that adds no generators, and after that only at the first such degree
    following one that adds some.  A selection that has stopped gaining
    generators and has the series of I is final, because m times a lex
    segment is again a lex segment (Macaulay; Clements-Lindstrom in
    S = B/b).  Without powers the first check holds: by Gotzmann
    persistence the lex ideal has no generators past that degree.

    The loop needs no degree beyond NUMERATOR_DEGREE_LIMIT + 1.  Let G be
    the top generator degree of the answer and top that of I.  From degree
    G on the selection generates the answer, so the loop certifies at
    degree max(G, top) + 1 at the latest.  Here top <= the limit, because
    ``hilbert_series(I)`` has passed and the lcm degree of I is at least
    top.  A generator above the limit puts the lcm degree of the answer
    above it, and ``hilbert_series`` would refuse the certificate anyway.
    So a loop that ends uncertified raises that limit's error.
    """
    ctx = I.ctx
    series = hilbert_series(I)
    top = I.max_gen_degree()
    last = NUMERATOR_DEGREE_LIMIT + 1
    dims = (ctx.dim(d) - series.value(d) for d in range(last + 1))
    gens: list[Monomial] = []
    grew = True  # generators were added since the last check
    for d, new in enumerate(_engine(ctx, dims, NotAttainableError)):
        gens.extend(new)
        if new:
            grew = True
        elif grew and d > top:
            grew = False
            out = MonomialIdeal(ctx, tuple(gens)).plus_powers()
            if hilbert_series(out).numer == series.numer:
                return out
    raise ResourceLimitError(
        f"no certified embedding by degree {last}: its generators pass "
        f"hilbert.NUMERATOR_DEGREE_LIMIT = {NUMERATOR_DEGREE_LIMIT}"
    )


def lpp_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-plus-power ideal with the Hilbert function of I (b <= I).

    The result is L + b minimized, certified by an exact rational Hilbert
    series equality.
    """
    ctx = I.ctx
    if not ctx.powers:
        raise ValueError("lpp_ideal expects a context with powers")
    b = ctx.powers_ideal()
    if not I.contains_ideal(b):
        raise ValueError("the ideal must contain the pure-power generators")
    return _embed_matching_series(I)


def epsilon_one(I: MonomialIdeal) -> MonomialIdeal:
    """Extended embedding on S[z]: lex-first selection one variable up.

    The result is stable under the last variable with embedded components;
    ``verify.verify_embedding_lemmas`` checks both.
    """
    if not I.ctx.z:
        raise ValueError("epsilon_one expects a context with z")
    return _embed_matching_series(I.plus_powers())


def is_embedded(J: MonomialIdeal) -> bool:
    """True iff the lex-first embedding of J + b returns J + b itself."""
    P = J.plus_powers()
    return _embed_matching_series(P) == P
