"""Lex-segment and Clements-Lindstrom embeddings, and lex-plus-power ideals.

One engine selects, degree by degree, the first ``want`` monomials in
descending lex order of the monomial basis of S = B/b, and never lists a
graded piece: it computes one rank per degree, that of the shadow's last
monomial, and steps from there to each new generator by the lex successor
of ``core._lex_walk``, the walk behind ``RingContext.monomials``.  The rank
is read off the dims of the suffix rings of S, in one table that grows by a
degree at a time; the ideal dims wanted by the callers are read off the
lazy stream of the difference of numerators (``hilbert.ideal_stream``), as
every Hilbert function is.  By the Clements-Lindstrom theorem (Macaulay's
without powers) the shadow of a lex segment of S is a lex segment, so
closure under multiplication is the one comparison c <= want, Macaulay's
growth bound.  Here c - 1 is the rank of u * x_j, u is the last monomial
selected one degree lower and x_j the last variable u can still be
multiplied by in S.

Every embedding of an ideal (``lex_ideal_of``, ``lpp_ideal``,
``epsilon_one``, ``is_embedded``) is certified: it stops only when the
generated ideal has the exact Hilbert series of the input.  The candidate's
numerator is read off its generators in closed form
(``hilbert._lex_numerator``, Eliahou-Kervaire's numerator extended to the
powers), since its graded pieces are lex segments of S; no certificate
runs the pivot recursion or fills its memo.  The selection stops at
degree ``limits.NUMERATOR_DEGREE_LIMIT + 1``; an embedding not certified by
then is refused with that limit's ``ResourceLimitError``.  The certified
answers are memoized for the whole process, in the memo
``_certified_embedding`` keyed on the Hilbert series.
``lex_segment_ideal`` takes explicit dims and the shadow theorem on trust.
The properties of the extended embedding along z (z-stability, embedded
components) are theorems that the lemma suite of ``verify`` checks.
"""

from __future__ import annotations

from itertools import islice

from . import limits, memos
from .core import MonomialIdeal, RingContext, _lex_walk
from .errors import NotAttainableError
from .hilbert import HilbertSeries, _lex_numerator, hilbert_series, ideal_stream


def _rank(e: tuple[int, ...], count) -> int:
    """Number of basis monomials of degree sum(e) before e in descending lex.

    ``count[i][t]`` is the number of basis monomials of degree t in the
    variables i..n-1.  Those before e that agree with it on the variables
    before i, and so have a larger exponent of x_i, number count[i][rem]
    less the ones whose exponent of x_i is at most e_i, which bounds the
    work by O(n + sum(e)) whether x_i is bounded or free.
    """
    r, rem = 0, sum(e)
    for i, ei in enumerate(e[:-1]):
        r += count[i][rem] - sum(count[i + 1][rem - a] for a in range(ei + 1))
        rem -= ei
    return r


def _shadow_end(u: tuple[int, ...], bounds) -> tuple[int, ...] | None:
    """The lex-last monomial of the shadow of u in S: u * x_j for the last
    variable x_j that u can still be multiplied by; None when u is the socle
    monomial of S."""
    for j in reversed(range(len(u))):
        if bounds[j] is None or u[j] < bounds[j]:
            return u[:j] + (u[j] + 1,) + u[j + 1:]
    return None


def _engine(ctx: RingContext, dims):
    """Degree-by-degree lex-first selection, yielding each degree's new
    generators as a list of exponent tuples.

    ``dims`` yields the requested dim of the ideal inside S_d (the
    bounded monomial basis when the context has powers) for d = 0, 1, ...
    A dim above dim S_d, or below the shadow of the previous degree's
    selection, raises NotAttainableError.

    The generators come out minimal and in canonical order (ascending
    degree, descending lex inside one), so the callers build their ideals
    with the raw ``MonomialIdeal`` constructor, and validate none: an
    exponent is at most its degree, the number of dims read so far, far
    below ``limits.EXPONENT_LIMIT``.  Each new generator has rank >= c, so
    it lies outside the shadow of the previous degree's selection; every
    selection holds the shadow of the one before, so no earlier generator
    divides it.  Inside a degree the ranks ascend, which is descending lex.

    One rank per degree fixes the selection: the shadow's last monomial has
    rank c - 1, so the new generators, of ranks c..want-1, are the
    want - c lex successors of it (from the lex-first monomial when c = 0).

    ``count[i][t]``, the dim in degree t of the ring in the variables i..n-1
    (``count[n]``: no variables), grows by one entry per degree: adding a
    variable with exponents up to b_i sums b_i + 1 shifts, so
    count[i][d] = count[i][d-1] + count[i+1][d] - count[i+1][d-b_i-1],
    the last term only when b_i is finite and d > b_i.
    """
    n = ctx.n
    bounds = [ctx.exp_bound(i) for i in range(n)]  # z is never bounded
    end = None  # the last monomial of the shadow of the previous selection
    count = [[] for _ in range(n + 1)]

    for d, want in enumerate(dims):
        count[n].append(int(d == 0))
        for i in reversed(range(n)):
            dim = count[i + 1][d] + (count[i][d - 1] if d else 0)
            if bounds[i] is not None and d > bounds[i]:
                dim -= count[i + 1][d - bounds[i] - 1]
            count[i].append(dim)
        if want > count[0][d]:
            raise NotAttainableError(
                f"degree {d}: requested ideal dim {want} exceeds ring dim {count[0][d]}"
            )
        c = 0 if end is None else _rank(end, count) + 1  # the shadow's size
        if c > want:
            raise NotAttainableError(
                f"degree {d}: lex-first selection of size {want} is not closed "
                f"under multiplication (needs {c} monomials)"
            )
        caps = [d if b is None else min(b, d) for b in bounds]
        new = list(islice(_lex_walk(caps, d, end), want - c))
        yield new
        last = new[-1] if new else end  # the last monomial selected
        end = None if last is None else _shadow_end(last, bounds)


def lex_segment_ideal(ctx: RingContext, H) -> MonomialIdeal:
    """The lex-first ideal of S = B/b with ideal dims H on degrees 0..len(H)-1,
    as its preimage L + b (without powers, the lex-segment ideal L itself).

    ``H[d]`` is the dim of the ideal inside S_d.  The selection exists
    exactly when the quotient function dim S_d - H[d] is attainable:
    by the Clements-Lindstrom theorem when the context has powers, and by
    Macaulay's criterion (an O-sequence, or the zero ring, whose lex ideal
    is the unit ideal) when it has none.  Otherwise NotAttainableError
    names the first degree at which the selection fails.
    """
    exps = tuple(e for new in _engine(ctx, H) for e in new)
    return MonomialIdeal(ctx, exps).plus_powers()


def lex_ideal_of(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as I (no powers)."""
    if I.ctx.powers:
        raise ValueError("lex_ideal_of expects a context without powers")
    return _embed_matching_series(I)


def _embed_matching_series(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-first embedding of the preimage I: the certified lex-first
    ideal with the Hilbert series of I, read from the memo
    ``_certified_embedding`` keyed on that series.

    Keying on the series alone is sound: a certified answer is an ideal
    whose graded pieces are lex segments (lex-plus-power segments with
    powers) of the dims that the series fixes, and that ideal is unique.
    So the answer depends on the series only, not on I's generators or
    their top degree.
    """
    return _certified_embedding(hilbert_series(I))


@memos.memo(memos.EMBED_MEMO_SIZE)
def _certified_embedding(series: HilbertSeries) -> MonomialIdeal:
    """The lex-first ideal selected with the ideal dims read off
    ``series``, certified by the exact equality of its numerator with
    ``series.numer``.  The candidate's graded pieces are lex segments of S,
    so its numerator is the closed form ``_lex_numerator``, with no pivot
    recursion.

    The certificate is checked at the first degree past the numerator's
    degree that adds no generators, and after that only at the first such
    degree following one that adds some.  A selection that has stopped
    gaining generators and has the given series is final, because m times
    a lex segment is again a lex segment (Macaulay; Clements-Lindstrom in
    S = B/b).

    The selection runs up to degree limits.NUMERATOR_DEGREE_LIMIT + 1, a
    stated bound on the work and on the answer's generator degrees.  Let G
    be the top generator degree of the answer and top the numerator's
    degree.  From degree G on the selection generates the answer, so the
    loop certifies at degree max(G, top) + 1 at the latest: every answer
    with G and top at most the limit is found, and any other is refused
    with that limit's error, naming the degree the loop reached.
    """
    ctx = series.ctx
    top = len(series.numer) - 1
    last = limits.NUMERATOR_DEGREE_LIMIT + 1
    dims = islice(ideal_stream(ctx, series.numer), last + 1)
    exps: list[tuple[int, ...]] = []
    grew = True  # generators were added since the last check
    for d, new in enumerate(_engine(ctx, dims)):
        exps.extend(new)
        if new:
            grew = True
        elif grew and d > top:
            grew = False
            out = MonomialIdeal(ctx, tuple(exps)).plus_powers()
            if _lex_numerator(out) == series.numer:
                return out
    # last is past the limit, so this refuses
    limits.check("NUMERATOR_DEGREE_LIMIT", last, f"no certified embedding by degree {last}")


def lpp_ideal(I: MonomialIdeal) -> MonomialIdeal:
    """The lex-plus-power ideal with the Hilbert function of I (b <= I).

    The result is L + b minimized, certified by an exact rational Hilbert
    series equality.
    """
    ctx = I.ctx
    if not ctx.powers:
        raise ValueError("lpp_ideal expects a context with powers")
    if I.plus_powers() is not I:
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
