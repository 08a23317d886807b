"""Lex-segment and Clements-Lindstrom embeddings, and lex-plus-power ideals.

The central engine selects, degree by degree, the lex-first monomials of the
quotient basis matching a requested ideal Hilbert function, and checks at
runtime that the selection closes into an ideal.  That check turns the
classical Macaulay/Clements-Lindstrom theorems from trusted input into
verified invariants: for genuine Hilbert functions it can never fail.
``cl_embed`` and ``lex_segment_ideal`` run it over explicit dims; the
embeddings of an ideal read the dims off its exact Hilbert series and stop
once the generated ideal has that series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Monomial, MonomialIdeal, RingContext, graded_piece_dim, minimalize
from .errors import NotAnIdealError, NotAttainableError, NotOSequenceError
from .hilbert import HilbertFunctionSpec, hilbert_series, is_O_sequence


def embedding_horizon(ctx: RingContext, max_gen_degree: int) -> int:
    """A construction depth for an ideal generated up to max_gen_degree.

    Embedded ideals can need generators well past it: ``lexcohom lex``
    truncates here, and the certified embeddings stop by 32 times it.
    """
    return sum(d - 1 for d in ctx.powers) + max_gen_degree + 2


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


def _values(H) -> tuple[int, ...]:
    if isinstance(H, HilbertFunctionSpec):
        return H.values
    return tuple(H)


def _engine(ctx: RingContext, ideal_dims, strict_ideal_check: bool):
    """Degree-by-degree lex-first selection, yielding each degree's new
    generators.

    ``ideal_dims`` yields the requested dim of the ideal inside S_d (the
    bounded monomial basis when the context has powers) for d = 0, 1, ...
    On failure raises NotAttainableError, or NotAnIdealError when
    ``strict_ideal_check`` marks a closure failure as impossible-by-theorem.
    """
    prev_sel: set[tuple[int, ...]] = set()
    bounds = [ctx.exp_bound(i) for i in range(ctx.n)]
    if ctx.z:
        bounds[-1] = None
    fail = NotAnIdealError if strict_ideal_check else NotAttainableError

    for d, want in enumerate(ideal_dims):
        s_basis = [m.exps for m in ctx.monomials(d, bounded=True)]
        closure = set()
        for e in prev_sel:
            for i in range(ctx.n):
                if bounds[i] is not None and e[i] + 1 > bounds[i]:
                    continue
                closure.add(tuple(x + 1 if k == i else x for k, x in enumerate(e)))
        if want > len(s_basis):
            raise NotAttainableError(
                f"degree {d}: requested ideal dim {want} exceeds ring dim {len(s_basis)}"
            )
        sel = s_basis[:want]
        sel_set = set(sel)
        if not closure <= sel_set:
            raise fail(
                f"degree {d}: lex-first selection of size {want} is not closed "
                f"under multiplication (needs {len(closure)} monomials)"
            )
        yield [Monomial(e) for e in sel if e not in closure]
        prev_sel = sel_set


def lex_segment_ideal(ctx: RingContext, H) -> MonomialIdeal:
    """The lex-segment ideal of a plain polynomial ring with ideal dims H.

    Raises NotOSequenceError when the complementary quotient function
    violates Macaulay growth.
    """
    if ctx.powers:
        raise ValueError("lex_segment_ideal expects a context without powers")
    dims = _values(H)
    qdims = [ctx.dim(d) - dims[d] for d in range(len(dims))]
    if any(q < 0 for q in qdims):
        raise NotOSequenceError("ideal dims exceed the ring dimensions")
    if qdims and qdims[0] == 0:
        if any(qdims):
            raise NotOSequenceError("the zero ring cannot grow back")
        return MonomialIdeal.unit(ctx)
    if not is_O_sequence(qdims, ctx.n):
        raise NotOSequenceError(f"quotient dims {tuple(qdims)} violate Macaulay growth")
    gens = [g for new in _engine(ctx, dims, strict_ideal_check=True) for g in new]
    return minimalize(ctx, gens)


def cl_embed(ctx: RingContext, H) -> EmbeddingResult:
    """Clements-Lindstrom embedding: lex-first selection inside S = B/b."""
    dims = _values(H)
    gens = [g for new in _engine(ctx, dims, strict_ideal_check=False) for g in new]
    ctx_B = RingContext(ctx.n, ctx.char, (), ctx.z)
    qdims = tuple(ctx.dim(d) - dims[d] for d in range(len(dims)))
    image = minimalize(ctx, gens).plus_powers()
    return EmbeddingResult(minimalize(ctx_B, gens), image, qdims)


def ideal_dims(I: MonomialIdeal, upto: int) -> HilbertFunctionSpec:
    """Hilbert function of I inside S (bounded basis) on degrees 0..upto."""
    return HilbertFunctionSpec(
        tuple(graded_piece_dim(I, d) for d in range(upto + 1))
    )


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
    """
    ctx = I.ctx
    series = hilbert_series(I)
    top = I.max_gen_degree()
    last = 32 * embedding_horizon(ctx, top) + 1
    dims = (ctx.dim(d) - series.value(d) for d in range(last + 1))
    gens: list[Monomial] = []
    grew = True  # generators were added since the last check
    for d, new in enumerate(_engine(ctx, dims, strict_ideal_check=False)):
        gens.extend(new)
        if new:
            grew = True
        elif grew and d > top:
            grew = False
            out = minimalize(ctx, gens).plus_powers()
            if hilbert_series(out).numer == series.numer:
                return out
    raise NotAttainableError(
        f"no embedded ideal with the requested Hilbert series by degree {last} (bug?)"
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


def epsilon_one(I: MonomialIdeal, check: bool = True) -> MonomialIdeal:
    """Extended embedding on S[z]: lex-first selection one variable up.

    The result is stable under the last variable with embedded components;
    both properties are asserted when ``check`` is set.
    """
    from . import zstable  # deferred: zstable does not import back

    ctx = I.ctx
    if not ctx.z:
        raise ValueError("epsilon_one expects a context with z")
    out = _embed_matching_series(I.plus_powers())
    if check:
        dec = zstable.z_decompose(out)
        if not zstable.is_z_stable(dec):
            raise NotAnIdealError("extended embedding produced a non-z-stable ideal")
        for comp in dec.components:
            if not is_embedded(comp):
                raise NotAnIdealError("extended embedding has a non-embedded component")
    return out


def is_embedded(J: MonomialIdeal) -> bool:
    """True iff the lex-first embedding of J + b returns J + b itself."""
    P = J.plus_powers()
    return _embed_matching_series(P) == P
