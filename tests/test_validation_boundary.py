"""The ideal operations work on exponent tuples and validate no monomial
again: each equals its validated reference, keeps the refusals of the
validated code, and runs ``Monomial.__post_init__`` only where a monomial
enters the package."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom.core import (Monomial, MonomialIdeal, RingContext, colon, ideal_intersection,
                           ideal_product, ideal_sum, minimalize, saturate)
from lexcohom.errors import MixedContextError
from lexcohom.limits import EXPONENT_LIMIT
from lexcohom.zstable import ZGradedIdeal, distraction_initial, z_decompose, z_recompose

from conftest import (ref_colon, ref_ideal_intersection, ref_ideal_product, ref_ideal_sum,
                      ref_saturate_by_parts, ref_z_decompose, ref_z_recompose)


def M(*exps):
    return Monomial(tuple(exps))


def count_validations(monkeypatch) -> list:
    """Record every run of ``Monomial.__post_init__`` from now on."""
    calls = []
    check = Monomial.__post_init__

    def counted(self):
        calls.append(self.exps)
        check(self)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    return calls


@st.composite
def contexts(draw):
    """n = 1..4 variables in all, with or without powers and z."""
    n = draw(st.integers(1, 4))
    z = n > 1 and draw(st.booleans())
    nx = n - z
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers)
    return ctx.add_z() if z else ctx


def ideals(draw, ctx):
    """A random canonical ideal of ``ctx``, or the zero, unit, power or
    maximal ideal."""
    kind = draw(st.sampled_from(["random", "random", "random", "zero", "unit", "powers", "max"]))
    if kind == "random":
        exps = st.tuples(*[st.integers(0, 3)] * ctx.n)
        return minimalize(ctx, [Monomial(e) for e in draw(st.lists(exps, max_size=6))])
    return {"zero": MonomialIdeal.zero, "unit": MonomialIdeal.unit,
            "powers": RingContext.powers_ideal, "max": RingContext.max_ideal}[kind](ctx)


@st.composite
def ideal_pairs(draw):
    ctx = draw(contexts())
    return ideals(draw, ctx), ideals(draw, ctx)


@st.composite
def ideal_and_monomial(draw):
    ctx = draw(contexts())
    return ideals(draw, ctx), Monomial(draw(st.tuples(*[st.integers(0, 3)] * ctx.n)))


@st.composite
def z_preimages(draw):
    """A preimage (it holds the power generators) in a context with z."""
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    return ideals(draw, ctx).plus_powers()


@st.composite
def chains(draw):
    """Components of R, in any order: not always a growing chain."""
    ctx_R = draw(contexts().filter(lambda c: not c.z))
    comps = tuple(ideals(draw, ctx_R) for _ in range(draw(st.integers(1, 4))))
    return ZGradedIdeal(ctx_R.add_z(), comps)


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
def test_binary_operations_match_the_validated_references(pair):
    I, J = pair
    assert ideal_product(I, J).gens == ref_ideal_product(I, J).gens
    assert ideal_intersection(I, J).gens == ref_ideal_intersection(I, J).gens
    assert saturate(I, J).gens == ref_saturate_by_parts(I, J).gens
    assert ideal_sum(I, J).gens == ref_ideal_sum(I, J).gens


@settings(max_examples=200, deadline=None)
@given(ideal_and_monomial())
def test_colon_matches_the_validated_reference(pair):
    I, m = pair
    assert colon(I, m).gens == ref_colon(I, m).gens


@settings(max_examples=200, deadline=None)
@given(z_preimages())
def test_z_decompose_and_recompose_match_the_validated_references(I):
    dec = z_decompose(I)
    assert [c.gens for c in dec.components] == \
        [c.gens for c in ref_z_decompose(I).components]
    assert z_recompose(dec).gens == ref_z_recompose(dec).gens == I.gens


@settings(max_examples=200, deadline=None)
@given(chains())
def test_z_recompose_of_any_chain_matches_the_validated_reference(Z):
    assert z_recompose(Z).gens == ref_z_recompose(Z).gens


def test_a_product_past_the_limit_is_refused_even_when_it_is_not_minimal():
    # (x1*x3^L) * (x2*x3) = x1*x2*x3^(L+1) passes the limit, and x2 * x1
    # divides it, so it is no minimal generator of the product; with x2^5
    # in J the overflowing pair is not the last generators of the two
    L = EXPONENT_LIMIT
    ctx = RingContext(3)
    I = MonomialIdeal.make(ctx, [M(0, 1, 0), M(1, 0, L)])
    for J in (MonomialIdeal.make(ctx, [M(1, 0, 0), M(0, 1, 1)]),
              MonomialIdeal.make(ctx, [M(1, 0, 0), M(0, 1, 1), M(0, 5, 0)])):
        for A, B in ((I, J), (J, I)):
            with pytest.raises(OverflowError, match="exponent overflow"):
                ideal_product(A, B)
            with pytest.raises(OverflowError):
                ref_ideal_product(A, B)
    # at the limit itself the product is built
    top = MonomialIdeal.make(ctx, [M(0, 0, L - 1)])
    assert ideal_product(top, MonomialIdeal.make(ctx, [M(0, 0, 1)])).gens == (M(0, 0, L),)


def test_a_distraction_past_the_limit_is_refused():
    # x1^L z in K[x1, x2][z]: the walk multiplies component 1 by x1, which
    # passes the limit, while the product by x2 stays at it; the walk runs
    # on exponent tuples, so the products are validated before it
    L = EXPONENT_LIMIT
    Z = z_decompose(MonomialIdeal.make(RingContext(2).add_z(), [M(L, 0, 1)]))
    with pytest.raises(OverflowError, match=rf"exponent overflow in \({L + 1}, 0\)"):
        distraction_initial(Z, 1, 0)
    assert [c.gens for c in distraction_initial(Z, 1, 1).components] == [(M(L, 1),)]


def test_public_construction_still_validates():
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial((-1,))
    with pytest.raises(OverflowError, match="exponent overflow"):
        Monomial((2**40 + 1,))
    x = Monomial((EXPONENT_LIMIT,))
    for method in (x.mul, x.lcm, x.colon):
        assert method(Monomial((0,))) == x
    with pytest.raises(OverflowError):
        x.mul(Monomial((1,)))


def test_operations_on_canonical_ideals_validate_no_monomial(monkeypatch):
    ctx = RingContext(3, powers=(2, 3))
    I = MonomialIdeal.make(ctx, [M(2, 0, 0), M(1, 1, 1), M(0, 3, 0), M(0, 1, 3)])
    J = MonomialIdeal.make(ctx, [M(1, 0, 2), M(0, 2, 1)])
    others = (J, ctx.max_ideal(), ctx.powers_ideal(), MonomialIdeal.zero(ctx),
              MonomialIdeal.unit(ctx), I)
    x = ctx.variable(1)
    ctxz = ctx.add_z()
    Iz = MonomialIdeal.make(ctxz, [M(2, 0, 0, 0), M(0, 3, 0, 0), M(1, 0, 0, 1),
                                   M(0, 1, 1, 2)])
    # z_decompose's preimage check builds the power ideal of ctxz on first
    # use, which validates its generators as a public construction; build
    # it here so that the count does not depend on the tests run before
    ctxz.powers_ideal()
    calls = count_validations(monkeypatch)
    for K in others:
        saturate(I, K)
        ideal_intersection(I, K)
        ideal_product(I, K)
        ideal_sum(I, K)
    colon(I, x)
    z_recompose(z_decompose(Iz))
    assert calls == []
    Monomial((1, 0, 0))  # the counter sees a public construction
    assert calls == [(1, 0, 0)]


def test_colon_by_a_monomial_of_another_length_is_refused():
    # the validated colon zipped the two tuples and dropped the extra
    # exponents of a longer monomial
    I = MonomialIdeal.make(RingContext(2), [M(2, 0), M(1, 1)])
    for m in (M(1,), M(1, 0, 4)):
        with pytest.raises(MixedContextError):
            colon(I, m)
