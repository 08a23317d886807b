import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom.core import (Monomial, MonomialIdeal, RingContext, _is_prime, colon,
                           ideal_intersection, ideal_product, ideal_sum, minimalize, saturate)
from lexcohom.errors import MixedContextError
from lexcohom.hilbert import ideal_window
from lexcohom.limits import MR_LIMIT, NUMERATOR_DEGREE_LIMIT

from conftest import (brute_quotient_dims, colon_ideal, count_calls, graded_piece_dim,
                      members_upto, ref_ideal_sum, ref_saturate)

ctx2 = RingContext(2)
x1, x2 = ctx2.variable(0), ctx2.variable(1)


def M(*exps):
    return Monomial(tuple(exps))


def test_minimalize_examples():
    assert minimalize(ctx2, [M(1, 0), M(2, 0)]).gens == (M(1, 0),)
    assert minimalize(ctx2, []).is_zero
    I = minimalize(ctx2, [M(1, 1), M(0, 2), M(1, 2)])
    assert set(I.gens) == {M(1, 1), M(0, 2)}


def test_minimalize_idempotent_and_order_independent():
    rng = random.Random(7)
    mons = [M(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(8)]
    I = minimalize(ctx2, mons)
    assert minimalize(ctx2, I.gens) == I
    for _ in range(5):
        rng.shuffle(mons)
        assert minimalize(ctx2, mons) == I


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_minimalize_antichain_and_same_ideal(exps):
    ctx = RingContext(3)
    gens = [Monomial(e) for e in exps]
    I = minimalize(ctx, gens)
    for a in I.gens:
        for b in I.gens:
            if a != b:
                assert not a.divides(b)
    # same ideal: every original generator is a multiple of a kept one
    for g in gens:
        assert I.contains(g)


def test_ideal_str_names_z():
    ctxz = RingContext(2).add_z()
    assert str(MonomialIdeal.make(ctxz, [M(1, 0, 2), M(0, 3, 0)])) == "(x1*z^2, x2^3)"
    assert str(MonomialIdeal.zero(ctxz)) == "(0)"
    assert str(MonomialIdeal.unit(ctx2)) == "(1)"


def test_monomial_str_names_no_variable():
    # a bare Monomial has no ring context: in K[x1,x2][z] the exponents
    # (1, 0, 2) are x1*z^2, so str() must not guess the name x3
    text = str(Monomial((1, 0, 2)))
    assert "x3" not in text
    assert text == "Monomial(exps=(1, 0, 2))"


def test_mixed_context_rejected():
    with pytest.raises(MixedContextError):
        minimalize(ctx2, [Monomial((1, 0, 0))])
    with pytest.raises(MixedContextError):
        ideal_sum(MonomialIdeal.make(ctx2, [x1]),
                  MonomialIdeal.make(RingContext(3), [Monomial((1, 0, 0))]))


def test_wrongly_shaped_monomials_rejected():
    I = MonomialIdeal.make(ctx2, [M(2, 0)])
    for m in (Monomial((2,)), Monomial((2, 0, 5))):
        with pytest.raises(MixedContextError):
            I.contains(m)
        with pytest.raises(MixedContextError):
            M(2, 0).divides(m)
        with pytest.raises(MixedContextError):
            m.divides(M(2, 0))
    assert I.contains(M(2, 1)) and not I.contains(M(1, 5))


def test_sum_product_intersection_examples():
    I, J = MonomialIdeal.make(ctx2, [x1]), MonomialIdeal.make(ctx2, [x2])
    assert ideal_sum(I, J).gens == (x1, x2)
    assert ideal_intersection(I, J).gens == (M(1, 1),)
    P = ideal_product(MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1)]), J)
    assert set(P.gens) == {M(2, 1), M(1, 2)}


@st.composite
def sum_pairs(draw):
    """Two ideals of one context with or without powers and z, each random,
    zero, unit or the power ideal; optionally J repeats generators of I."""
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers)
    ctx = ctx.add_z() if draw(st.booleans()) else ctx
    exps = st.tuples(*[st.integers(0, 3)] * ctx.n)

    def ideal():
        kind = draw(st.sampled_from(["random", "random", "zero", "unit", "powers"]))
        if kind == "random":
            return minimalize(ctx, [Monomial(e) for e in draw(st.lists(exps, max_size=6))])
        return {"zero": MonomialIdeal.zero(ctx), "unit": MonomialIdeal.unit(ctx),
                "powers": ctx.powers_ideal()}[kind]

    I, J = ideal(), ideal()
    shared = draw(st.integers(0, len(I.gens)))
    return I, minimalize(ctx, J.gens + I.gens[:shared])


@settings(max_examples=300, deadline=None)
@given(sum_pairs())
def test_ideal_sum_matches_the_minimalized_union(pair):
    I, J = pair
    assert ideal_sum(I, J).gens == ref_ideal_sum(I, J).gens
    assert ideal_sum(J, I).gens == ref_ideal_sum(I, J).gens
    assert I.plus_powers().gens == ref_ideal_sum(I, I.ctx.powers_ideal()).gens


def test_ideal_sum_of_mixed_contexts_raises_like_the_reference():
    ctxs = (RingContext(2), RingContext(2, powers=(2,)), RingContext(2).add_z(),
            RingContext(2, char=101))
    for A in ctxs:
        for B in ctxs:
            if A != B:
                for fn in (ideal_sum, ref_ideal_sum):
                    with pytest.raises(MixedContextError):
                        fn(MonomialIdeal.unit(A), MonomialIdeal.zero(B))


def test_sums_of_minimal_ideals_and_the_power_ideal_minimalize_nothing(monkeypatch):
    ctx = RingContext(3, powers=(2, 3, 3))
    I = MonomialIdeal.make(ctx, [M(1, 1, 0), M(0, 2, 1), M(3, 0, 0)])
    J = MonomialIdeal.make(ctx, [M(1, 0, 1), M(0, 2, 1), M(2, 0, 0)])
    calls = count_calls(monkeypatch, minimalize)
    b = ctx.powers_ideal()
    assert b.gens == (M(2, 0, 0), M(0, 3, 0), M(0, 0, 3))
    assert ideal_sum(I, J).gens == (M(2, 0, 0), M(1, 1, 0), M(1, 0, 1), M(0, 2, 1))
    assert I.plus_powers().gens == (M(2, 0, 0), M(1, 1, 0), M(0, 3, 0),
                                    M(0, 2, 1), M(0, 0, 3))
    assert calls == []


def test_colon_and_saturate_examples():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1)])
    assert set(colon(I, x1).gens) == {x1, x2}
    m = ctx2.max_ideal()
    assert saturate(I, m).gens == (x1,)
    assert saturate(I, I).is_unit


def test_colon_saturate_against_bruteforce_membership():
    rng = random.Random(3)
    D = 6
    for _ in range(25):
        gens = [M(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        I = minimalize(ctx2, gens)
        if I.is_zero or I.is_unit:
            continue
        g = M(rng.randint(0, 2), rng.randint(0, 2))
        # oracle: m in I:g  iff  m*g in I
        got = members_upto(colon(I, g), D)
        want = {m.exps for d in range(D + 1) for m in ctx2.monomials(d)
                if I.contains(m.mul(g))}
        assert got == want
        # saturation oracle: m in I^sat iff m * u in I for EVERY degree-k
        # monomial u, for some k
        sat = saturate(I, ctx2.max_ideal())
        got_sat = members_upto(sat, D)
        want_sat = set()
        for d in range(D + 1):
            for m in ctx2.monomials(d):
                for k in range(0, 9):
                    if all(I.contains(m.mul(u)) for u in ctx2.monomials(k)):
                        want_sat.add(m.exps)
                        break
        assert got_sat == want_sat


@st.composite
def saturation_pairs(draw):
    n = draw(st.integers(1, 4))
    ctx = RingContext(n)
    exps = st.tuples(*[st.integers(0, 3)] * n)

    def ideal():
        return minimalize(ctx, [Monomial(e) for e in draw(st.lists(exps, max_size=5))])

    I, other = ideal(), ideal()
    kind = draw(st.sampled_from(["zero", "unit", "I", "m", "other"]))
    return I, {"zero": MonomialIdeal.zero(ctx), "unit": MonomialIdeal.unit(ctx),
               "I": I, "m": ctx.max_ideal(), "other": other}[kind]


@settings(max_examples=300, deadline=None)
@given(saturation_pairs())
def test_saturate_matches_the_colon_fixpoint(pair):
    I, J = pair
    assert saturate(I, J) == ref_saturate(I, J)


def test_membership_and_graded_dims():
    I = MonomialIdeal.make(ctx2, [M(2, 0)])
    assert I.contains(M(2, 1))
    assert not I.contains(M(1, 2))
    assert graded_piece_dim(MonomialIdeal.make(ctx2, [x1]), 2) == 2
    assert graded_piece_dim(MonomialIdeal.zero(ctx2), 4) == 0


# with z, and with a power above every degree asked: the ring's dims come
# from the power ideal's numerator truncated at that degree
DIM_CONTEXTS = (ctx2, RingContext(2, powers=(2, 10**12)), RingContext(3, powers=(2, 50)),
                RingContext(2, powers=(3,)).add_z(), RingContext(1, powers=(2,)).add_z())


@pytest.mark.parametrize("d", range(6))
def test_dim_identity(d):
    rng = random.Random(d)
    for ctx in DIM_CONTEXTS:
        assert ctx.dim(d) == len(list(ctx.monomials(d, bounded=True)))
        for _ in range(10):
            gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(ctx.n))) for _ in range(3)]
            I = MonomialIdeal.make(ctx, gens).plus_powers()
            assert ctx.dim(d) - graded_piece_dim(I, d) == brute_quotient_dims(I, d)[d]
            if max(ctx.powers, default=0) <= NUMERATOR_DEGREE_LIMIT:  # else refused
                assert ideal_window(I, d) == tuple(graded_piece_dim(I, t) for t in range(d + 1))


def test_powers_context_basis_counting():
    ctxp = RingContext(2, powers=(2, 3))
    assert [ctxp.dim(d) for d in range(6)] == [1, 2, 2, 1, 0, 0]
    b = ctxp.powers_ideal()
    # the preimage of the zero ideal of S has no S-basis members
    assert all(graded_piece_dim(b, d) == 0 for d in range(5))


def test_colon_ideal_is_intersection_of_variable_colons():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1)])
    J = ctx2.max_ideal()
    expect = ideal_intersection(colon(I, x1), colon(I, x2))
    assert colon_ideal(I, J) == expect


def test_context_validation():
    with pytest.raises(ValueError):
        RingContext(2, char=10)
    with pytest.raises(ValueError):
        RingContext(2, powers=(3, 2))
    with pytest.raises(ValueError):
        RingContext(2, powers=(1,))
    with pytest.raises(ValueError):
        RingContext(1, powers=(2, 2))
    ctz = RingContext(2, powers=(2,), z=True)  # one x variable plus z
    assert ctz.nx == 1 and ctz.var_names() == ("x1", "z")


def test_primality_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

    assert all(_is_prime(p) == trial(p) for p in range(5000))


def test_large_characteristics():
    assert RingContext(1, char=2**61 - 1).char == 2**61 - 1  # no O(sqrt p) scan
    assert RingContext(1, char=4294967311).char == 4294967311
    # strong pseudoprimes: to bases 2, 3, 5, 7 and to every prime base up to 37
    for composite in (3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            RingContext(1, char=composite)
    with pytest.raises(ValueError, match=str(MR_LIMIT)):
        RingContext(1, char=MR_LIMIT + 2)


def test_primality_limit_raises_every_time():
    # the primality test is memoized; a raised limit must not be
    for _ in range(2):
        with pytest.raises(ValueError, match=str(MR_LIMIT)):
            RingContext(1, MR_LIMIT)


@pytest.mark.parametrize("n, z", [(1, False), (3, False), (3, True), (4, True)])
def test_monomials_are_the_degree_d_vectors_in_lex_descending_order(n, z):
    for powers in ((), (2,), (2, 3), (3, 3, 3)):
        if len(powers) > n - z:
            continue
        ctx = RingContext(n, powers=powers, z=z)
        for d in range(-1, 7):
            for bounded in (False, True):
                want = sorted((e for e in itertools.product(range(d + 1), repeat=n)
                               if sum(e) == d and not (bounded and any(
                                   e[i] >= p for i, p in enumerate(powers)))),
                              reverse=True)
                assert [m.exps for m in ctx.monomials(d, bounded=bounded)] == want


def test_monomials_in_many_variables_need_no_recursion():
    # one step costs O(n): 3,000 linear forms of 3,000 variables
    t0 = time.perf_counter()
    mons = list(RingContext(3000).monomials(1))
    assert len(mons) == 3000 and mons[-1].exps[-1] == 1
    assert time.perf_counter() - t0 < 10
