import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom.core import Monomial, MonomialIdeal, RingContext, minimalize
from lexcohom.errors import ResourceLimitError
from lexcohom.hilbert import (_numerator,
                              hilbert_series, ideal_window,
                              is_O_sequence, macaulay_growth, macaulay_rep,
                              values_nonneg)
from lexcohom.limits import NUMERATOR_DEGREE_LIMIT

from conftest import brute_quotient_dims, krull_dim, lagrange_interpolate, poly_nonneg_on_ray


def M(*exps):
    return Monomial(tuple(exps))


def test_examples_from_small_ideals():
    ctx = RingContext(2)
    assert hilbert_series(MonomialIdeal.zero(ctx)).quotient_window(4) == (1, 2, 3, 4, 5)
    I = MonomialIdeal.make(ctx, [M(2, 0), M(1, 1), M(0, 3)])
    hs = hilbert_series(I)
    assert hs.quotient_window(6) == (1, 2, 1, 0, 0, 0, 0)
    assert hs.numer == (1, 0, -2, 0, 1)  # (1 - t^2)^2
    hs = hilbert_series(MonomialIdeal.make(ctx, [M(1, 1)]))
    assert hs.quotient_window(5) == (1, 2, 2, 2, 2, 2)


def test_window_against_bruteforce_counts():
    rng = random.Random(11)
    for n in (2, 3):
        ctx = RingContext(n)
        for _ in range(20):
            gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
                    for _ in range(rng.randint(1, 5))]
            I = minimalize(ctx, gens)
            assert hilbert_series(I).quotient_window(10) == brute_quotient_dims(I, 10)


def test_powers_context_quotient_via_preimage():
    ctx = RingContext(2, powers=(2, 2))
    b = ctx.powers_ideal()
    assert hilbert_series(b).quotient_window(5) == (1, 2, 1, 0, 0, 0)
    I = minimalize(ctx, list(b.gens) + [M(1, 1)])
    assert hilbert_series(I).quotient_window(4) == (1, 2, 0, 0, 0)


def test_window_values_nonnegative_and_constant_term():
    rng = random.Random(9)
    ctx = RingContext(3)
    for _ in range(30):
        gens = [Monomial(tuple(rng.randint(0, 3) for _ in range(3)))
                for _ in range(rng.randint(1, 5))]
        I = minimalize(ctx, gens)
        assert all(v >= 0 for v in hilbert_series(I).quotient_window(12))
        assert all(v >= 0 for v in ideal_window(I, 12))
        numer = hilbert_series(I).numer
        assert numer[0] == (0 if I.is_unit else 1)


def lex_growth_oracle(a, d, n=3):
    """Max quotient growth from degree d to d+1 at value a, realized by the
    lex-segment quotient: count the span of one multiplication step."""
    ctx = RingContext(n)
    basis = list(ctx.monomials(d))
    assert a <= len(basis)
    sel = basis[: len(basis) - a]  # ideal part, lex-first
    span = {tuple(x + 1 if k == i else x for k, x in enumerate(m.exps))
            for m in sel for i in range(n)}
    return ctx.dim(d + 1) - len(span)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_macaulay_growth_against_lex_oracle(d):
    ctx = RingContext(3)
    for a in range(ctx.dim(d) + 1):
        assert macaulay_growth(a, d) == lex_growth_oracle(a, d)


def test_macaulay_rep_examples():
    assert macaulay_rep(6, 3) == [(4, 3), (2, 2), (1, 1)]
    assert macaulay_growth(6, 3) == 7
    assert macaulay_growth(0, 4) == 0
    assert macaulay_rep(3, 1) == [(3, 1)]
    assert macaulay_growth(3, 1) == 6


@given(st.integers(0, 400), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_macaulay_rep_reconstructs(a, d):
    from math import comb
    rep = macaulay_rep(a, d)
    assert sum(comb(k, i) for k, i in rep) == a
    ks = [k for k, _ in rep]
    iis = [i for _, i in rep]
    assert ks == sorted(ks, reverse=True) and len(set(ks)) == len(ks)
    assert iis == list(range(d, d - len(rep), -1))
    assert all(k >= i >= 1 for k, i in rep)


@pytest.mark.parametrize("a, d", [(10**12, 1), (10**12, 2), (10**100, 5)])
def test_macaulay_rep_of_huge_values_is_fast_and_exact(a, d):
    t0 = time.perf_counter()
    rep = macaulay_rep(a, d)
    assert time.perf_counter() - t0 < 1.0
    assert sum(comb(k, i) for k, i in rep) == a
    assert [i for _, i in rep] == list(range(d, d - len(rep), -1))
    assert all(k >= i for k, i in rep)
    assert all(k > k_next for (k, _), (k_next, _) in zip(rep, rep[1:]))
    if d == 1:
        assert rep == [(a, 1)] and macaulay_growth(a, 1) == comb(a + 1, 2)


def test_O_sequence():
    assert is_O_sequence((1, 2, 3, 4), 2)
    assert not is_O_sequence((1, 3), 2)
    assert not is_O_sequence((1, 2, 4), 2)
    assert is_O_sequence((1,), 1)
    assert not is_O_sequence((2,), 5)


def test_series_nonneg():
    # series_signs decides both signs from one pass: a series is >= 0
    # exactly when its negation is <= 0
    from lexcohom.hilbert import series_signs
    cases = [
        ((1,), 2, True),
        ((0, 0, 1), 1, True),       # 0,0,1,1,...
        ((0, -1, 1), 2, False),     # -t/(1-t)
        ((1, -1), 1, True),         # constant 1
        ((), 3, True),
        ((1, -3), 1, False),        # 1,-2,-2,...
        ((1, -2, 1), 1, False),     # 1-t has a negative coefficient
        ((2, -1), 1, True),         # 2,1,1,...
        ((5,), 0, True),
        ((0, -1), 0, False),
    ]
    for numer, n, nonneg in cases:
        assert series_signs(numer, n)[0] == nonneg, (numer, n)
        assert series_signs(tuple(-c for c in numer), n)[1] == nonneg, (numer, n)
    assert series_signs((), 3) == series_signs([0, 0], 2) == (True, True)
    assert series_signs([1, -1, 0, 0], 1) == (True, False)  # trailing zeros count for nothing
    # against brute-force expansion on random numerators, with and without
    # trailing zeros (z_order_compare passes a list padded with them)
    rng = random.Random(2)
    from math import comb
    for _ in range(200):
        n = rng.randint(1, 3)
        numer = tuple(rng.randint(-2, 3) for _ in range(rng.randint(1, 5)))
        D = len(numer) - 1
        coeffs = [sum(numer[i] * comb(d - i + n - 1, n - 1) for i in range(min(d, D) + 1))
                  for d in range(D + n + 12)]
        brute = (all(c >= 0 for c in coeffs), all(c <= 0 for c in coeffs))
        assert series_signs(numer, n) == brute, (numer, n)
        assert series_signs(list(numer) + [0, 0], n) == brute, (numer, n)


def test_values_nonneg():
    assert values_nonneg([1])                 # 1
    assert values_nonneg([])                  # the zero polynomial
    assert values_nonneg([0, 1])              # j from 0 up
    assert not values_nonneg([-1, -2])        # j from -1 down
    assert values_nonneg([1, 4, 9])           # j^2 from -1 down
    assert values_nonneg([0, 0, 2])           # (j-2)(j-3) from 2 up
    assert not values_nonneg([0, -1, 0])      # (j-2)(j-4) from 2 up, -1 at 3
    assert values_nonneg([0, 3, 8])           # (j-2)(j-4) from 4 up
    # far-out dips, from 0 up
    assert values_nonneg([1600, 1521, 1444])           # (j-40)^2
    assert values_nonneg([1640, 1560, 1482])           # (j-40)(j-41)
    assert not values_nonneg([1680, 1599, 1520])       # (j-40)(j-42), -1 at 41
    assert not values_nonneg([1599, 1520, 1443])       # (j-40)^2 - 1


@st.composite
def polynomial_rays(draw):
    """A polynomial given by m values on a ray, its start and direction."""
    m = draw(st.integers(0, 5))
    start = draw(st.integers(-6, 6))
    direction = draw(st.sampled_from([1, -1]))
    roots = draw(st.lists(st.integers(-12, 12), max_size=m - 1)) if m else []
    shift = draw(st.integers(-3, 3))
    scale = draw(st.sampled_from([1, -1, 2]))

    def P(j):
        out = scale
        for r in roots:
            out *= j - r
        return out + shift

    if draw(st.booleans()):
        values = [P(start + direction * t) for t in range(m)]
    else:
        values = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    return values, start, direction


@settings(max_examples=400, deadline=None)
@given(polynomial_rays())
def test_values_nonneg_matches_the_root_bound_scan(case):
    values, start, direction = case
    xs = [start + direction * t for t in range(len(values))]
    coeffs = lagrange_interpolate(xs, values)
    assert values_nonneg(values) == poly_nonneg_on_ray(coeffs, start, direction)


def test_krull_dim():
    ctx = RingContext(3)
    assert krull_dim(hilbert_series(MonomialIdeal.zero(ctx))) == 3
    assert krull_dim(hilbert_series(MonomialIdeal.make(ctx, [M(1, 0, 0)]))) == 2
    assert krull_dim(hilbert_series(ctx.max_ideal())) == 0
    assert krull_dim(hilbert_series(MonomialIdeal.unit(ctx))) == -1


def _krull_dim_oracle(I):
    """The size of the largest set of variables that contains the support of
    no generator; -1 when every set does (the unit ideal)."""
    supports = [{i for i, e in enumerate(g.exps) if e} for g in I.gens]
    for k in range(I.ctx.n, -1, -1):
        for F in itertools.combinations(range(I.ctx.n), k):
            if not any(s <= set(F) for s in supports):
                return k
    return -1


@st.composite
def krull_dim_cases(draw):
    n = draw(st.integers(1, 5))
    with_z = n >= 2 and draw(st.booleans())
    nx = n - with_z
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(n, powers=powers, z=with_z)
    kind = draw(st.sampled_from(("gens", "zero", "unit")))
    if kind == "zero":
        I = MonomialIdeal.zero(ctx)
    elif kind == "unit":
        I = MonomialIdeal.unit(ctx)
    else:
        exps = st.tuples(*[st.integers(0, 3)] * n)
        I = MonomialIdeal.make(ctx, map(Monomial, draw(st.lists(exps, min_size=1,
                                                               max_size=5))))
    return I.plus_powers()


@settings(max_examples=300, deadline=None)
@given(krull_dim_cases())
def test_krull_dim_is_the_largest_free_set_of_variables(I):
    assert krull_dim(hilbert_series(I)) == _krull_dim_oracle(I)


def test_numerator_degree_limit():
    # lcm degree exactly at the limit: the pivot recursion descends about
    # that many levels and stays below the interpreter's recursion limit
    ctx = RingContext(2)
    L = NUMERATOR_DEGREE_LIMIT
    at = MonomialIdeal.make(ctx, [Monomial((L - 2, 1)), Monomial((L - 3, 2))])
    assert hilbert_series(at).quotient_window(L + 1) == brute_quotient_dims(at, L + 1)
    for gens in ([Monomial((L - 1, 1)), Monomial((L - 2, 2))], [Monomial((L + 1, 0))],
                 [Monomial((L, 0)), Monomial((0, 1))]):
        with pytest.raises(ResourceLimitError, match="NUMERATOR_DEGREE_LIMIT"):
            hilbert_series(MonomialIdeal.make(ctx, gens))


@st.composite
def split_and_pivot_cases(draw):
    """Ideals whose generators fall into coprime blocks of variables, plus
    linear generators and generators on any variables, in contexts with and
    without powers (the ideal is then a preimage, containing them)."""
    n = draw(st.integers(1, 6))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=n))))
    ctx = RingContext(n, powers=powers)
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    gens = []
    for b in set(block):
        for _ in range(draw(st.integers(0, 3))):
            gens.append(tuple(draw(st.integers(0, 2)) if block[i] == b else 0
                              for i in range(n)))
    gens += [tuple(int(i == k) for i in range(n))
             for k in draw(st.lists(st.integers(0, n - 1), max_size=2))]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=2))
    return MonomialIdeal.make(ctx, map(Monomial, gens)).plus_powers()


@settings(max_examples=200, deadline=None)
@given(split_and_pivot_cases())
def test_numerator_matches_bruteforce_on_coprime_blocks(I):
    # the numerator's degree is at most the lcm degree, so the window up to
    # it pins every coefficient
    lcm_degree = sum(map(max, zip(*(g.exps for g in I.gens)))) if I.gens else 0
    _numerator.cache_clear()
    assert hilbert_series(I).quotient_window(lcm_degree) == \
        brute_quotient_dims(I, lcm_degree)


def test_path_ideal_numerator_memo_is_linear():
    # the edge ideal of a path, (x1x2, x2x3, ..., x29x30): each split-off
    # leaves a shorter path, so the memo grows with n and not with 2^n
    n = 30
    ctx = RingContext(n)
    I = MonomialIdeal.make(ctx, [ctx.variable(i).mul(ctx.variable(i + 1))
                                 for i in range(n - 1)])
    hilbert_series(I)
    assert _numerator.cache_info().currsize <= 60
