import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import embeddings, hilbert, limits
from lexcohom.core import Monomial, MonomialIdeal, RingContext, _lex_walk, minimalize
from lexcohom.embeddings import (_engine, epsilon_one, is_embedded, lex_ideal_of,
                                 lex_segment_ideal, lpp_ideal)
from lexcohom.errors import NotAttainableError, ResourceLimitError
from lexcohom.hilbert import _lex_numerator, hilbert_series, ideal_window, is_O_sequence
from lexcohom.verify import FamilySpec, enumerate_family

from conftest import all_monomials, brute_lex_first, graded_piece_dim, random_ideal


def M(*exps):
    return Monomial(tuple(exps))


ctx2 = RingContext(2)


def test_lex_segment_examples():
    assert lex_segment_ideal(ctx2, (0, 1, 2, 3, 4)).gens == (M(1, 0),)
    L = lex_segment_ideal(ctx2, (0, 0, 2, 4, 5, 6))  # quotient (1,2,1,0,...)
    assert set(g.exps for g in L.gens) == {(2, 0), (1, 1), (0, 3)}
    with pytest.raises(NotAttainableError, match="degree 3: lex-first selection "
                       "of size 2 is not closed under multiplication"):
        lex_segment_ideal(ctx2, (0, 0, 2, 2))  # quotient (1,2,1,2) grows back
    with pytest.raises(NotAttainableError, match="degree 1"):
        lex_segment_ideal(ctx2, (1, 0))  # unit then vanishing


def _assert_lex_first(I, L):
    """Through one degree past its last generator, every degree-d piece of L
    is the lex-first block of I's dimension."""
    D = L.max_gen_degree() + 1
    dims = ideal_window(I, D)
    for d in range(D + 1):
        basis = list(I.ctx.monomials(d))
        members = [m for m in basis if L.contains(m)]
        assert members == basis[: len(members)]
        assert len(members) == dims[d]


def test_lex_segment_is_lex_first_degreewise():
    rng = random.Random(17)
    for n in (2, 3):
        ctx = RingContext(n)
        for _ in range(15):
            I = random_ideal(rng, ctx, 4, 4)
            L = lex_ideal_of(I)
            assert hilbert_series(L).numer == hilbert_series(I).numer
            _assert_lex_first(I, L)
    # a lex ideal with generators far past the input's degrees
    ctx = RingContext(3)
    I = MonomialIdeal.make(ctx, [M(4, 0, 0), M(0, 0, 4)])
    L = lex_ideal_of(I)
    assert len(L.gens) == 17 and L.max_gen_degree() == 16
    assert L.max_gen_degree() > I.max_gen_degree() + 2
    assert hilbert_series(L).numer == hilbert_series(I).numer
    _assert_lex_first(I, L)


def test_embedding_without_certificate_stops_at_the_safety_bound(monkeypatch):
    # a certificate that can never hold: every candidate's numerator is off
    real = embeddings._lex_numerator
    calls = []

    def skewed(J):
        calls.append(J)
        return real(J) + (1,)

    monkeypatch.setattr(embeddings, "_lex_numerator", skewed)
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 2)])
    with pytest.raises(ResourceLimitError, match="limits.NUMERATOR_DEGREE_LIMIT"):
        lex_ideal_of(I)
    # one check: the selection never gains generators after it
    assert len(calls) == 1


def test_lex_numerator_examples():
    # the unit ideal, the zero ideal, b alone, and one LPP ideal: the square
    # of the maximal ideal of S = K[x1,x2]/(x1^2, x2^2), whose quotient has
    # the series 1 + 2t = (1 - 3t^2 + 2t^3) / (1-t)^2
    ctxp = RingContext(2, powers=(2, 2))
    assert _lex_numerator(MonomialIdeal.unit(ctxp)) == (0,)
    assert _lex_numerator(MonomialIdeal.zero(ctx2)) == (1,)
    assert _lex_numerator(ctxp.powers_ideal()) == (1, 0, -2, 0, 1)
    assert _lex_numerator(MonomialIdeal.make(ctxp, [M(2, 0), M(1, 1), M(0, 2)])) == \
        (1, 0, -3, 2)


def test_a_certificate_fills_no_numerator_memo():
    # the 17-generator lex ideal of (x1^4, x3^4) is certified by the closed
    # form, with no entry of the pivot recursion's memo
    series = hilbert_series(MonomialIdeal.make(RingContext(3), [M(4, 0, 0), M(0, 0, 4)]))
    before = hilbert._numerator.cache_info().currsize
    L = embeddings._certified_embedding(series)
    assert len(L.gens) == 17
    assert hilbert._numerator.cache_info().currsize == before


@pytest.mark.parametrize("seed", range(4))
def test_lex_ideal_answers_the_n5_ladder_family(seed):
    # the lex ideals of this family reach lcm degree 772 and 2,158
    # generators; the closed-form certificate reads each in milliseconds
    for I in enumerate_family(FamilySpec(n=5, max_deg=4, max_extra_gens=8, count=8,
                                         seed=seed)):
        t0 = time.perf_counter()
        L = lex_ideal_of(I)
        assert time.perf_counter() - t0 < 0.5
        assert _lex_numerator(L) == hilbert_series(I).numer


def test_lex_ideal_past_the_numerator_limit_names_it(monkeypatch):
    # the input's lcm degree 7 passes the lowered limit, so its Hilbert
    # series, which the embedding is keyed on, refuses it
    I = MonomialIdeal.make(RingContext(5), [M(4, 0, 0, 0, 0), M(1, 0, 2, 1, 0)])
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 6)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="the generators' lcm has degree 7, "
                                                 "above limits.NUMERATOR_DEGREE_LIMIT = 6"):
        lex_ideal_of(I)
    assert time.perf_counter() - t0 < 1.0


def test_the_engine_refuses_past_its_entry_limit_before_it_lists(monkeypatch):
    # the lex ideal of (x1^4, x3^4) selects 17 generators in three variables,
    # 51 exponents, its last one in degree 16; the LPP ideal of (x1^2, x2^3)
    # over K[x1, x2]/(x1^2) selects x1*x2^2 and x2^4
    I = MonomialIdeal.make(RingContext(3), [M(4, 0, 0), M(0, 0, 4)])
    ctxq = RingContext(2, powers=(2,))
    P = MonomialIdeal.make(ctxq, [M(2, 0), M(0, 3)])
    listed = []
    real = embeddings._lex_walk

    def counted(caps, d, end):
        for e in real(caps, d, end):
            listed.append(e)
            yield e

    monkeypatch.setattr(embeddings, "_lex_walk", counted)
    monkeypatch.setattr(limits, "ENGINE_ENTRY_LIMIT", 50)
    with pytest.raises(ResourceLimitError, match=r"^degree 16: the lex-first selection would "
                       r"hold 17 generators in 3 variables \(51 exponents\), above "
                       r"limits.ENGINE_ENTRY_LIMIT = 50$"):
        lex_ideal_of(I)
    assert len(listed) == 16  # no generator of degree 16 was listed
    monkeypatch.setattr(limits, "ENGINE_ENTRY_LIMIT", 3)
    with pytest.raises(ResourceLimitError, match=r"^degree 4: the lex-first selection would "
                       r"hold 2 generators in 2 variables \(4 exponents\), above "
                       r"limits.ENGINE_ENTRY_LIMIT = 3$"):
        lpp_ideal(P)
    # at the limit both are answered
    monkeypatch.setattr(limits, "ENGINE_ENTRY_LIMIT", 51)
    assert len(lex_ideal_of(I).gens) == 17
    monkeypatch.setattr(limits, "ENGINE_ENTRY_LIMIT", 4)
    assert lpp_ideal(P) == MonomialIdeal.make(ctxq, [M(2, 0), M(1, 2), M(0, 4)])


def test_lex_segment_ideal_with_powers_examples():
    # Clements-Lindstrom: the lex-first selection inside S = B/b, returned
    # as its preimage L + b
    ctxp = RingContext(2, powers=(2, 2))
    assert set(g.exps for g in lex_segment_ideal(ctxp, (0, 1, 1)).gens) == \
        {(1, 0), (0, 2)}
    ctxq = RingContext(2, powers=(2,))
    L = lex_segment_ideal(ctxq, (0, 0, 0, 1, 2, 2, 2))
    assert set(g.exps for g in L.gens) == {(2, 0), (1, 2), (0, 4)}
    # the zero ideal embeds to the zero ideal of S (preimage = b)
    assert lex_segment_ideal(ctxp, (0, 0, 0)) == ctxp.powers_ideal()
    with pytest.raises(NotAttainableError, match="degree 1: requested ideal "
                       "dim 3 exceeds ring dim 2"):
        lex_segment_ideal(ctxp, (0, 3))  # S_1 only has dim 2


def test_lpp_examples():
    ctxq = RingContext(2, powers=(2,))
    I = MonomialIdeal.make(ctxq, [M(2, 0), M(0, 3)])
    assert set(g.exps for g in lpp_ideal(I).gens) == {(2, 0), (1, 2), (0, 4)}
    b = ctxq.powers_ideal()
    assert lpp_ideal(b) == b
    ctxp = RingContext(2, powers=(2, 2))
    I2 = MonomialIdeal.make(ctxp, [M(2, 0), M(0, 2), M(1, 1)])
    assert lpp_ideal(I2) == I2
    with pytest.raises(ValueError):
        lpp_ideal(MonomialIdeal.make(ctxp, [M(1, 0)]))  # does not contain b


def test_lpp_preserves_hilbert_series_on_samples():
    rng = random.Random(23)
    for powers, n in (((2,), 2), ((2, 2), 3), ((2, 3), 2)):
        ctx = RingContext(n, powers=powers)
        for _ in range(15):
            I = random_ideal(rng, ctx, 4, 4)
            L = lpp_ideal(I)
            assert hilbert_series(L).numer == hilbert_series(I).numer
            assert is_embedded(L)


def test_embedding_is_order_preserving():
    # comparable Hilbert functions produce nested embedded ideals
    rng = random.Random(41)
    ctx = RingContext(2, powers=(2, 2))
    for _ in range(20):
        I = random_ideal(rng, ctx, 3, 3)
        extra = random_ideal(rng, ctx, 3, 2)
        J = minimalize(ctx, I.gens + extra.gens)  # I <= J
        LI, LJ = lpp_ideal(I), lpp_ideal(J)
        assert LJ.contains_ideal(LI)


def test_epsilon_one_examples():
    ctxz = RingContext(1, powers=(2,)).add_z()
    Iz = MonomialIdeal.make(ctxz, [M(1, 1)])
    assert set(g.exps for g in epsilon_one(Iz).gens) == {(2, 0), (1, 1)}
    Iz2 = MonomialIdeal.make(ctxz, [M(0, 1)])
    assert set(g.exps for g in epsilon_one(Iz2).gens) == {(1, 0), (0, 2)}
    ext = MonomialIdeal.make(ctxz, [M(1, 0)])
    assert epsilon_one(ext) == ext.plus_powers()


def test_epsilon_one_zero_ideal_and_z_requirement():
    ctxz = RingContext(2, powers=(2, 2)).add_z()
    assert epsilon_one(MonomialIdeal.zero(ctxz)) == ctxz.powers_ideal()
    with pytest.raises(ValueError):
        epsilon_one(MonomialIdeal.zero(RingContext(2)))


def test_is_embedded():
    ctxq = RingContext(2, powers=(2, 2))
    assert is_embedded(MonomialIdeal.make(ctxq, [M(1, 0)]))
    assert not is_embedded(MonomialIdeal.make(ctxq, [M(0, 1)]))
    assert is_embedded(MonomialIdeal.zero(ctxq))
    assert is_embedded(MonomialIdeal.unit(ctxq))


def test_embedded_ideal_dims_match_request():
    ctx = RingContext(3, powers=(2, 2))
    rng = random.Random(3)
    for _ in range(10):
        I = random_ideal(rng, ctx, 3, 4)
        D = sum(d - 1 for d in ctx.powers) + max(I.max_gen_degree(), 1) + 2
        L = lex_segment_ideal(ctx, ideal_window(I, D))
        for d in range(D + 1):
            assert graded_piece_dim(L, d) == graded_piece_dim(I, d)


def _outcome(select):
    try:
        return list(select())
    except NotAttainableError as exc:
        return str(exc)


@st.composite
def contexts(draw):
    n = draw(st.integers(1, 4))
    z = n >= 2 and draw(st.booleans())
    nx = n - 1 if z else n
    powers = sorted(draw(st.lists(st.integers(2, 4), max_size=nx)))
    ctx = RingContext(nx, powers=tuple(powers))
    return ctx.add_z() if z else ctx


@given(contexts(), st.randoms(use_true_random=False), st.integers(0, 9),
       st.lists(st.tuples(st.integers(0, 9), st.integers(-2, 2)), max_size=3), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rank_engine_matches_brute_force_selection(ctx, rng, D, perturb, far):
    # dims of a random ideal containing b, then optionally perturbed; with
    # ``far`` they are asked of the ring whose top power is above every degree
    dims = list(ideal_window(random_ideal(rng, ctx, 4, 4), D))
    for d, delta in perturb:
        if d <= D:
            dims[d] += delta
    ctx = _with_far_top_power(ctx, far)
    tables, real_rank = [], embeddings._rank

    def rank(e, count):
        tables.append(count)
        return real_rank(e, count)

    with mock.patch.object(embeddings, "_rank", rank):
        outcome = _outcome(lambda: _engine(ctx, dims))
    # the engine yields exponent tuples, the brute force validated Monomials
    assert outcome == _outcome(lambda: [[m.exps for m in new]
                                        for new in brute_lex_first(ctx, dims)])
    # the engine's count of each suffix ring in each degree is its listed basis
    for i, row in enumerate(tables[-1] if tables else ()):
        assert row == [sum(not any(m.exps[:i]) for m in ctx.monomials(t, bounded=True))
                       for t in range(len(row))]


def _with_far_top_power(ctx, far):
    # the ring whose top power is above every degree reached
    if far and ctx.powers:
        return RingContext(ctx.n, powers=ctx.powers[:-1] + (10**12,), z=ctx.z)
    return ctx


@given(contexts(), st.integers(0, 7), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rank_is_the_index_in_the_bounded_listing(ctx, D, far):
    ctx = _with_far_top_power(ctx, far)
    listings = [[m.exps for m in ctx.monomials(d, bounded=True)] for d in range(D + 1)]
    # count[i][t]: the bounded monomials of degree t in the variables i..n-1
    count = [[sum(not any(e[:i]) for e in basis) for basis in listings]
             for i in range(ctx.n + 1)]
    for basis in listings:
        assert [embeddings._rank(e, count) for e in basis] == list(range(len(basis)))


@given(contexts(), st.integers(0, 7), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_lex_walk_after_a_monomial_is_the_rest_of_the_listing(ctx, d, bounded, far):
    ctx = _with_far_top_power(ctx, far)
    caps = [d if b is None or not bounded else min(b, d)
            for b in map(ctx.exp_bound, range(ctx.n))]
    listing = [m.exps for m in ctx.monomials(d, bounded=bounded)]
    for k, e in enumerate(listing):
        assert list(_lex_walk(caps, d, after=e)) == listing[k + 1:]


@given(contexts(), st.randoms(use_true_random=False), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_rank_engine_prefixes_are_minimal_and_canonical(ctx, rng, D):
    # every prefix of the engine's output is its own minimalization, so the
    # embeddings build their ideals from it directly
    dims = ideal_window(random_ideal(rng, ctx, 4, 4), D)
    exps = []
    for new in _engine(ctx, dims):
        exps.extend(new)
        assert minimalize(ctx, map(Monomial, exps)).exps == tuple(exps)


@given(st.integers(1, 3), st.lists(st.integers(0, 11), min_size=1, max_size=6),
       st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_lex_segment_ideal_rejects_exactly_the_non_O_sequences(n, tail, q0):
    ctx = RingContext(n)
    q = [q0] + tail  # a quotient Hilbert function to realize
    dims = [len(all_monomials(ctx, d)) - v for d, v in enumerate(q)]
    if not any(q):  # the zero ring: the unit ideal, outside Macaulay's criterion
        assert lex_segment_ideal(ctx, dims).is_unit
    elif is_O_sequence(q, n):
        L = lex_segment_ideal(ctx, dims)
        assert ideal_window(L, len(q) - 1) == tuple(dims)
    else:
        with pytest.raises(NotAttainableError):
            lex_segment_ideal(ctx, dims)


@given(contexts(), st.randoms(use_true_random=False), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_lex_segment_ideal_of_a_window_is_the_certified_embedding(ctx, rng, extra):
    # the explicit-dims entry point, given the ideal's dims through the top
    # generator degree of its certified embedding or further, returns it
    I = random_ideal(rng, ctx, 4, 4)
    certified = lpp_ideal(I) if ctx.powers else lex_ideal_of(I)
    D = certified.max_gen_degree() + extra
    assert lex_segment_ideal(ctx, ideal_window(I, D)) == certified


@given(contexts(), st.randoms(use_true_random=False), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_lex_numerator_is_the_series_of_every_lex_first_ideal(ctx, rng, D):
    # the certificate's closed form equals the pivot recursion on the
    # certified embedding of a random ideal (lex, LPP, or the extension
    # along z) and on lex_segment_ideal of its dims through degree D
    I = random_ideal(rng, ctx, 4, 4).plus_powers()
    if ctx.z:
        certified = epsilon_one(I)
    else:
        certified = lpp_ideal(I) if ctx.powers else lex_ideal_of(I)
    for L in (certified, lex_segment_ideal(ctx, ideal_window(I, D))):
        assert _lex_numerator(L) == hilbert_series(L).numer
