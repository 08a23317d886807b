"""An ideal is its context and its canonical exponent antichain.

Equal antichains give equal ideals with equal hashes, however the ideal was
built: by ``MonomialIdeal.make`` from Monomials, by an ideal operation on
exponent tuples, by the raw constructor, or by ``pickle``, which is how
``verify --jobs N`` ships instances to its workers.  ``gens`` reads the
same generators as Monomials, built anew on each read."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import betti, localcohom
from lexcohom.core import (Monomial, MonomialIdeal, RingContext, colon, ideal_intersection,
                           ideal_product, ideal_sum, saturate)

from conftest import (ref_colon, ref_ideal_intersection, ref_ideal_product, ref_ideal_sum,
                      ref_saturate_by_parts)


@st.composite
def contexts(draw):
    """n = 1..3 variables in all, with or without powers and z."""
    n = draw(st.integers(1, 3))
    z = n > 1 and draw(st.booleans())
    nx = n - z
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers)
    return ctx.add_z() if z else ctx


def monomials(draw, ctx, max_size):
    exps = st.tuples(*[st.integers(0, 3)] * ctx.n)
    return [Monomial(e) for e in draw(st.lists(exps, max_size=max_size))]


@st.composite
def ideal_pairs(draw):
    """Two ideals of one context, built by ``make``, and a monomial of it."""
    ctx = draw(contexts())
    I, J = (MonomialIdeal.make(ctx, monomials(draw, ctx, 5)) for _ in range(2))
    return I, J, monomials(draw, ctx, 1) or [ctx.one()]


def assert_same(I, J):
    assert I == J and hash(I) == hash(J)


@settings(max_examples=200, deadline=None)
@given(ideal_pairs(), st.randoms(use_true_random=False))
def test_equal_antichains_compare_and_hash_equal(pair, rng):
    I, J, (m,) = pair
    gens = list(I.gens) * 2  # duplicates and any order give the same ideal
    rng.shuffle(gens)
    assert_same(MonomialIdeal.make(I.ctx, gens), I)
    assert_same(MonomialIdeal(I.ctx, I.exps), I)
    for op, ref in ((ideal_sum, ref_ideal_sum), (ideal_product, ref_ideal_product),
                    (ideal_intersection, ref_ideal_intersection),
                    (saturate, ref_saturate_by_parts)):
        assert_same(op(I, J), ref(I, J))
    assert_same(colon(I, m), ref_colon(I, m))
    # equality reads the antichain, whatever hash either ideal has stored
    assert (I == J) == (I.exps == J.exps)


@settings(max_examples=100, deadline=None)
@given(ideal_pairs())
def test_gens_reads_the_antichain_as_monomials_built_anew(pair):
    I = pair[0]
    gens = I.gens
    assert all(isinstance(g, Monomial) for g in gens)
    assert tuple(g.exps for g in gens) == I.exps
    again = I.gens
    assert again == gens and all(a is not b for a, b in zip(again, gens))
    assert "gens" not in vars(I)  # never stored


@settings(max_examples=60, deadline=None)
@given(ideal_pairs(), st.sampled_from(["combinatorial", "ext"]))
def test_a_pickled_ideal_hits_the_originals_memo_entries(pair, backend):
    I = pair[0].plus_powers()
    cells = localcohom._cells(I, backend)
    entries = betti._lattice_entries(I)
    P = pickle.loads(pickle.dumps(I))
    assert P is not I
    assert_same(P, I)
    for memo, args, held in ((localcohom._cells, (P, backend), cells),
                             (betti._lattice_entries, (P,), entries)):
        hits = memo.cache_info().hits
        assert memo(*args) is held
        assert memo.cache_info().hits == hits + 1
