import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import betti, limits
from lexcohom.betti import (Corner, _koszul_keys, betti_table, corners, corners_direct,
                            corners_via_reg, lcm_lattice, region_dominates,
                            upper_koszul_faces)
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.errors import ResourceLimitError
from lexcohom.hilbert import hilbert_series

from conftest import random_ideal, ref_koszul_key

NEG_INF = float("-inf")


def M(*exps):
    return Monomial(tuple(exps))


ctx2 = RingContext(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_koszul_complex(n):
    ctx = RingContext(n)
    T = betti_table(ctx.max_ideal())
    assert T.entries == {(i, i): comb(n, i) for i in range(n + 1)}


def test_spec_tables():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1), M(0, 3)])
    T = betti_table(I)
    assert T.entries == {(0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1, (2, 4): 1}
    # complete intersection
    T2 = betti_table(MonomialIdeal.make(ctx2, [M(2, 0), M(0, 3)]))
    assert T2.entries == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}


def test_hilbert_identity_on_samples():
    rng = random.Random(61)
    for n in (2, 3, 4):
        ctx = RingContext(n)
        for _ in range(15):
            I = random_ideal(rng, ctx, 4, 5)
            T = betti_table(I)  # check=True raises on identity failure
            assert T.alternating_sum() == hilbert_series(I).numer


def test_taylor_bound():
    rng = random.Random(67)
    ctx = RingContext(3)
    for _ in range(15):
        I = random_ideal(rng, ctx, 3, 5)
        if I.is_zero:
            continue
        T = betti_table(I)
        for (i, j), v in T.entries.items():
            if i > 0:
                assert v <= comb(len(I.gens), i)


def test_reg_h():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1), M(0, 3)])
    T = betti_table(I)
    assert T.reg_h(-1) == NEG_INF
    assert T.reg_h(0) == 2 and T.reg_h(1) == 2 and T.reg_h(2) == 2
    assert T.reg_h(T.n) == T.regularity
    with pytest.raises(ValueError):
        T.reg_h(3)


def test_corner_examples():
    T = betti_table(MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1), M(0, 3)]))
    assert corners(T) == [Corner(2, 2, 1)]
    T2 = betti_table(MonomialIdeal.make(ctx2, [M(2, 0), M(0, 3)]))
    assert corners(T2) == [Corner(2, 3, 1)]
    T3 = betti_table(MonomialIdeal.make(ctx2, [M(1, 0)]))
    assert corners(T3) == [Corner(1, 0, 1)]
    T0 = betti_table(MonomialIdeal.zero(ctx2))
    assert corners(T0) == [Corner(0, 0, 1)]


def test_corner_characterizations_agree_on_samples():
    rng = random.Random(71)
    for n in (2, 3, 4):
        ctx = RingContext(n)
        for _ in range(20):
            I = random_ideal(rng, ctx, 4, 5)
            T = betti_table(I)
            assert corners_via_reg(T) == corners_direct(T)


def test_corners_pairwise_incomparable():
    rng = random.Random(73)
    ctx = RingContext(4)
    for _ in range(15):
        T = betti_table(random_ideal(rng, ctx, 4, 6))
        cs = corners(T)
        for a in cs:
            for b in cs:
                if a != b:
                    assert not (a.i <= b.i and a.slope <= b.slope)


def test_region_dominates():
    assert region_dominates([Corner(2, 3, 1)], [Corner(2, 3, 9)])
    assert region_dominates([], [Corner(1, 1, 1)])
    assert not region_dominates([Corner(2, 3, 1)], [Corner(1, 5, 1)])
    assert region_dominates([Corner(1, 2, 1), Corner(3, 0, 2)],
                            [Corner(3, 2, 1)])


def test_lcm_lattice(monkeypatch):
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1), M(0, 3)])
    lat = lcm_lattice(I)
    assert set(lat) == {(2, 0), (1, 1), (0, 3), (2, 1), (1, 3), (2, 3)}
    monkeypatch.setattr(limits, "LATTICE_LIMIT", 10)
    with pytest.raises(ResourceLimitError, match="limits.LATTICE_LIMIT"):
        lcm_lattice(MonomialIdeal.make(RingContext(4), [
            M(3, 0, 0, 0), M(0, 3, 0, 0), M(0, 0, 3, 0), M(0, 0, 0, 3),
            M(1, 1, 1, 1), M(2, 2, 0, 0), M(0, 0, 2, 2), M(2, 0, 2, 0),
        ]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=8)))
def test_lcm_lattice_is_every_subset_join(exps):
    I = MonomialIdeal.make(RingContext(len(exps[0])), [Monomial(e) for e in exps])
    gens = [g.exps for g in I.gens]
    joins = {tuple(map(max, zip(*subset)))
             for k in range(1, len(gens) + 1)
             for subset in itertools.combinations(gens, k)}
    assert lcm_lattice(I) == sorted(joins)


def test_lattice_refusal_comes_by_twice_the_limit(monkeypatch):
    # the 2^8 - 1 = 255 joins of eight coprime powers are all distinct
    I = MonomialIdeal.make(RingContext(8), [
        Monomial(tuple(2 if i == j else 0 for i in range(8))) for j in range(8)])
    monkeypatch.setattr(limits, "LATTICE_LIMIT", 10)
    with pytest.raises(ResourceLimitError, match="has at least (1[1-9]|2[01]) points"):
        lcm_lattice(I)


def test_upper_koszul_faces_match_membership_oracle():
    # tau is a face iff x^(b - tau) lies in I, tested by plain membership;
    # the faces lie on the vertices 0, 1, ... that number supp(b) in order
    rng = random.Random(107)
    for n, powers in ((2, ()), (2, (2, 3)), (3, ()), (3, (2,)), (4, ()),
                      (4, (2, 2)), (5, ()), (5, (2, 2, 3))):
        ctx = RingContext(n, powers=powers)
        for _ in range(6):
            I = random_ideal(rng, ctx, 3, 4)
            for b in lcm_lattice(I):
                supp = [i for i, e in enumerate(b) if e > 0]
                want = {
                    sum(1 << supp.index(i) for i in tau)
                    for size in range(len(supp) + 1)
                    for tau in itertools.combinations(supp, size)
                    if I.contains(M(*(e - (i in tau) for i, e in enumerate(b))))
                }
                faces = upper_koszul_faces(*ref_koszul_key(I, b))
                assert len(faces) == len(want) and set(faces) == want


def test_koszul_keys_match_the_generator_by_generator_keys():
    rng = random.Random(131)
    # the tables are keyed by the exponents present, not by every one up to 2^40
    ideals = [MonomialIdeal.make(ctx2, [M(1 << 40, 1), M(0, 3)])]
    for n, powers in ((2, ()), (3, ()), (3, (2, 2)), (4, ()), (4, (2, 3)), (5, ())):
        ctx = RingContext(n, powers=powers)
        ideals += [random_ideal(rng, ctx, 4, 6) for _ in range(8)]
    for I in ideals:
        if I.is_zero:
            continue
        lattice = lcm_lattice(I)
        assert list(_koszul_keys(I, lattice)) == [
            (sum(b), *ref_koszul_key(I, b)) for b in lattice]


def test_koszul_memo_shares_a_complex_across_vertex_labels():
    # x1*x2 in two variables and x3*x5 in five give one complex, on the two
    # vertices that number supp(b), so the second table is a memo hit
    I = MonomialIdeal.make(ctx2, [M(1, 1)])
    J = MonomialIdeal.make(RingContext(5), [M(0, 0, 1, 0, 1)])
    assert list(_koszul_keys(I, lcm_lattice(I))) == [(2, 2, (0b11,))]
    assert list(_koszul_keys(J, lcm_lattice(J))) == [(2, 2, (0b11,))]
    assert betti_table(I).entries == betti_table(J).entries == {(0, 0): 1, (1, 2): 1}
    info = betti._koszul_dims.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_unit_ideal_rejected():
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal.unit(ctx2))


def test_projdim_depth_bound():
    # Auslander-Buchsbaum sanity: projdim <= n always, and depth >= 0
    rng = random.Random(79)
    ctx = RingContext(3)
    for _ in range(20):
        I = random_ideal(rng, ctx, 3, 5)
        T = betti_table(I)
        assert 0 <= T.projdim <= 3
