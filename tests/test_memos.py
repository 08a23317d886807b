"""The process-wide homology memos of the Koszul, Takayama and ext complexes:
keyed by the characteristic, hit on a second pass, immutable, and equal to
the unmemoized computations when warm."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import betti, localcohom
from lexcohom.betti import betti_table
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.homology import reduced_homology_dims
from lexcohom.localcohom import cohomology_table

from conftest import ref_betti_entries, ref_ext_cells, ref_takayama_cells

BACKENDS = ("combinatorial", "ext")

# the 6-vertex real projective plane, whose homology has 2-torsion
RP2_FACETS = "123 134 145 156 126 235 245 246 346 356"


def rp2_ideal(p):
    """Stanley-Reisner ideal of RP^2 over GF(p): the 10 squarefree cubics of
    the non-face triples."""
    faces = {frozenset(map(int, f)) for f in RP2_FACETS.split()}
    gens = [Monomial(tuple(int(v in t) for v in range(1, 7)))
            for t in itertools.combinations(range(1, 7), 3)
            if frozenset(t) not in faces]
    return MonomialIdeal.make(RingContext(6, char=p), gens)


def test_characteristic_is_part_of_every_key():
    # run in one process char 2, then 3, then 2: a key without p would hand
    # the second run the first run's homology, and the third the second's
    common = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    for p in (2, 3, 2):
        I = rp2_ideal(p)
        torsion = {(3, 6): 1, (4, 6): 1} if p == 2 else {}
        assert betti_table(I).entries == {**common, **torsion}
        for backend in BACKENDS:
            T = cohomology_table(I, backend=backend)
            h2 = {j: T.value(2, j) for j in range(T.lo, T.hi + 1) if T.value(2, j)}
            assert h2 == ({0: 1} if p == 2 else {})


def lpp_like_ideal(p):
    ctx = RingContext(4, char=p, powers=(2, 2))
    return MonomialIdeal.make(ctx, list(ctx.powers_ideal().gens) + [
        Monomial((1, 1, 2, 0)), Monomial((0, 1, 1, 1)), Monomial((1, 0, 0, 3))])


@pytest.mark.parametrize("p", [2, 32003])
def test_a_second_pass_ranks_nothing(monkeypatch, p):
    I = lpp_like_ideal(p)
    seen = []

    def counted(*args):
        seen.append(args)
        return reduced_homology_dims(*args)

    monkeypatch.setattr(betti, "reduced_homology_dims", counted)
    monkeypatch.setattr(localcohom, "reduced_homology_dims", counted)
    first = (localcohom._takayama_cells(I), localcohom._ext_cells(I), betti_table(I))
    assert seen
    seen.clear()
    second = (localcohom._takayama_cells(I), localcohom._ext_cells(I), betti_table(I))
    assert second == first
    assert len(seen) == 0


def test_a_caller_cannot_change_the_memos():
    I = lpp_like_ideal(32003)
    tak, ext = localcohom._takayama_cells(I), localcohom._ext_cells(I)
    assert tak and ext
    T = betti_table(I)
    want = (repr(tak), repr(ext), dict(T.entries))
    for _, _, by_i in tak + ext:
        by_i[0] = 99
    T.entries[(0, 0)] = 99
    assert (repr(localcohom._takayama_cells(I)), repr(localcohom._ext_cells(I)),
            betti_table(I).entries) == want


@st.composite
def ideals_in_chars(draw):
    p = draw(st.sampled_from([2, 3, 32003]))
    n = draw(st.integers(2, 4))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=n))))
    ctx = RingContext(n, char=p, powers=powers)
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = draw(st.lists(exps, max_size=8 - len(powers)))
    return MonomialIdeal.make(ctx, list(ctx.powers_ideal().gens)
                              + [Monomial(e) for e in gens])


@settings(max_examples=60, deadline=None)
@given(ideals_in_chars())
def test_warm_memos_match_the_unmemoized_computations(I):
    # the memos are emptied once per test, not per example, so the examples
    # share memos filled in all three characteristics
    assert localcohom._takayama_cells(I) == ref_takayama_cells(I)
    assert localcohom._ext_cells(I) == ref_ext_cells(I)
    assert betti_table(I).entries == ref_betti_entries(I)
