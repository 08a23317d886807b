"""The process-wide memos: the homology of the Koszul, Takayama and ext
complexes, per ideal the Betti entries, the merged cells of each backend,
the z-decomposition and the stable chain, per Hilbert series the certified
embedding, and per context the maximal ideal.  They are all made, bounded
and emptied by ``memos``, keyed by the characteristic, hit on a second
pass, immutable, equal to the unmemoized computations when warm, and
setting a limit empties them, so a refusal reads the same warm and cold."""

import importlib
import itertools
import pkgutil
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexcohom
from lexcohom import betti, cli, core, embeddings, limits, localcohom, memos, zstable
from lexcohom.betti import BettiTable, betti_table, lcm_lattice
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.embeddings import epsilon_one, lex_ideal_of, lpp_ideal
from lexcohom.errors import IterationCapExceededError, ResourceLimitError
from lexcohom.hilbert import hilbert_series, lcm_degree
from lexcohom.homology import reduced_homology_dims
from lexcohom.localcohom import cohomology_table
from lexcohom.verify import FamilySpec, stable_instances, verify_embedding_lemmas
from lexcohom.zstable import z_stabilize

from conftest import (corrupt_epsilon, count_calls, h0_via_saturation, merge_cells,
                      ref_betti_entries, ref_embed_matching_series, ref_ext_cells,
                      ref_takayama_cells, ref_z_decompose, ref_z_stabilize)

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


def test_a_second_table_walks_nothing(monkeypatch):
    I = lpp_like_ideal(32003)
    walks = [count_calls(monkeypatch, fn) for fn in
             (localcohom._takayama_cells, localcohom._ext_cells, lcm_lattice)]

    def tables():
        return [cohomology_table(I, backend=b) for b in BACKENDS] + [betti_table(I)]

    first = tables()
    assert [len(calls) for calls in walks] == [1, 1, 1]
    second = tables()
    assert second == first
    assert [len(calls) for calls in walks] == [1, 1, 1]
    # each call builds its own tables around the memoized cells and entries
    assert all(a is not b for a, b in zip(first, second))
    assert first[2].entries is not second[2].entries


@pytest.mark.parametrize("backend, name, value", [
    ("combinatorial", "CELL_LIMIT", 3 * 3 * 3 * 4),  # rho = (2, 2, 2, 3)
    ("ext", "CELL_LIMIT", 3 * 3 * 3 * 4),
    ("ext", "EXT_GENERATOR_LIMIT", 5),
    ("combinatorial", "COHOM_VARIABLE_LIMIT", 4),
    ("ext", "COHOM_VARIABLE_LIMIT", 4),
])
def test_a_cell_memo_hit_still_refuses(monkeypatch, backend, name, value):
    I = lpp_like_ideal(32003)
    want = cohomology_table(I, backend=backend)
    monkeypatch.setattr(limits, name, value)
    assert cohomology_table(I, backend=backend) == want
    monkeypatch.setattr(limits, name, value - 1)
    with pytest.raises(ResourceLimitError, match=f"limits.{name} = {value - 1}"):
        cohomology_table(I, backend=backend)


def test_a_betti_memo_hit_still_refuses(monkeypatch):
    I = lpp_like_ideal(32003)
    want = betti_table(I)
    points = len(lcm_lattice(I))
    monkeypatch.setattr(limits, "LATTICE_LIMIT", points)
    assert betti_table(I) == want
    monkeypatch.setattr(limits, "LATTICE_LIMIT", points - 1)
    with pytest.raises(ResourceLimitError, match=f"limits.LATTICE_LIMIT = {points - 1}"):
        betti_table(I)


def test_a_betti_memo_hit_still_checks(monkeypatch):
    # the Hilbert identity runs on every call, a hit included
    I = lpp_like_ideal(32003)
    betti_table(I)
    monkeypatch.setattr(BettiTable, "alternating_sum", lambda self: (99,))
    with pytest.raises(AssertionError, match="fails the Hilbert identity"):
        betti_table(I)
    monkeypatch.undo()
    assert betti_table(I).entries == ref_betti_entries(I)


def test_a_caller_cannot_change_the_memos():
    I = lpp_like_ideal(32003)
    tak, ext = localcohom._takayama_cells(I), localcohom._ext_cells(I)
    assert tak and ext
    T = betti_table(I)
    tables = [cohomology_table(I, backend=b) for b in BACKENDS]
    want = (repr(tak), repr(ext), dict(T.entries), [repr(t) for t in tables])
    T.entries[(0, 0)] = 99
    for t in tables:
        t.rows[0] = ()
        t.tails.clear()
    # the memoized cells are tuples of ints all the way down
    for b in BACKENDS:
        cells = localcohom._cells(I, b)
        hash(cells)
        assert isinstance(cells, tuple) and all(isinstance(c[2], tuple) for c in cells)
    assert (repr(localcohom._takayama_cells(I)), repr(localcohom._ext_cells(I)),
            betti_table(I).entries,
            [repr(cohomology_table(I, backend=b)) for b in BACKENDS]) == want


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
    assert localcohom._takayama_cells(I) == merge_cells(ref_takayama_cells(I))
    assert localcohom._ext_cells(I) == merge_cells(ref_ext_cells(I))
    assert localcohom._cells(I, "combinatorial") == merge_cells(ref_takayama_cells(I))
    assert localcohom._cells(I, "ext") == merge_cells(ref_ext_cells(I))
    assert betti_table(I).entries == ref_betti_entries(I)


@st.composite
def z_ideals(draw):
    """An ideal of R[z], R with 2 or 3 x variables, with or without powers."""
    nx = draw(st.sampled_from([2, 3]))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    exps = st.tuples(*[st.integers(0, 2)] * ctx.n).filter(any)
    gens = draw(st.lists(exps, max_size=4))
    return MonomialIdeal.make(ctx, list(ctx.powers_ideal().gens)
                              + [Monomial(e) for e in gens])


@settings(max_examples=60, deadline=None)
@given(z_ideals())
def test_warm_and_cold_stabilizations_match_the_unmemoized_loop(I):
    # the examples share one memo, so the first call may read an entry of
    # an earlier example; the second call is a hit on this one
    warm = z_stabilize(I)
    cold = zstable._stable_chain.__wrapped__(I)
    assert warm == cold == ref_z_stabilize(I)
    assert z_stabilize(I) is warm


def test_a_stabilization_memo_hit_still_refuses(monkeypatch):
    # (z^3) in K[x1, x2][z] takes three rounds
    I = MonomialIdeal.make(RingContext(2).add_z(), [Monomial((0, 0, 3))])
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 2)
    with pytest.raises(IterationCapExceededError, match="needs round 3"):
        z_stabilize(I)
    assert zstable._stable_chain.cache_info().currsize == 0  # never stored
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 3)
    want = z_stabilize(I)
    assert want == ref_z_stabilize(I)
    assert z_stabilize(I) is want
    # lowering the limit empties the memo, so the loop refuses again
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 2)
    assert zstable._stable_chain.cache_info().currsize == 0
    with pytest.raises(IterationCapExceededError,
                       match="needs round 3, above limits.STABILIZATION_ROUND_LIMIT = 2"):
        z_stabilize(I)
    assert zstable._stable_chain.cache_info().hits == 0


@settings(max_examples=60, deadline=None)
@given(z_ideals())
def test_warm_and_cold_decompositions_match_the_reference(I):
    # the examples share one memo; the unwrapped call is cold, and a second
    # call, also with an equal ideal built anew, is a hit on this entry
    warm = zstable.z_decompose(I)
    cold = zstable._decomposition.__wrapped__(I)
    want = ref_z_decompose(I)
    assert warm == cold == want
    assert [c.exps for c in warm.components] == [c.exps for c in want.components]
    assert zstable.z_decompose(MonomialIdeal(I.ctx, I.exps)) is warm


def test_a_decomposition_refusal_is_raised_on_every_call():
    no_z = MonomialIdeal.make(RingContext(2), [Monomial((1, 1))])
    not_preimage = MonomialIdeal.make(RingContext(2, powers=(2, 2)).add_z(),
                                      [Monomial((1, 1, 0))])
    for I, match in ((no_z, "z as last variable"), (not_preimage, "power generators")):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                zstable.z_decompose(I)
    assert zstable._decomposition.cache_info().currsize == 0  # never stored


def test_a_stored_chain_still_refuses_past_the_numerator_limit(monkeypatch):
    # (x1^3, x1*x2*z, x2^4*z^2) in K[x1, x2][z]: components (x1^3),
    # (x1^3, x1*x2) and (x1^3, x1*x2, x2^4), of lcm degrees 3, 4 and 7
    ctx = RingContext(2).add_z()
    I = MonomialIdeal.make(ctx, [Monomial((3, 0, 0)), Monomial((1, 1, 1)),
                                 Monomial((0, 4, 2))])
    Z = zstable.z_decompose(I)
    assert [lcm_degree(c) for c in Z.components] == [3, 4, 7]
    numers = Z.numerators()
    calls = count_calls(monkeypatch, hilbert_series)
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 6)
    reads = (Z.numerators, lambda: Z.window(0, 5),
             lambda: zstable.z_order_compare(Z, Z),
             lambda: zstable.z_decompose(I).numerators())
    for read in reads:
        with pytest.raises(ResourceLimitError,
                           match="degree 7, above limits.NUMERATOR_DEGREE_LIMIT = 6"):
            read()
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 7)
    assert Z.numerators() is numers
    assert zstable.z_order_compare(Z, Z) == "equal"
    assert calls == []  # every read used the stored numerators


def same_series_pairs():
    """(I, J, embed): two different ideals with one Hilbert series, J the
    embedding of I, without powers, with powers and over R[z]."""
    M = Monomial
    ctx2, ctxp = RingContext(2), RingContext(3, powers=(2, 2))
    ctxz = RingContext(2, powers=(2, 2)).add_z()
    ideals = [
        (MonomialIdeal.make(ctx2, [M((2, 0)), M((0, 2))]), lex_ideal_of),
        (MonomialIdeal.make(ctxp, list(ctxp.powers_ideal().gens)
                            + [M((1, 0, 1)), M((0, 1, 1))]), lpp_ideal),
        (MonomialIdeal.make(ctxz, list(ctxz.powers_ideal().gens)
                            + [M((0, 1, 2))]), epsilon_one),
    ]
    return [(I, ref_embed_matching_series(I), embed) for I, embed in ideals]


@pytest.mark.parametrize("I, J, embed", same_series_pairs())
def test_two_ideals_with_one_series_share_one_embedding(I, J, embed):
    assert I != J and hilbert_series(I) == hilbert_series(J)
    assert I.max_gen_degree() < J.max_gen_degree()
    first = embed(I)
    second = embed(J)
    info = embeddings._certified_embedding.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert second is first
    assert first == ref_embed_matching_series(I) == ref_embed_matching_series(J) == J


def test_an_embedding_memo_hit_still_refuses(monkeypatch):
    # the lex ideal of (x1^4, x3^4) has 17 generators up to degree 16, far
    # above the input's lcm degree 8, so the selection certifies it at 17
    I = MonomialIdeal.make(RingContext(3), [Monomial((4, 0, 0)), Monomial((0, 0, 4))])
    want = lex_ideal_of(I)
    assert lcm_degree(I) == 8 and len(want.gens) == 17 and want.max_gen_degree() == 16
    assert want == ref_embed_matching_series(I)
    assert lex_ideal_of(I) is want
    # lowering the limit empties the memo, so the selection stops uncertified
    # at degree 16 again, and the refusal is not stored
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 15)
    assert embeddings._certified_embedding.cache_info().currsize == 0
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="no certified embedding by degree 16, "
                                                     "above limits.NUMERATOR_DEGREE_LIMIT = 15"):
            lex_ideal_of(I)
    assert embeddings._certified_embedding.cache_info().currsize == 0
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 16)
    assert lex_ideal_of(I) == want


def _lex_of_two_quartics():
    return lex_ideal_of(MonomialIdeal.make(RingContext(3), [Monomial((4, 0, 0)),
                                                            Monomial((0, 0, 4))]))


def _three_rounds():
    return z_stabilize(MonomialIdeal.make(RingContext(2).add_z(), [Monomial((0, 0, 3))]))


# (limit, a call that runs at the value and is refused one below it, the value)
REFUSALS = [
    ("LATTICE_LIMIT", lambda: betti_table(lpp_like_ideal(32003)), 27),
    ("NUMERATOR_DEGREE_LIMIT", _lex_of_two_quartics, 16),  # the lex ideal's top degree
    ("STABILIZATION_ROUND_LIMIT", _three_rounds, 3),
    ("CELL_LIMIT", lambda: cohomology_table(lpp_like_ideal(32003)), 3 * 3 * 3 * 4),
    ("EXT_GENERATOR_LIMIT", lambda: cohomology_table(lpp_like_ideal(32003), backend="ext"), 5),
    ("COHOM_VARIABLE_LIMIT", lambda: cohomology_table(lpp_like_ideal(32003)), 4),
]


def _refusal(run) -> str:
    with pytest.raises(ResourceLimitError) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("name, run, value", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_a_refusal_reads_the_same_warm_and_cold(monkeypatch, name, run, value):
    monkeypatch.setattr(limits, name, value)
    run()  # fills the memos
    monkeypatch.setattr(limits, name, value - 1)
    warm = _refusal(run)
    memos.clear_all()
    assert _refusal(run) == warm
    assert warm.endswith(f", above limits.{name} = {value - 1}")


def test_the_corrupted_embedding_still_fails_after_the_genuine_one_is_cached():
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True, count=8, seed=21)
    instances = list(stable_instances(spec))
    cold = [verify_embedding_lemmas(I, epsilon=corrupt_epsilon) for I in instances]
    for I in instances:
        assert verify_embedding_lemmas(I).passed
    assert embeddings._certified_embedding.cache_info().currsize > 0
    warm = [verify_embedding_lemmas(I, epsilon=corrupt_epsilon) for I in instances]
    assert warm == cold
    assert any(not rec.passed for rec in warm)
    assert any(not rec.checks["generator_counts"] for rec in warm)


def test_the_maximal_ideal_is_built_once_per_context(monkeypatch):
    built = []
    real = RingContext.max_ideal

    def recording(self):
        built.append(real(self))
        return built[-1]

    monkeypatch.setattr(RingContext, "max_ideal", recording)
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True, count=8, seed=21)
    for I in stable_instances(spec):
        verify_embedding_lemmas(I)
    # one object per context, however many calls
    assert built and all(m is real(m.ctx) for m in built)
    # the canonical antichain, built without minimalize
    calls = count_calls(monkeypatch, core.minimalize)
    ctx = RingContext(5, powers=(2, 3)).add_z()
    m = real(ctx)
    assert real(RingContext(5, powers=(2, 3)).add_z()) is m
    assert calls == []
    assert m.gens == MonomialIdeal.make(ctx, [ctx.variable(i) for i in range(ctx.n)]).gens


def package_caches():
    """Every object with ``cache_info`` bound in a module of the package or
    in one of its classes, by id."""
    found = {}
    for info in pkgutil.iter_modules(lexcohom.__path__, "lexcohom."):
        module = importlib.import_module(info.name)
        spaces = [vars(module)] + [vars(cls) for cls in vars(module).values()
                                   if isinstance(cls, type) and cls.__module__ == info.name]
        for space in spaces:
            found.update((id(obj), obj) for obj in space.values() if hasattr(obj, "cache_info"))
    return found


def test_only_memos_makes_a_memo():
    caches = package_caches()
    assert len(caches) == 15
    assert caches.keys() == {id(m) for m in memos.registry}
    assert all(m.cache_info().maxsize is not None for m in memos.registry)
    bound = {}
    for info in pkgutil.iter_modules(lexcohom.__path__, "lexcohom."):
        if info.name == "lexcohom.memos":
            continue
        names = [name for name in vars(importlib.import_module(info.name))
                 if name.endswith("_MEMO_SIZE")]
        if names:
            bound[info.name] = names
    assert bound == {}


def test_clear_all_empties_every_memo(tmp_path, capsys):
    ctx = RingContext(3, powers=(2, 2))
    I = MonomialIdeal.make(ctx, list(ctx.powers_ideal().gens) + [Monomial((1, 0, 2))])
    for backend in BACKENDS:
        cohomology_table(I, backend=backend)
    h0_via_saturation(I, (0, 3))
    betti_table(I)
    lpp_ideal(I)
    lex_ideal_of(MonomialIdeal.make(RingContext(3), [Monomial((2, 1, 0)), Monomial((0, 0, 3))]))
    zctx = RingContext(2).add_z()
    z_stabilize(MonomialIdeal.make(zctx, [Monomial((0, 1, 1)), Monomial((3, 0, 0))]))
    f = tmp_path / "ideal.txt"
    f.write_text("ring n=2 char=32003\nx1^2\nx2^3\n")
    assert cli.main(["hilb", "--input", str(f)]) == 0
    capsys.readouterr()
    assert [m.__qualname__ for m in memos.registry if not m.cache_info().currsize] == []
    memos.clear_all()
    assert [m.cache_info().currsize for m in memos.registry] == [0] * len(memos.registry)


def test_a_refused_lex_ideal_keeps_under_a_megabyte(monkeypatch):
    # seed 0 of the n = 5 ladder family, whose lex ideal has 2,158
    # generators up to degree 382: under a limit of 100 the selection is
    # refused at degree 101, after it has counted the ring's dims up to that
    # degree; a memo of those dims per top degree once kept 2.6 MB here
    I = MonomialIdeal.make(RingContext(5), [Monomial(e) for e in (
        (2, 0, 0, 1, 1), (0, 4, 0, 0, 0), (0, 1, 1, 2, 0), (0, 0, 1, 3, 0))])
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ResourceLimitError, match="no certified embedding by degree 101, "
                                                     "above limits.NUMERATOR_DEGREE_LIMIT = 100"):
            lex_ideal_of(I)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000
