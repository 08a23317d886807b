import json
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import betti, cli, core, embeddings, limits, localcohom, memos, verify
from lexcohom.core import (Monomial, MonomialIdeal, RingContext, ideal_product, minimalize,
                           saturate)
from lexcohom.errors import ResourceLimitError
from lexcohom.hilbert import hilbert_series, ideal_window, lcm_degree
from lexcohom.ioformat import format_ideal
from lexcohom.limits import POOL_LIMIT
from lexcohom.verify import (FamilySpec, _basis_pool, _generator_tallies,
                             enumerate_family,
                             nonstable_instances, run_family,
                             stable_instances, verify_betti_lpp_corners,
                             verify_cohomology_lpp, verify_embedding_lemmas,
                             verify_lex_cohomology,
                             verify_region_inclusion, verify_zstabilize)
import lexcohom.zstable as zs

from conftest import (corrupt_epsilon, count_calls, graded_piece_dim, random_ideal,
                      ref_exhaustive_ideals, ref_generator_tallies, ref_nonstable_instances,
                      ref_restriction)


def M(*exps):
    return Monomial(tuple(exps))


def test_exhaustive_family_examples():
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=2, mode="exhaustive")
    fam = list(enumerate_family(spec))
    ctx = spec.context()
    b = ctx.powers_ideal()
    assert b in fam
    assert minimalize(ctx, list(b.gens) + [M(1, 1)]) in fam
    assert len(fam) == 2  # the ideals between b and the square of the max ideal
    # max_deg below the powers: only b
    only_b = list(enumerate_family(
        FamilySpec(n=2, powers=(2, 2), max_deg=1, mode="exhaustive")))
    assert only_b == [b]


def test_random_family_determinism():
    spec = FamilySpec(n=3, powers=(2,), max_deg=3, count=20, seed=9)
    a = [format_ideal(I) for I in enumerate_family(spec)]
    b = [format_ideal(I) for I in enumerate_family(spec)]
    assert a == b
    other = FamilySpec(n=3, powers=(2,), max_deg=3, count=20, seed=10)
    assert a != [format_ideal(I) for I in enumerate_family(other)]


def test_exhaustive_cap():
    with pytest.raises(ResourceLimitError, match=r"^the exhaustive family has at least \d+ "
                                                 r"ideals, above limits.INSTANCE_LIMIT = "):
        list(enumerate_family(FamilySpec(n=4, max_deg=4, mode="exhaustive")))


# (n, powers, max_deg, with_z): every class whose 2^|pool| subsets the scan
# oracle lists within limits.INSTANCE_LIMIT
SCANNED_CLASSES = [
    *((n, d, D, z) for n, d, D in [(2, (2, 2), 2), (2, (2, 2), 3), (2, (2, 3), 4), (3, (), 2)]
      for z in (False, True)),
    (3, (2, 2), 3, False), (3, (2, 2, 2), 3, False), (4, (2, 2, 2, 2), 4, False),
    (2, (), 3, False), (2, (3,), 4, False),
]


@pytest.mark.parametrize("n, powers, max_deg, with_z", SCANNED_CLASSES)
def test_exhaustive_family_lists_the_scanned_ideals_in_order(n, powers, max_deg, with_z):
    spec = FamilySpec(n, powers=powers, max_deg=max_deg, with_z=with_z, mode="exhaustive")
    assert list(enumerate_family(spec)) == ref_exhaustive_ideals(spec)


def count_antichains(sets: list[int]) -> int:
    """Antichains under inclusion of the bitmasks ``sets``: each set is left
    out, or taken when it neither contains nor lies in a set taken before."""
    def count(i, taken):
        if i == len(sets):
            return 1
        s = sets[i]
        free = all(a & s != a and a & s != s for a in taken)
        return count(i + 1, taken) + (count(i + 1, taken + [s]) if free else 0)
    return count(0, [])


@pytest.mark.parametrize("n, want", [(4, 114), (5, 6894)])
def test_all_squares_family_counts_the_antichains_of_subsets(n, want):
    # with every power a square and maxdeg = n the pool is the square-free
    # monomials of degree >= 2: the subsets of [n] of size at least 2
    sets = [s for s in range(1 << n) if s.bit_count() >= 2]
    assert count_antichains(sets) == want
    spec = FamilySpec(n, powers=(2,) * n, max_deg=n, mode="exhaustive")
    assert sum(1 for _ in enumerate_family(spec)) == want


def test_exhaustive_family_counts_ideals_against_the_instance_limit(monkeypatch):
    spec = FamilySpec(4, powers=(2, 2, 2, 2), max_deg=4, mode="exhaustive")
    monkeypatch.setattr(limits, "INSTANCE_LIMIT", 113)
    with pytest.raises(ResourceLimitError, match="limits.INSTANCE_LIMIT = 113"):
        list(enumerate_family(spec))
    monkeypatch.setattr(limits, "INSTANCE_LIMIT", 114)
    assert len(list(enumerate_family(spec))) == 114


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.lists(st.integers(2, 5), max_size=5),
       st.integers(0, 10))
def test_pool_is_counted_before_it_is_listed(nx, with_z, powers, max_deg):
    ctx = FamilySpec(nx, powers=tuple(sorted(powers))[:nx], with_z=with_z).context()
    lo = ctx.powers[-1] if ctx.powers else 1
    want = [m for d in range(lo, max_deg + 1) for m in ctx.monomials(d, bounded=True)]
    if len(want) <= POOL_LIMIT:
        assert _basis_pool(ctx, max_deg) == want
    else:
        with pytest.raises(ResourceLimitError, match="limits.POOL_LIMIT"):
            _basis_pool(ctx, max_deg)


def test_pool_limit():
    # in one variable the pool is one candidate per degree
    assert len(_basis_pool(RingContext(1), POOL_LIMIT)) == POOL_LIMIT
    assert next(enumerate_family(FamilySpec(1, max_deg=POOL_LIMIT)))
    t0 = time.perf_counter()
    for spec in (FamilySpec(1, max_deg=POOL_LIMIT + 1),
                 FamilySpec(POOL_LIMIT + 1, max_deg=1),  # one past in degree 1
                 FamilySpec(10**9, max_deg=3), FamilySpec(3, max_deg=10**12),
                 FamilySpec(2, powers=(10**12, 10**12), max_deg=10**15)):
        with pytest.raises(ResourceLimitError, match="limits.POOL_LIMIT"):
            next(enumerate_family(spec))
    # a bounded basis ends: one candidate, x1*x2^(10^12 - 1), whatever max_deg
    assert len(_basis_pool(RingContext(2, powers=(2, 10**12)), 10**15)) == 1
    assert time.perf_counter() - t0 < 1.0


def test_family_ideals_contain_powers():
    spec = FamilySpec(n=2, powers=(2, 3), max_deg=4, count=15, seed=1)
    b = spec.context().powers_ideal()
    for I in enumerate_family(spec):
        assert I.contains_ideal(b)


def test_stable_and_nonstable_streams():
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True, count=6, seed=3)
    for I in stable_instances(spec):
        assert zs.is_z_stable(zs.z_decompose(I))
    count = 0
    for I in nonstable_instances(spec):
        assert not zs.is_z_stable(zs.z_decompose(I))
        count += 1
    assert count == 6


def _equal_everywhere(rec) -> bool:
    """Whether both quotients of a cohomology record have the same rows."""
    quotient, lpp = rec.cohomology["quotient"], rec.cohomology["lpp"]
    return [r["values"] for r in quotient] == [r["values"] for r in lpp]


@pytest.mark.parametrize("spec", [
    FamilySpec(1, max_deg=3, with_z=True, count=30, seed=0),
    FamilySpec(2, max_deg=3, with_z=True, count=40, seed=1),
    FamilySpec(3, max_deg=2, with_z=True, count=30, seed=5, max_extra_gens=3),
    FamilySpec(2, powers=(2, 2), max_deg=3, with_z=True, count=40, seed=3),
    FamilySpec(2, powers=(2,), max_deg=4, with_z=True, count=30, seed=7),
    FamilySpec(3, powers=(2, 2), max_deg=3, with_z=True, count=20, seed=0),
])
def test_nonstable_instances_match_the_per_draw_oracle(spec):
    assert list(nonstable_instances(spec)) == list(ref_nonstable_instances(spec))


def test_cohomology_lpp_spec_instances():
    ctxp = RingContext(2, powers=(2,))
    I = MonomialIdeal.make(ctxp, [M(2, 0), M(0, 3)])
    rec = verify_cohomology_lpp(I)
    assert rec.passed and _equal_everywhere(rec)
    assert rec.lpp == "x1^2, x1*x2^2, x2^4"
    # equality when the ideal is b itself
    rec_b = verify_cohomology_lpp(ctxp.powers_ideal())
    assert rec_b.passed and _equal_everywhere(rec_b)
    # a nontrivial comparison in three variables
    ctx3 = RingContext(3, powers=(2,))
    rec3 = verify_cohomology_lpp(MonomialIdeal.make(
        ctx3, [M(2, 0, 0), M(0, 1, 1)]))
    assert rec3.passed and not _equal_everywhere(rec3)


def test_lex_cohomology_instances():
    ctx = RingContext(2)
    rec = verify_lex_cohomology(MonomialIdeal.make(ctx, [M(1, 1)]))
    assert rec.passed and rec.lpp == "x1^2"
    # already lex: equality
    rec2 = verify_lex_cohomology(MonomialIdeal.make(ctx, [M(1, 0)]))
    assert rec2.passed


def test_corner_and_region_instances():
    ctxp = RingContext(2, powers=(2,))
    I = MonomialIdeal.make(ctxp, [M(2, 0), M(0, 3)])
    assert verify_betti_lpp_corners(I).passed
    assert verify_region_inclusion(I).passed
    assert verify_betti_lpp_corners(ctxp.powers_ideal()).passed


def test_lpp_corners_report_the_first_failing_corner(monkeypatch):
    # the complete intersection x1^2, x2^2, x3*x4 has the one corner (3, 6);
    # with its cohomology off by one, every corner identity breaks, and the
    # first to fail is I's corner, checked before those of LPP(I)
    I = MonomialIdeal.make(RingContext(4, powers=(2, 2)),
                           [M(2, 0, 0, 0), M(0, 2, 0, 0), M(0, 0, 1, 1)])
    real = verify.cohomology_table
    shifted = set()

    def table(J, window=None, backend="combinatorial"):
        T = real(J, window, backend)
        if J not in shifted:
            return T
        return replace(T, rows={i: tuple(v + 1 for v in row) for i, row in T.rows.items()})

    monkeypatch.setattr(verify, "cohomology_table", table)
    shifted.update((I, embeddings.lpp_ideal(I)))
    rec = verify_betti_lpp_corners(I)
    assert rec.checks == {"corner_le": True, "corner_identity": False}
    assert rec.first_fail == (3, 6)
    # with b in place of LPP(I), beta_24 = 3 > 1 breaks corner_le at b's
    # corner (2, 4), which comes before I's broken identity at (3, 6)
    monkeypatch.setattr(verify, "lpp_ideal", lambda J: J.ctx.powers_ideal())
    shifted.clear()
    shifted.add(I)
    rec = verify_betti_lpp_corners(I)
    assert rec.checks == {"corner_le": False, "corner_identity": False}
    assert rec.first_fail == (2, 4)


POWERS_EXAMPLE = MonomialIdeal.make(RingContext(3, powers=(2, 2)), [
    M(2, 0, 0), M(0, 2, 0), M(1, 0, 2), M(0, 1, 3)])


def test_harness_computes_each_table_once(monkeypatch):
    betti_calls = count_calls(monkeypatch, betti.betti_table)
    cell_calls = count_calls(monkeypatch, localcohom._takayama_cells)
    ext_calls = count_calls(monkeypatch, localcohom._ext_cells)
    I = POWERS_EXAMPLE
    assert verify_cohomology_lpp(I).passed
    assert verify_cohomology_lpp(I, backend="ext").passed
    assert verify_lex_cohomology(MonomialIdeal.make(
        RingContext(3), [M(1, 1, 0), M(0, 1, 2)])).passed
    assert len(betti_calls) == 0
    assert len(cell_calls) == 4 and len(ext_calls) == 2
    assert verify_betti_lpp_corners(I).passed
    assert len(betti_calls) == 2


def test_lemma_suite_embeds_the_instance_once(monkeypatch):
    # the top-partial-sums lemma takes the suite's embedding instead of
    # embedding the instance again
    calls = count_calls(monkeypatch, embeddings._embed_matching_series)
    ctx = RingContext(2, powers=(2, 2)).add_z()
    I = MonomialIdeal.make(ctx, [M(2, 0, 0), M(0, 2, 0), M(1, 1, 0), M(0, 1, 1)])
    assert zs.is_z_stable(zs.z_decompose(I))
    rec = verify_embedding_lemmas(I)
    assert rec.passed and "top_partial_sums" in rec.checks
    assert sum(args[0] == I for args in calls) == 1
    assert len(calls) > 1  # the bar is embedded too


def test_lemma_suite_checks_each_chain_for_stability_once(monkeypatch):
    # is_z_stable on I and on E searches each chain once; the chains are
    # memoized with their answers, which a later stability test, the
    # top-partial-sums lemma and a second run of the suite read back
    calls = count_calls(monkeypatch, zs._first_violation)
    ctx = RingContext(2, powers=(2, 2)).add_z()
    I = MonomialIdeal.make(ctx, [M(2, 0, 0), M(0, 2, 0), M(1, 1, 0), M(0, 1, 1)])
    rec = verify_embedding_lemmas(I)
    assert rec.passed and "top_partial_sums" in rec.checks
    assert len(calls) == 2
    dec, decE = zs.z_decompose(I), zs.z_decompose(embeddings.epsilon_one(I))
    assert zs.is_z_stable(dec) and verify._top_partial_sums(dec, decE) is True
    assert verify_embedding_lemmas(I).passed
    assert len(calls) == 2


def test_lemma_suite_decomposes_each_ideal_along_z_once(monkeypatch):
    # I and E once each for the suite, whose decompositions the checks of
    # the genuine embedding and the top-partial-sums lemma reuse
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=4, with_z=True,
                      count=50, seed=0)
    instances = list(stable_instances(spec))
    calls = count_calls(monkeypatch, zs.z_decompose)
    for I in instances:
        calls.clear()
        assert verify_embedding_lemmas(I).passed
        assert len(calls) == 2


def test_lemma_suite_reads_each_component_window_once(monkeypatch):
    # every window (the bars' and the top-partial-sums lemma's) is read off
    # the chains' stored numerators: no ideal_window, and one numerator
    # per component of each chain.  The genuine embedding's restriction
    # inequality follows from z_order_compare, so the suite reads only the
    # bottom and top windows of each chain, none of the restriction scan
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=4, with_z=True,
                      count=30, seed=0)
    expected = []
    instances = list(stable_instances(spec))
    for I in instances:
        P = I.plus_powers()
        E = embeddings.epsilon_one(P)
        expected.append(sum(len(zs.z_decompose(X).components) for X in {P, E}))
    windows = count_calls(monkeypatch, ideal_window)
    numerators = []  # the chains' numerator reads

    def counted(gens):
        numerators.append(gens)
        return zs_numerator(gens)

    zs_numerator = zs._numerator
    monkeypatch.setattr(zs, "_numerator", counted)
    levels = []  # whether each chain window read is of a bottom or top component
    real_window = zs.ZGradedIdeal.window

    def window(Z, h, upto):
        levels.append(min(h, Z.s) in (0, Z.s))
        return real_window(Z, h, upto)

    monkeypatch.setattr(zs.ZGradedIdeal, "window", window)
    restriction = count_calls(monkeypatch, verify._restriction_fail)
    for I, want in zip(instances, expected):
        zs._decomposition.cache_clear()  # fresh chains, none of their facts stored
        numerators.clear()
        levels.clear()
        assert verify_embedding_lemmas(I).passed
        assert len(numerators) == want
        assert len(levels) == 4 and all(levels)
    assert windows == [] and restriction == []


def test_lemma_suite_raises_a_refusal_of_the_genuine_embedding():
    # m*(x1, z^399) = (x1^2, x1*z, z^400) has lcm degree 402: the embedding
    # of its series is refused, which is no failed lemma
    ctx = RingContext(1, powers=(2,)).add_z()
    I = MonomialIdeal.make(ctx, [M(1, 0), M(0, 399)])
    with pytest.raises(ResourceLimitError, match="limits.NUMERATOR_DEGREE_LIMIT"):
        verify_embedding_lemmas(I)


@st.composite
def times_m_inputs(draw):
    """A context with 1..4 x variables, with or without powers and z, and an
    ideal of it: random (holding b), zero, unit, or a P without b."""
    nx = draw(st.integers(1, 4))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers)
    ctx = ctx.add_z() if draw(st.booleans()) else ctx
    kind = draw(st.sampled_from(["random", "random", "zero", "unit", "without b"]))
    if kind == "zero":
        return MonomialIdeal.zero(ctx)
    if kind == "unit":
        return MonomialIdeal.unit(ctx)
    P = random_ideal(draw(st.randoms(use_true_random=False)), ctx, 3, 4)
    if kind == "without b":
        P = MonomialIdeal.make(ctx, [g for g in P.gens if not ctx.powers_ideal().contains(g)])
    return P


@given(times_m_inputs())
@settings(max_examples=300, deadline=None)
def test_the_series_of_m_times_an_ideal_is_read_off_its_generator_tallies(P):
    # numer(m*P + b) = numer(P + b) + (1-t)^n sum_d tallies[d] t^d, against
    # the series of the product
    ctx = P.ctx
    Pb = P.plus_powers()
    closed = verify._times_m_numerator(hilbert_series(Pb).numer,
                                       _generator_tallies(P, Pb.max_gen_degree()), ctx.n)
    assert closed == hilbert_series(ideal_product(ctx.max_ideal(), P).plus_powers()).numer


def test_m_times_i_past_the_old_bound_reads_the_closed_form(monkeypatch):
    # lcm_degree(P) + n = 11, yet under a limit of 10 the suite still reads
    # the series of m*P + b off P's and forms no product: the record is the
    # one under the default limit
    ctx = RingContext(2, powers=(2, 3)).add_z()
    P = MonomialIdeal.make(ctx, [M(2, 0, 0), M(1, 2, 0), M(0, 3, 0), M(0, 2, 1), M(1, 1, 2),
                                 M(1, 0, 3), M(0, 1, 3)])
    assert zs.is_z_stable(zs.z_decompose(P)) and lcm_degree(P) + ctx.n == 11
    products = count_calls(monkeypatch, ideal_product)
    raised = verify_embedding_lemmas(P)
    assert raised.passed and raised.lpp != raised.ideal
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 10)
    assert verify_embedding_lemmas(P) == raised
    assert products == []
    # the embedding of the series of m*I + b stays refused: (x1, z^399)
    I = MonomialIdeal.make(RingContext(1, powers=(2,)).add_z(), [M(1, 0), M(0, 399)])
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 400)
    assert lcm_degree(I) + I.ctx.n == 402
    with pytest.raises(ResourceLimitError, match="no certified embedding by degree 401, "
                                                 "above limits.NUMERATOR_DEGREE_LIMIT = 400$"):
        verify_embedding_lemmas(I)
    assert products == []


@st.composite
def z_chains(draw):
    """The chain of a preimage with 1..3 x variables, with or without
    powers, as drawn or z-stabilized."""
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    I = random_ideal(draw(st.randoms(use_true_random=False)), ctx, 3, 4)
    return zs.z_stabilize(I) if draw(st.booleans()) else zs.z_decompose(I)


def _saturations_agree(dec):
    m_R = dec.ctx.drop_z().max_ideal()
    return saturate(dec.components[-1], m_R) == saturate(dec.components[0], m_R)


@given(z_chains())
@settings(max_examples=300, deadline=None)
def test_bar_swap_is_read_off_the_numerators(dec):
    # the divisibility test needs only I_<0> <= I_<s>, which every chain has
    assert verify._bar_swap_holds(dec) == _saturations_agree(dec)


def test_bar_swap_sees_both_outcomes():
    # (x1, x2 z) in K[x1, x2][z]: the bar (x1) and the top (x1, x2) differ
    # by a module of dimension 1, whose series (1-t) t / (1-t)^2 one
    # division by 1 - t leaves no polynomial
    ctx = RingContext(2).add_z()
    dec = zs.z_decompose(MonomialIdeal.make(ctx, [M(1, 0, 0), M(0, 1, 1)]))
    assert not verify._bar_swap_holds(dec) and not _saturations_agree(dec)
    # a z-stable chain has m_R^s I_<s> inside I_<0>, so only drawn chains
    # can make the two saturations differ
    rng = random.Random(11)
    seen = set()
    for ctx in (ctx, RingContext(3).add_z(), RingContext(2, powers=(2, 3)).add_z()):
        for _ in range(40):
            I = random_ideal(rng, ctx, 3, 4)
            dec = zs.z_decompose(I)
            seen.add(verify._bar_swap_holds(dec))
            assert verify._bar_swap_holds(dec) == _saturations_agree(dec)
            assert verify._bar_swap_holds(zs.z_stabilize(I))
    assert seen == {True, False}


def test_lemma_suite_refuses_a_genuine_embedding_that_breaks_its_theorems(monkeypatch):
    # the default embedding must be z-stable with embedded components; the
    # suite checks both on its own decomposition of E
    ctx = RingContext(2, powers=(2, 2)).add_z()
    I = MonomialIdeal.make(ctx, [M(2, 0, 0), M(0, 2, 0), M(1, 1, 0), M(0, 1, 1)])
    not_stable = MonomialIdeal.make(ctx, [M(0, 1, 1)]).plus_powers()
    monkeypatch.setattr(verify, "epsilon_one", lambda P: not_stable)
    with pytest.raises(AssertionError, match=r"non-z-stable ideal \(bug\)$"):
        verify_embedding_lemmas(I)
    monkeypatch.setattr(verify, "epsilon_one", embeddings.epsilon_one)
    monkeypatch.setattr(zs, "is_embedded", lambda J: False)
    memos.clear_all()  # E's chain may have stored the genuine answer
    with pytest.raises(AssertionError, match=r"non-embedded component \(bug\)$"):
        verify_embedding_lemmas(I)
    # a substituted embedding is the mutation tests' business, not a defect
    assert not verify_embedding_lemmas(I, epsilon=lambda P: not_stable).checks["image_z_stable"]


def test_embedding_lemma_suite_and_mutation():
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True,
                      count=8, seed=21)
    instances = list(stable_instances(spec))
    for I in instances:
        assert verify_embedding_lemmas(I).passed
    # the corrupted embedding must trip at least one lemma somewhere
    failures = sum(
        0 if verify_embedding_lemmas(I, epsilon=corrupt_epsilon).passed else 1
        for I in instances
    )
    assert failures >= 1


@st.composite
def stable_lemma_inputs(draw):
    """A z-stable instance with or without powers, and the genuine or the
    corrupted embedding."""
    nx = draw(st.integers(1, 2))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    rng = draw(st.randoms(use_true_random=False))
    I = zs.z_recompose(zs.z_stabilize(random_ideal(rng, ctx, 3, 4)))
    return I, draw(st.sampled_from([None, corrupt_epsilon]))


def _check_restriction_against_reference(I, epsilon):
    rec = verify_embedding_lemmas(I, epsilon=epsilon)
    P = I.plus_powers()
    E = embeddings.epsilon_one(P) if epsilon is None else epsilon(P)
    W = zs.default_window(P, E)
    ok, fail = ref_restriction(P, E, W)
    assert rec.checks["restriction_ineq"] == ok
    # the window scan, which the suite skips when z_order_compare already
    # orders the chains, names the reference's first failure on every input
    assert verify._restriction_fail(zs.z_decompose(P), zs.z_decompose(E), W) == fail
    if rec.checks["generator_counts"]:  # otherwise that check's fail comes first
        assert rec.first_fail == fail
    return ok


@given(stable_lemma_inputs())
@settings(max_examples=60, deadline=None)
def test_restriction_check_matches_the_sum_window_reference(inputs):
    _check_restriction_against_reference(*inputs)


@given(stable_lemma_inputs())
@settings(max_examples=60, deadline=None)
def test_multiply_then_embed_needs_no_product_of_the_image(inputs):
    # eps(m*I) >= m*E + b, read generator by generator, against the
    # containment of the product ideal, for the genuine and the corrupted
    # images on either side
    I, _ = inputs
    P = I.plus_powers()
    m = P.ctx.max_ideal()
    images = [(embed(P), embed(ideal_product(m, P).plus_powers()))
              for embed in (embeddings.epsilon_one, corrupt_epsilon)]
    for E, _ in images:
        for _, EmI in images:
            assert verify._holds_m_times(EmI, E) == \
                EmI.contains_ideal(ideal_product(m, E).plus_powers())


def test_multiply_then_embed_asks_for_the_powers_too():
    # P = (x1^3, z) holds m * (z^5) but not b = (x1^2)
    ctx = RingContext(1, powers=(2,)).add_z()
    P = MonomialIdeal.make(ctx, [M(3, 0), M(0, 1)])
    E = MonomialIdeal.make(ctx, [M(0, 5)])
    assert not P.contains_ideal(ideal_product(ctx.max_ideal(), E).plus_powers())
    assert not verify._holds_m_times(P, E)
    assert verify._holds_m_times(P.plus_powers(), E)


def test_corrupted_embedding_trips_the_restriction_like_the_reference():
    trips = 0
    for spec in (FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True, count=8, seed=21),
                 FamilySpec(n=1, powers=(2,), max_deg=3, with_z=True, count=12, seed=2)):
        for I in stable_instances(spec):
            assert _check_restriction_against_reference(I, None)
            trips += not _check_restriction_against_reference(I, corrupt_epsilon)
    assert trips >= 1


def test_lemma_suite_adds_no_z_power_to_an_ideal(monkeypatch):
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=4, with_z=True, count=10, seed=0)
    instances = list(stable_instances(spec))
    calls = count_calls(monkeypatch, core.ideal_sum)
    for I in instances:
        assert verify_embedding_lemmas(I).passed
    assert calls  # plus_powers still sums with b
    for args in calls:
        for J in args:
            assert not (J.ctx.z and len(J.gens) == 1 and not any(J.gens[0].exps[:-1]))


def test_generator_tallies_match_the_monomial_count():
    # the series identity against the definition: S-basis monomials of P
    # minus those of m*P + b, degree by degree
    rng = random.Random(5)
    W = 7
    for ctx in (RingContext(3), RingContext(3, powers=(2, 2)),
                RingContext(2).add_z(), RingContext(2, powers=(2, 3)).add_z()):
        ideals = [random_ideal(rng, ctx, 4, 4) for _ in range(10)]
        ideals += [MonomialIdeal.zero(ctx), MonomialIdeal.unit(ctx)]
        if ctx.powers:  # a P without b, as a corrupted embedding may return
            ideals.append(MonomialIdeal.make(ctx, [ctx.variable(0).mul(ctx.variable(1))]))
            assert not ideals[-1].contains_ideal(ctx.powers_ideal())
        for P in ideals:
            mP = ideal_product(ctx.max_ideal(), P).plus_powers()
            brute = tuple(graded_piece_dim(P, d) - graded_piece_dim(mP, d)
                          for d in range(W + 1))
            assert _generator_tallies(P, W) == brute, (ctx, P)


@st.composite
def tally_inputs(draw):
    """A context with or without powers and z, and an ideal of it: random
    (holding b), zero, unit, or a P without b."""
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers)
    ctx = ctx.add_z() if draw(st.booleans()) else ctx
    kind = draw(st.sampled_from(["random", "zero", "unit", "without b"]))
    if kind == "zero":
        P = MonomialIdeal.zero(ctx)
    elif kind == "unit":
        P = MonomialIdeal.unit(ctx)
    else:
        rng = draw(st.randoms(use_true_random=False))
        P = random_ideal(rng, ctx, 4, 4)
        if kind == "without b":
            P = MonomialIdeal.make(ctx, [g for g in P.gens
                                         if not ctx.powers_ideal().contains(g)])
    return P


@given(tally_inputs(), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_generator_tallies_match_the_series_reference(P, upto):
    assert _generator_tallies(P, upto) == ref_generator_tallies(P, upto)


def test_generator_tallies_compute_no_hilbert_series(monkeypatch):
    calls = count_calls(monkeypatch, hilbert_series)
    ctx = RingContext(2, powers=(2, 3)).add_z()
    for P in (MonomialIdeal.make(ctx, [M(1, 1, 0), M(0, 1, 1)]),
              MonomialIdeal.make(ctx, [M(2, 0, 0), M(0, 3, 0), M(0, 2, 1)]),
              MonomialIdeal.zero(ctx), MonomialIdeal.unit(ctx)):
        assert _generator_tallies(P, 6) == ref_generator_tallies(P, 6)
        calls.clear()
        _generator_tallies(P, 6)
        assert calls == []


def test_corrupted_embedding_trips_generator_counts():
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True,
                      count=8, seed=21)
    assert any(
        not verify_embedding_lemmas(I, epsilon=corrupt_epsilon).checks["generator_counts"]
        for I in stable_instances(spec)
    )


def test_corrupted_embedding_trips_top_partial_sums():
    # the lemma runs for a substituted embedding too
    spec = FamilySpec(n=2, powers=(2, 2), max_deg=3, with_z=True,
                      count=8, seed=21)
    records = [verify_embedding_lemmas(I, epsilon=corrupt_epsilon)
               for I in stable_instances(spec)]
    assert all("top_partial_sums" in r.checks for r in records)
    assert any(not r.checks["top_partial_sums"] for r in records)


def _plus_one_monomial(rng):
    """A mutant embedding: the genuine one plus one random monomial outside
    it, of degree 1 to one past its top generator degree."""
    def epsilon(P):
        E = embeddings.epsilon_one(P)
        d = rng.randint(1, E.max_gen_degree() + 1)
        outside = [m for m in E.ctx.monomials(d) if not E.contains(m)]
        if not outside:
            return E
        return core.ideal_sum(E, MonomialIdeal.make(E.ctx, [rng.choice(outside)]))
    return epsilon


def test_an_added_monomial_trips_saturated_bars_agree():
    # R = K[x1, x2, x3] is not Artinian, so a bar's saturation by m_R can move
    instances = list(stable_instances(FamilySpec(n=3, max_deg=3, with_z=True, count=40)))
    assert all(verify_embedding_lemmas(I).checks["saturated_bars_agree"] for I in instances)
    epsilon = _plus_one_monomial(random.Random(0))
    assert any(not verify_embedding_lemmas(I, epsilon=epsilon).checks["saturated_bars_agree"]
               for I in instances)


def _failing(I) -> list[str]:
    return [key for key, ok in verify_embedding_lemmas(I).checks.items() if not ok]


def test_a_replaced_stored_bar_saturation_trips_saturated_bars_agree():
    # the check fails alone, apart from bars_agree_high
    instances = list(dict.fromkeys(stable_instances(
        FamilySpec(n=3, max_deg=3, with_z=True, count=5))))
    assert len(instances) == 5
    for I in instances:
        memos.clear_all()  # two instances can share an embedding's chain
        assert verify_embedding_lemmas(I).passed
        decE = zs.z_decompose(embeddings.epsilon_one(I))
        unit = MonomialIdeal.unit(I.ctx.drop_z())
        assert decE.bar_saturation != unit
        vars(decE)["bar_saturation"] = unit  # the chain is the one the suite reads
        assert _failing(I) == ["saturated_bars_agree"]


def test_an_added_monomial_trips_bars_agree_high():
    instances = list(stable_instances(FamilySpec(n=3, max_deg=3, with_z=True, count=40)))
    assert all(verify_embedding_lemmas(I).checks["bars_agree_high"] for I in instances)
    epsilon = _plus_one_monomial(random.Random(0))
    assert any(not verify_embedding_lemmas(I, epsilon=epsilon).checks["bars_agree_high"]
               for I in instances)


def test_a_replaced_stored_window_trips_bars_agree_high():
    # the check fails alone, apart from saturated_bars_agree, on a chain with
    # s >= 1; with s = 0 the bottom window is the top one, and
    # top_partial_sums trips too
    instances = list(dict.fromkeys(stable_instances(
        FamilySpec(n=3, max_deg=3, with_z=True, count=10))))
    tried = 0
    for I in instances:
        memos.clear_all()  # two instances can share an embedding's chain
        E = embeddings.epsilon_one(I)
        decE = zs.z_decompose(E)  # the chain the suite reads
        if decE.s < 1:
            continue
        tried += 1
        assert verify_embedding_lemmas(I).passed
        held = decE.window(0, 2 * zs.default_window(I, E))
        decE._windows[0] = tuple(x + 1 for x in held)  # a shorter read is a slice of it
        assert _failing(I) == ["bars_agree_high"]
    assert tried >= 4


def test_a_term_added_to_a_stored_bottom_numerator_trips_saturate_bar_swap():
    # the check guards the stored numerators of the chain, not the embedding:
    # one more term in the bottom one, on every chain with s >= 1
    instances = list(dict.fromkeys(stable_instances(
        FamilySpec(n=2, powers=(2, 2), max_deg=4, with_z=True, count=20))))
    tried = 0
    for I in instances:
        dec = zs.z_decompose(I.plus_powers())  # the chain the suite reads
        if dec.s < 1:
            continue
        tried += 1
        assert verify_embedding_lemmas(I).passed
        numers = dec.numerators()
        vars(dec)["_numers"] = ((*numers[0], 1),) + numers[1:]
        checks = verify_embedding_lemmas(I).checks
        assert [key for key, ok in checks.items() if not ok] == ["saturate_bar_swap"]
    assert tried >= 10


def _lpp_of_plus_x1_xn(I):
    """A mutant LPP map: the genuine LPP of I + (x1 * xn)."""
    n = I.ctx.n
    x1_xn = M(*(1 if k in (0, n - 1) else 0 for k in range(n)))
    return embeddings.lpp_ideal(core.ideal_sum(I, MonomialIdeal.make(I.ctx, [x1_xn])))


MUTATED_LPP_FAMILY = FamilySpec(3, powers=(2, 2, 3), max_deg=4, count=40, seed=3)


def test_lpp_of_i_plus_x1_xn_trips_cohomology_le_on_warm_memos(monkeypatch):
    # the genuine theorem warms every memo, the table memo among them, so
    # the mutant's tables show that no stale table is served
    instances = list(enumerate_family(MUTATED_LPP_FAMILY))
    assert all(verify_cohomology_lpp(I).checks["cohomology_le"] for I in instances)
    monkeypatch.setattr(verify, "lpp_ideal", _lpp_of_plus_x1_xn)
    trips = [not verify_cohomology_lpp(I).checks["cohomology_le"] for I in instances]
    assert sum(trips) == len(instances) == 40


def test_lpp_of_i_plus_x1_xn_trips_region_dominated_on_warm_memos(monkeypatch):
    instances = list(enumerate_family(MUTATED_LPP_FAMILY))
    assert all(verify_region_inclusion(I).checks["region_dominated"] for I in instances)
    monkeypatch.setattr(verify, "lpp_ideal", _lpp_of_plus_x1_xn)
    trips = [not verify_region_inclusion(I).checks["region_dominated"] for I in instances]
    assert sum(trips) == 17


def _drop_the_last_generator(I):
    """A mutant map: ``I`` less its last generator that is not a power
    generator, so that it stays a preimage."""
    powers = set(I.ctx.powers_ideal().exps)
    drop = [e for e in I.exps if e not in powers][-1:]
    return MonomialIdeal(I.ctx, tuple(e for e in I.exps if e not in drop))


def test_a_dropped_generator_trips_same_hilbert():
    instances = list(stable_instances(FamilySpec(n=3, max_deg=3, with_z=True, count=20)))
    assert all(verify_embedding_lemmas(I).checks["same_hilbert"] for I in instances)

    def epsilon(P):
        return _drop_the_last_generator(embeddings.epsilon_one(P))

    trips = [not verify_embedding_lemmas(I, epsilon=epsilon).checks["same_hilbert"]
             for I in instances]
    assert any(trips)


def _top_less_its_last_generator(genuine):
    """A mutant stabilizer: the chain of ``genuine``, its top component less
    its last generator."""
    def stabilizer(I):
        Z = genuine(I)
        return zs.ZGradedIdeal(Z.ctx, (*Z.components[:-1],
                                       _drop_the_last_generator(Z.components[-1])))
    return stabilizer


def test_a_dropped_generator_trips_hilbert_preserved_and_weakly_increased(monkeypatch,
                                                                          tmp_path):
    spec = FamilySpec(n=2, max_deg=3, with_z=True, count=20)
    instances = list(nonstable_instances(spec))
    assert all(verify_zstabilize(I).passed for I in instances)
    monkeypatch.setattr(zs, "z_stabilize", _top_less_its_last_generator(zs.z_stabilize))
    records = [verify_zstabilize(I) for I in instances]
    assert any(not r.checks["hilbert_preserved"] for r in records)
    assert any(not r.checks["weakly_increased"] for r in records)
    # the CLI reports the broken contract as failed checks, exit 1, and not
    # as the order's refusal of two Hilbert functions, exit 2
    out = tmp_path / "zs.json"
    assert cli.main(["verify", "zstabilize", "--family", "n=2,z=1,maxdeg=3", "--samples", "20",
                     "--json", str(out)]) == 1
    failed = [r["checks"] for r in json.loads(out.read_text())["instances"]
              if not r["checks"]["hilbert_preserved"]]
    assert failed and not any(checks["weakly_increased"] for checks in failed)


def _increases(Z) -> bool:
    """Each component of the chain lies in the next."""
    return all(upper.contains_ideal(lower)
               for lower, upper in zip(Z.components, Z.components[1:]))


def test_a_dropped_generator_that_breaks_the_chain_trips_stable(monkeypatch, tmp_path):
    # the mutant chain stays z-stable, but a lower component can keep the
    # dropped generator; then the recomposition holds it and the components
    # do not, so hilbert_preserved can pass while weakly_increased fails
    spec = FamilySpec(n=2, max_deg=3, with_z=True, count=20)
    instances = list(nonstable_instances(spec))
    assert all(_increases(zs.z_stabilize(I)) for I in instances)
    stabilizer = _top_less_its_last_generator(zs.z_stabilize)
    increasing = [_increases(stabilizer(I)) for I in instances]
    assert increasing.count(False) == 9
    monkeypatch.setattr(zs, "z_stabilize", stabilizer)
    records = [verify_zstabilize(I) for I in instances]
    assert [r.checks["stable"] for r in records] == increasing
    assert any(r.checks["hilbert_preserved"] for r in records if not r.checks["stable"])
    out = tmp_path / "zs.json"
    assert cli.main(["verify", "zstabilize", "--family", "n=2,z=1,maxdeg=3", "--samples", "20",
                     "--json", str(out)]) == 1
    unstable = {r["ideal"] for r in json.loads(out.read_text())["instances"]
                if not r["checks"]["stable"]}
    assert unstable == {format_ideal(I) for I, ok in zip(instances, increasing) if not ok}


def test_zstabilize_record():
    ctx = RingContext(2).add_z()
    rec = verify_zstabilize(MonomialIdeal.make(ctx, [M(1, 0, 1)]))
    assert rec.passed


def test_report_json_is_deterministic():
    spec = FamilySpec(n=2, powers=(2,), max_deg=3, count=5, seed=4)
    r1 = run_family("lpp-cohomology", spec)
    r2 = run_family("lpp-cohomology", spec)
    j1 = json.dumps(r1.to_json_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_json_dict(), sort_keys=True)
    assert j1 == j2
    assert r1.passed and r1.summary() == {"total": 5, "passed": 5, "failed": 0}


def test_parallel_pool_matches_sequential():
    spec = FamilySpec(n=2, powers=(2,), max_deg=3, count=6, seed=8)
    seq = run_family("region", spec, jobs=1)
    par = run_family("region", spec, jobs=2)
    assert json.dumps(seq.to_json_dict(), sort_keys=True) == \
        json.dumps(par.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("theorem, spec", [
    ("region", FamilySpec(n=2, powers=(2,), max_deg=3, count=40, seed=3)),
    ("embedding-lemmas", FamilySpec(n=1, powers=(2,), max_deg=3, with_z=True,
                                    count=20, seed=1)),
])
def test_run_family_checks_each_distinct_instance_once(monkeypatch, theorem, spec):
    kind, op = verify.THEOREMS[theorem]
    instances = list({"family": enumerate_family,
                      "stable": stable_instances}[kind](spec))
    assert len(set(instances)) < len(instances)  # the family repeats ideals
    calls = []

    def counted(I):
        calls.append(I)
        return op(I)

    monkeypatch.setitem(verify.THEOREMS, theorem, (kind, counted))
    report = run_family(theorem, spec)
    assert len(calls) == len(set(calls)) == len(set(instances))
    # the same report as checking every sample
    every = sorted((op(I) for I in instances), key=lambda r: r.ideal)
    assert report.to_json_dict() == verify.Report(theorem, spec, every).to_json_dict()


def test_report_records_sorted_by_serialization():
    spec = FamilySpec(n=2, powers=(2,), max_deg=3, count=6, seed=5)
    rep = run_family("region", spec)
    ids = [r.ideal for r in rep.records]
    assert ids == sorted(ids)


def test_unknown_theorem():
    with pytest.raises(ValueError):
        run_family("no-such-theorem", FamilySpec(n=2))
