"""Facts stored on ideals and chains: the text, the preimage closure, the
top generator degree, the generator tallies and the m-saturation of a
``MonomialIdeal``, the recomposition and the component windows of a
``ZGradedIdeal``, and the numerator limit checked only where an answer is
computed.

Each stored fact is built once, equals its recomputation on a fresh equal
object, and leaves equality and hashing alone.  A limit lowered below an
ideal's or a chain's lcm degree refuses with the same message whether the
facts and memos are warm or emptied; a chain refuses only the reads whose
computation runs the numerator recursion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import core, embeddings, limits, memos, verify, zstable
from lexcohom.core import Monomial, MonomialIdeal, RingContext, format_term, ideal_sum
from lexcohom.errors import ResourceLimitError
from lexcohom.hilbert import hilbert_series, ideal_stream, ideal_window, lcm_degree
from lexcohom.ioformat import format_ideal

from conftest import count_calls, ref_generator_tallies


def _z_ideal():
    # (x1^2, x1*x2*z, x2^3*z^2) in K[x1, x2]/(x1^2)[z]: not z-stable
    ctx = RingContext(2, powers=(2,)).add_z()
    return MonomialIdeal.make(ctx, [Monomial((2, 0, 0)), Monomial((1, 1, 1)),
                                    Monomial((0, 3, 2))])


def test_a_numerator_hit_reads_no_lcm_degree(monkeypatch):
    I = _z_ideal()
    numer = hilbert_series(I).numer
    calls = count_calls(monkeypatch, lcm_degree)
    assert hilbert_series(I).numer == numer
    assert hilbert_series(MonomialIdeal(I.ctx, I.exps)).numer == numer
    assert calls == []


def test_repeated_text_and_recomposition_are_built_once(monkeypatch):
    I = _z_ideal()
    Z = zstable.z_stabilize(I)
    J = zstable.z_recompose(Z)
    terms = count_calls(monkeypatch, format_term)
    texts = {format_ideal(J) for _ in range(3)} | {str(J)[1:-1]}
    assert len(texts) == 1 and len(terms) == len(J.gens)
    builds = count_calls(monkeypatch, core._minimal_ideal)
    assert all(zstable.z_recompose(Z) is J for _ in range(3))
    assert builds == []
    fresh = zstable.ZGradedIdeal(Z.ctx, Z.components)
    assert zstable.z_recompose(fresh) == J and len(builds) == 1


@st.composite
def ideals(draw):
    """An ideal in 1..4 x variables, with or without powers and z, in
    characteristic 2 or 32003; not always a preimage."""
    nx = draw(st.integers(1, 4))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, char=draw(st.sampled_from([2, 32003])), powers=powers)
    if draw(st.booleans()):
        ctx = ctx.add_z()
    exps = st.tuples(*[st.integers(0, 3)] * ctx.n)
    gens = [Monomial(e) for e in draw(st.lists(exps, max_size=6))]
    if draw(st.booleans()):
        gens += ctx.powers_ideal().gens
    return MonomialIdeal.make(ctx, gens)


@settings(max_examples=150, deadline=None)
@given(ideals(), st.booleans())
def test_every_stored_fact_equals_its_recomputation(I, facts_first):
    fresh = MonomialIdeal(I.ctx, I.exps)
    if facts_first:
        assert fresh == I and hash(fresh) == hash(I)
    names = I.ctx.var_names()
    text = ", ".join(format_term(names, g.exps, 1) for g in fresh.gens) or "0"
    assert format_ideal(I) == I.text == text and str(I) == f"({text})"
    b = I.ctx.powers_ideal()
    closure = I.plus_powers()
    assert closure == ideal_sum(fresh, b) and I.plus_powers() is closure
    assert (closure is I) == fresh.contains_ideal(b)
    assert closure.plus_powers() is closure
    top = max((sum(g.exps) for g in fresh.gens), default=0)
    assert I.max_gen_degree() == top
    tallies = I.generator_tallies
    assert tallies == ref_generator_tallies(fresh, len(tallies) - 1)
    assert ref_generator_tallies(fresh, len(tallies) + 1) == tallies + (0, 0)
    assert I.generator_tallies is tallies
    saturation = I.m_saturation
    assert saturation == core.saturate(fresh, I.ctx.max_ideal()) and I.m_saturation is saturation
    if I.ctx.z:
        Z = zstable.z_decompose(closure)
        fresh_chain = zstable.ZGradedIdeal(Z.ctx, Z.components)
        want = core._minimal_ideal(Z.ctx, [g.exps + (h,) for h, comp in
                                           enumerate(fresh_chain.components)
                                           for g in comp.gens])
        assert zstable.z_recompose(Z) == want == closure
        assert zstable.z_recompose(Z) is zstable.z_recompose(Z)
        # windows read long then short on one chain, short then long on the other
        for chain, lengths in ((Z, (9, 4, 0, 6)), (fresh_chain, (0, 4, 6, 9))):
            for upto in lengths:
                for h in range(Z.s + 2):
                    assert chain.window(h, upto) == ideal_window(Z.component(h), upto)
        assert Z == fresh_chain and hash(Z) == hash(fresh_chain)
    # equal ideals stay equal and hash equal, whichever had facts read
    assert fresh == I and hash(fresh) == hash(I) and {I: 1}[fresh] == 1
    fresh.plus_powers()
    assert fresh.text == I.text
    assert (fresh.max_gen_degree(), fresh.generator_tallies, fresh.m_saturation) == \
        (top, tallies, saturation)
    assert fresh == I and hash(fresh) == hash(I)


def _refusal(read) -> str:
    with pytest.raises(ResourceLimitError) as info:
        read()
    return str(info.value)


def test_a_read_series_still_refuses_below_its_lcm_degree(monkeypatch):
    I = _z_ideal()
    degree = lcm_degree(I)
    hilbert_series(I)
    format_ideal(I)
    I.plus_powers()
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", degree - 1)
    warm = _refusal(lambda: hilbert_series(I))
    memos.clear_all()
    assert _refusal(lambda: hilbert_series(I)) == warm
    assert warm == (f"the generators' lcm has degree {degree}, "
                    f"above limits.NUMERATOR_DEGREE_LIMIT = {degree - 1}")


def test_a_stabilized_chain_still_refuses_below_its_lcm_degree(monkeypatch):
    I = _z_ideal()
    Z = zstable.z_stabilize(I)
    J = zstable.z_recompose(Z)
    Z.numerators()
    top = max(map(lcm_degree, Z.components))
    limit = min(top, lcm_degree(I)) - 1
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", limit)
    reads = (lambda: zstable.z_stabilize(I), Z.numerators, lambda: hilbert_series(J))
    warm = [_refusal(read) for read in reads]
    memos.clear_all()
    assert [_refusal(read) for read in reads] == warm
    assert all(msg.endswith(f", above limits.NUMERATOR_DEGREE_LIMIT = {limit}") for msg in warm)
    assert warm[0] == (f"the generators' lcm has degree {lcm_degree(I)}, "
                       f"above limits.NUMERATOR_DEGREE_LIMIT = {limit}")
    assert warm[1] == (f"a component's lcm has degree {top}, "
                       f"above limits.NUMERATOR_DEGREE_LIMIT = {limit}")


def test_a_decomposition_recomposes_to_its_ideal_itself():
    I = _z_ideal()
    assert zstable.z_recompose(zstable.z_decompose(I)) is I
    J = zstable.z_recompose(zstable.z_stabilize(I))
    memos.clear_all()
    assert zstable.z_recompose(zstable.z_stabilize(J)) is J
    assert zstable.z_recompose(zstable.z_decompose(J)) is J


@pytest.mark.parametrize("build", [zstable.z_decompose, zstable.z_stabilize])
def test_a_held_chain_refuses_below_its_lcm_degree_only_where_numerators_are_read(
        monkeypatch, build):
    # the bar saturation and the top generator degree run no numerator
    # recursion, so they read the same under any limit; the numerators, the
    # windows read off them (held ones too) and the embedded components refuse
    Z = build(_z_ideal())
    facts = (Z.bar_saturation, Z.max_gen_degree())
    Z.numerators()
    Z.all_embedded()
    long, short = Z.window(0, 5), Z.window(0, 3)  # the held window serves both
    assert short == long[:4]
    top = max(map(lcm_degree, Z.components))
    with monkeypatch.context() as patch:
        patch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", top - 1)
        want = (f"a component's lcm has degree {top}, "
                f"above limits.NUMERATOR_DEGREE_LIMIT = {top - 1}")
        fresh = zstable.ZGradedIdeal(Z.ctx, Z.components)
        for chain in (Z, Z, fresh):  # warm, after emptying every memo, and cold
            assert (chain.bar_saturation, chain.max_gen_degree()) == facts
            reads = (chain.numerators, lambda: chain.window(0, 5), lambda: chain.window(0, 3),
                     chain.all_embedded)
            assert [_refusal(read) for read in reads] == [want] * 4
            memos.clear_all()
    assert (Z.window(0, 5), Z.window(0, 3)) == (long, short)


def test_a_chains_bar_is_saturated_once_by_the_lemma_suite_and_the_recurrences(monkeypatch):
    I = zstable.z_recompose(zstable.z_stabilize(_z_ideal()))
    E = embeddings.epsilon_one(I)
    calls = count_calls(monkeypatch, core.saturate)
    assert verify.verify_embedding_lemmas(I).passed
    for J in (I, I, E, E):
        assert verify.check_extension_recurrence(J) == {"upper-sum": None,
                                                        "bar-saturated": None}
    for J in (I, E):
        bar = zstable.bar(zstable.z_decompose(J))
        assert sum(args[0] is bar for args in calls) == 1


def test_a_repeated_lemma_suite_saturates_its_bar_embedding_and_reads_each_window_once(
        monkeypatch):
    I = zstable.z_recompose(zstable.z_stabilize(_z_ideal()))
    eps_bar = embeddings.lpp_ideal(zstable.bar(zstable.z_decompose(I)))
    saturations = count_calls(monkeypatch, core.saturate)
    streams = []  # the streams of the chains' windows
    reads = set()  # (chain, component, length) of every window read
    window = zstable.ZGradedIdeal.window

    def stream(*args):
        streams.append(args)
        return ideal_stream(*args)

    def recorded(Z, h, upto):
        reads.add((id(Z), min(h, Z.s), upto))
        return window(Z, h, upto)

    monkeypatch.setattr(zstable, "ideal_stream", stream)
    monkeypatch.setattr(zstable.ZGradedIdeal, "window", recorded)
    first = verify.verify_embedding_lemmas(I)
    assert first.passed and streams and len(streams) <= len(reads)
    once = len(streams)
    assert verify.verify_embedding_lemmas(I) == first
    assert len(streams) == once
    assert sum(args[0] is eps_bar for args in saturations) == 1
