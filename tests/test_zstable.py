import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcohom.core import (Monomial, MonomialIdeal, RingContext, ideal_product, minimalize,
                           saturate)
from lexcohom.errors import HilbertMismatchError
from lexcohom.groebner import buchberger, initial_ideal
from lexcohom.hilbert import hilbert_series, ideal_window
from lexcohom.zstable import (_first_violation, bar, default_window,
                              distraction, distraction_initial, is_z_stable,
                              stabilization_order, z_decompose, z_order_compare,
                              z_recompose, z_saturate, z_stabilize)

from conftest import (colon_ideal, colon_z, count_calls, random_ideal, ref_is_z_stable,
                      ref_windowed_z_order_compare, ref_z_decompose, ref_z_order_compare)


def M(*exps):
    return Monomial(tuple(exps))


ctx1z = RingContext(1).add_z()    # K[x1][z]
ctx2z = RingContext(2).add_z()    # K[x1,x2][z]


def test_decompose_examples():
    dec = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 1)]))
    assert dec.components[0].is_zero
    assert dec.components[1].gens == (M(1),)
    ext = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 0)]))
    assert len(ext.components) == 1 and ext.components[0].gens == (M(1),)
    dz = z_decompose(MonomialIdeal.make(ctx1z, [M(0, 2)]))
    assert [c.gens for c in dz.components] == [(), (), (M(0),)]


@st.composite
def z_preimages(draw):
    """An ideal of R[z] holding b, with or without powers: random, the
    power ideal alone (zero without powers) or the unit ideal."""
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    kind = draw(st.sampled_from(["random", "random", "zero", "unit"]))
    if kind == "unit":
        return MonomialIdeal.unit(ctx)
    exps = st.tuples(*[st.integers(0, 3)] * ctx.n)
    gens = draw(st.lists(exps, max_size=7)) if kind == "random" else []
    return minimalize(ctx, [Monomial(e) for e in gens]).plus_powers()


@settings(max_examples=300, deadline=None)
@given(z_preimages())
def test_decompose_matches_the_per_level_reference(I):
    got, want = z_decompose(I), ref_z_decompose(I)
    assert [c.gens for c in got.components] == [c.gens for c in want.components]
    assert z_recompose(got) == I


def test_decompose_minimalizes_nothing(monkeypatch):
    ideals = [random_ideal(random.Random(k), ctx, 4, 6) for k in range(20)
              for ctx in (ctx2z, RingContext(2, powers=(2, 3)).add_z())]
    calls = count_calls(monkeypatch, minimalize)
    for I in ideals:
        z_decompose(I)
    assert calls == []


def test_roundtrip_on_samples():
    rng = random.Random(13)
    for _ in range(30):
        I = random_ideal(rng, ctx2z, 4, 5)
        dec = z_decompose(I)
        assert z_recompose(dec) == I
        assert dec.max_gen_degree() == I.max_gen_degree()
    # x2^3 stays a generator of component 1 but is no generator x2^3 z of I
    I = MonomialIdeal.make(ctx2z, [M(3, 0, 0), M(1, 1, 0), M(0, 3, 0), M(2, 0, 1)])
    assert is_z_stable(z_decompose(I))
    assert z_decompose(I).max_gen_degree() == I.max_gen_degree() == 3


def test_stability_examples():
    assert not is_z_stable(z_decompose(MonomialIdeal.make(ctx1z, [M(1, 1)])))
    assert is_z_stable(z_decompose(MonomialIdeal.make(ctx1z, [M(1, 0), M(0, 2)])))
    # extensions are always stable
    rng = random.Random(19)
    for _ in range(10):
        J = random_ideal(rng, RingContext(2), 3, 3)
        ext = MonomialIdeal.make(ctx2z, [M(*g.exps, 0) for g in J.gens])
        assert is_z_stable(z_decompose(ext))


def test_colon_and_saturation():
    dec = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 0), M(0, 2)]))
    assert set(g.exps for g in z_recompose(colon_z(dec)).gens) == {(1, 0), (0, 1)}
    assert z_recompose(z_saturate(dec)).is_unit
    ext = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 0)]))
    assert z_recompose(z_saturate(ext)) == z_recompose(ext)


def test_colon_z_equals_colon_by_maximal_ideal_when_stable():
    # for z-stable ideals, I : z = I : m (checked against the generic colon)
    rng = random.Random(29)
    for _ in range(15):
        I = z_recompose(z_stabilize(random_ideal(rng, ctx2z, 3, 4)))
        dec = z_decompose(I)
        lhs = z_recompose(colon_z(dec))
        rhs = colon_ideal(I, ctx2z.max_ideal())
        assert lhs == rhs
        assert is_z_stable(z_decompose(lhs))


def test_saturate_bar_commutes_up_to_saturation():
    # for any homogeneous ideal: bar of the true saturation and bar itself
    # share their saturation (they agree in high degrees)
    rng = random.Random(31)
    ctx_R = RingContext(2)
    m_R = ctx_R.max_ideal()
    m_big = ctx2z.max_ideal()
    for _ in range(20):
        I = random_ideal(rng, ctx2z, 4, 5)
        Isat = saturate(I, m_big)
        lhs = saturate(bar(z_decompose(Isat)), m_R)
        rhs = saturate(bar(z_decompose(I)), m_R)
        assert lhs == rhs


def test_z_saturate_is_true_saturation_for_stable_ideals():
    rng = random.Random(53)
    m_big = ctx2z.max_ideal()
    for _ in range(15):
        I = z_recompose(z_stabilize(random_ideal(rng, ctx2z, 3, 4)))
        dec = z_decompose(I)
        assert z_recompose(z_saturate(dec)) == saturate(I, m_big)


def test_bars_of_equal_hilbert_stable_pairs_agree_high_up():
    rng = random.Random(37)
    for _ in range(10):
        I = z_recompose(z_stabilize(random_ideal(rng, ctx2z, 3, 4)))
        J = z_recompose(z_stabilize(random_ideal(rng, ctx2z, 3, 4)))
        if hilbert_series(I).numer != hilbert_series(J).numer:
            continue
        W = 2 * max(I.max_gen_degree(), J.max_gen_degree()) + 4
        thresh = max(I.max_gen_degree(), J.max_gen_degree()) + 1
        a = ideal_window(bar(z_decompose(I)), W)
        b = ideal_window(bar(z_decompose(J)), W)
        assert a[thresh:] == b[thresh:]


def test_distraction_examples_and_hilbert_preservation():
    dec = z_decompose(MonomialIdeal.make(ctx1z, [M(0, 1)]))
    D = distraction(dec, 1, 0)
    assert len(D) == 1 and set(D[0].coeffs) == {((1, 0), 1), ((0, 1), 1)}
    # l = z leaves the ideal alone
    dec2 = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 1)]))
    D2 = distraction(dec2, 1, None)
    ini = initial_ideal(D2, stabilization_order(ctx1z))
    assert ini == z_recompose(dec2)
    # Hilbert functions preserved through the weight degeneration
    rng = random.Random(41)
    for _ in range(10):
        I = random_ideal(rng, ctx2z, 3, 4)
        if I.is_zero:
            continue
        dec = z_decompose(I)
        for d in range(1, dec.s + 2):
            for j in (0, 1, None):
                gens = distraction(dec, d, j)
                ini = initial_ideal(gens, stabilization_order(ctx2z))
                assert hilbert_series(ini).numer == hilbert_series(I).numer


def test_order_compare_examples():
    J = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 1)]))
    assert z_order_compare(J, J) == "equal"
    ext = z_decompose(MonomialIdeal.make(ctx1z, [M(2, 0)]))
    assert z_order_compare(J, ext) == "less"
    assert z_order_compare(ext, J) == "greater"
    with pytest.raises(HilbertMismatchError):
        z_order_compare(J, z_decompose(MonomialIdeal.make(ctx1z, [M(1, 0)])))


def test_exact_compare_agrees_with_windowed():
    # the default comparator decides all degrees from rational series; it
    # must agree with explicit window comparisons wherever those apply
    rng = random.Random(59)
    pool = []
    for d in range(1, 4):
        pool.extend(ctx2z.monomials(d))
    groups = {}
    for _ in range(600):
        I = minimalize(ctx2z, rng.sample(pool, rng.randint(1, 3)))
        key = hilbert_series(I).numer
        for other in groups.get(key, [])[:4]:
            J, L = z_decompose(I), z_decompose(other)
            w = default_window(I, other)
            assert z_order_compare(J, L) == ref_windowed_z_order_compare(J, L, w)
        groups.setdefault(key, []).append(I)


def test_incomparable_pair():
    # crossing partial sums in K[x1,x2][z]; found by exhaustive search
    # (note: no z-STABLE incomparable pair exists at gens <= 4, degree <= 4
    # in this ring, so the order's fourth outcome is exercised on z-graded
    # non-stable ideals)
    J = z_decompose(MonomialIdeal.make(ctx2z, [M(1, 0, 1), M(0, 3, 0)]))
    L = z_decompose(MonomialIdeal.make(ctx2z, [M(2, 0, 0), M(0, 1, 2)]))
    assert z_order_compare(J, L) == "incomparable"
    assert z_order_compare(L, J) == "incomparable"


def test_stabilize_small_case_oracle():
    # (x1 z) stabilizes to the unique z-stable monomial ideal with its
    # Hilbert function; enumerate candidates to confirm uniqueness
    I = MonomialIdeal.make(ctx1z, [M(1, 1)])
    out = z_recompose(z_stabilize(I))
    assert out.gens == (M(2, 0),)
    target = hilbert_series(I).numer
    candidates = []
    pool = [M(a, b) for a in range(4) for b in range(4) if a + b and a + b <= 3]
    for r in (1, 2):
        for combo in itertools.combinations(pool, r):
            J = minimalize(ctx1z, combo)
            if hilbert_series(J).numer != target:
                continue
            if is_z_stable(z_decompose(J)):
                candidates.append(J)
    uniq = {c.gens for c in candidates}
    assert uniq == {out.gens}


def test_stabilize_contract_on_samples():
    rng = random.Random(43)
    for _ in range(15):
        I = random_ideal(rng, ctx2z, 3, 4)
        dec_in = z_decompose(I)
        out = z_stabilize(I)
        assert is_z_stable(out)
        assert hilbert_series(z_recompose(out)).numer == hilbert_series(I).numer
        assert z_order_compare(dec_in, out) in ("less", "equal")
        if is_z_stable(dec_in):
            assert z_recompose(out) == I


def test_stabilize_powers_context():
    ctxp = RingContext(2, powers=(2, 2)).add_z()
    rng = random.Random(47)
    for _ in range(10):
        I = random_ideal(rng, ctxp, 3, 3)
        out = z_stabilize(I)
        assert is_z_stable(out)
        assert hilbert_series(z_recompose(out)).numer == hilbert_series(I).numer


def test_preimage_required_in_powers_context():
    ctxp = RingContext(2, powers=(2, 2)).add_z()
    with pytest.raises(ValueError):
        z_decompose(MonomialIdeal.make(ctxp, [M(1, 1, 0)]))


@st.composite
def z_contexts(draw):
    nx = draw(st.integers(1, 3))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    return RingContext(nx, powers=powers).add_z()


def z_ideal(draw, ctx):
    """A preimage in ctx: random, or the smallest (b) or the unit ideal."""
    kind = draw(st.sampled_from(["random", "random", "zero", "unit"]))
    if kind == "zero":
        return ctx.powers_ideal() if ctx.powers else MonomialIdeal.zero(ctx)
    if kind == "unit":
        return MonomialIdeal.unit(ctx)
    return random_ideal(draw(st.randoms(use_true_random=False)), ctx, 4, 5)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stability_matches_the_product_definition(data):
    ctx = data.draw(z_contexts())
    dec = z_decompose(z_ideal(data.draw, ctx))
    assert is_z_stable(dec) == ref_is_z_stable(dec)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_order_compare_raises_exactly_on_a_hilbert_mismatch(data):
    # the partner is random, the ideal itself, or its stabilization (equal
    # Hilbert function, often another stabilization index)
    ctx = data.draw(z_contexts().filter(lambda c: c.nx <= 2))
    I = z_ideal(data.draw, ctx)
    kind = data.draw(st.sampled_from(["random", "same", "stabilized"]))
    other = {"random": lambda: z_ideal(data.draw, ctx), "same": lambda: I,
             "stabilized": lambda: z_recompose(z_stabilize(I))}[kind]()
    J, L = z_decompose(I), z_decompose(other)
    mismatch = hilbert_series(z_recompose(J)).numer != hilbert_series(z_recompose(L)).numer
    try:
        outcome = z_order_compare(J, L)
    except HilbertMismatchError:
        outcome = None
    assert (outcome is None) == mismatch
    if kind == "same":
        assert outcome == "equal"


@st.composite
def compare_pairs(draw):
    """Two chains of one context: an ideal's and that of a random partner,
    of itself, of its stabilization (in either order) or of one
    stabilization round."""
    ctx = draw(z_contexts().filter(lambda c: c.nx <= 2))
    I = z_ideal(draw, ctx)
    J = z_decompose(I)
    kind = draw(st.sampled_from(["random", "same", "up", "down", "round"]))
    if kind == "random":
        return J, z_decompose(z_ideal(draw, ctx))
    if kind == "same":
        return J, J
    if kind == "round":
        viol = _first_violation(J)
        return J, distraction_initial(J, *viol) if viol else J
    return (J, z_stabilize(I)) if kind == "up" else (z_stabilize(I), J)


def _outcome(compare, J, L):
    try:
        return compare(J, L)
    except HilbertMismatchError:
        return HilbertMismatchError


def _chain(ctx, *gens):
    return z_decompose(MonomialIdeal.make(ctx, [M(*g) for g in gens]))


@example(pair=(_chain(ctx1z, (1, 1)), _chain(ctx1z, (1, 1))))          # equal
@example(pair=(_chain(ctx1z, (1, 1)), _chain(ctx1z, (2, 0))))          # less
@example(pair=(_chain(ctx1z, (2, 0)), _chain(ctx1z, (1, 1))))          # greater
@example(pair=(_chain(ctx2z, (1, 0, 1), (0, 3, 0)),
               _chain(ctx2z, (2, 0, 0), (0, 1, 2))))                    # incomparable
@example(pair=(_chain(ctx1z, (1, 1)), _chain(ctx1z, (1, 0))))          # a mismatch
@settings(max_examples=300, deadline=None)
@given(pair=compare_pairs())
def test_order_compare_matches_the_reference(pair):
    # the stored numerators, the skipped levels and the two-sided sign
    # pass against the per-level recomputation with one-sided sign tests
    J, L = pair
    assert _outcome(z_order_compare, J, L) == _outcome(ref_z_order_compare, J, L)
    assert _outcome(z_order_compare, J, L) == _outcome(z_order_compare, J, L)


def test_order_compare_sees_tails_behind_equal_level_sums():
    # (x1^3, x1 z) and (x1^2) in K[x1][z]: the level sums at H = 1 agree,
    # sum_k t^k (numer(R/J_k) - numer(R/L_k)) = 0, but the stabilized
    # components (x1) and (x1^2) differ, and so do the total series
    pairs = [
        ([M(3, 0), M(1, 1)], [M(2, 0)]),
        ([M(4, 0), M(2, 1)], [M(3, 0)]),
        ([M(2, 0)], [M(3, 0), M(1, 1)]),
    ]
    for gJ, gL in pairs:
        J = z_decompose(MonomialIdeal.make(ctx1z, gJ))
        L = z_decompose(MonomialIdeal.make(ctx1z, gL))
        assert J.s != L.s
        H = max(J.s, L.s)
        level = [0] * 8
        for k in range(H + 1):
            for Z, sgn in ((J, 1), (L, -1)):
                for i, c in enumerate(hilbert_series(Z.component(k)).numer):
                    level[i + k] += sgn * c
        assert not any(level)
        assert hilbert_series(J.component(H)).numer != hilbert_series(L.component(H)).numer
        assert hilbert_series(z_recompose(J)).numer != hilbert_series(z_recompose(L)).numer
        with pytest.raises(HilbertMismatchError):
            z_order_compare(J, L)


def test_order_compare_and_stabilize_recompose_no_chain(monkeypatch):
    calls = count_calls(monkeypatch, z_recompose)
    rng = random.Random(61)
    for _ in range(10):
        I = random_ideal(rng, ctx2z, 3, 4)
        out = z_stabilize(I)
        assert z_order_compare(z_decompose(I), out) in ("less", "equal")
    assert calls == []


def test_a_stabilization_round_reads_one_numerator_list_per_chain(monkeypatch):
    # the round's z_order_compare is its one Hilbert check; each chain
    # stores its numerators, so the chain a round makes is read again by
    # the next round for free: one numerator per component of every chain
    # of the loop, none for a stable input
    calls = count_calls(monkeypatch, hilbert_series)
    rng = random.Random(71)
    rounds = 0
    for _ in range(20):
        I = random_ideal(rng, ctx2z, 3, 4)
        chains = [z_decompose(I)]
        while (viol := _first_violation(chains[-1])) is not None:
            chains.append(distraction_initial(chains[-1], *viol))
        rounds += len(chains) - 1
        calls.clear()
        z_stabilize(I)
        assert len(calls) == (sum(c.s + 1 for c in chains) if len(chains) > 1 else 0)
    assert rounds > 10


def test_stability_forms_no_product_ideal(monkeypatch):
    calls = count_calls(monkeypatch, ideal_product)
    rng = random.Random(67)
    for _ in range(20):
        dec = z_decompose(random_ideal(rng, ctx2z, 3, 4))
        is_z_stable(dec)
    assert calls == []


def buchberger_distraction_initial(Z, d, j):
    """The components of in(D) the long way: the distraction's generators,
    a Groebner basis under the stabilization order, and a decomposition."""
    D = distraction(Z, d, j)
    if not D:  # the zero ideal distracts to itself
        return Z
    return z_decompose(initial_ideal(D, stabilization_order(Z.ctx), degree_cap=40))


@st.composite
def distraction_inputs(draw):
    """An ideal of K[x1..xn][z], n = 2 or 3, in char 2 or 32003, with or
    without powers."""
    nx = draw(st.sampled_from([2, 3]))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, char=draw(st.sampled_from([2, 32003])), powers=powers).add_z()
    return random_ideal(draw(st.randoms(use_true_random=False)), ctx, 4, 6)


@settings(max_examples=300, deadline=None)
@given(distraction_inputs())
def test_distraction_initial_matches_buchberger(I):
    # every failing level d in 1..s, the level s + 1 past the top and every
    # x variable, then again along the ideal's own stabilization rounds
    Z = z_decompose(I)
    for d in range(1, Z.s + 2):
        for j in range(Z.ctx.nx):
            want = buchberger_distraction_initial(Z, d, j)
            assert distraction_initial(Z, d, j) == want
    while (viol := _first_violation(Z)) is not None:
        nxt = distraction_initial(Z, *viol)
        assert nxt == buchberger_distraction_initial(Z, *viol)
        Z = nxt


def test_distraction_initial_examples():
    # (x1 z): the distraction (x1 (x1 + z)) has initial ideal (x1^2)
    Z = z_decompose(MonomialIdeal.make(ctx1z, [M(1, 1)]))
    x1_squared = MonomialIdeal.make(ctx1z.drop_z(), [M(2)])
    assert distraction_initial(Z, 1, 0).components == (x1_squared,)
    # a level past the top leaves the ideal alone
    Z = z_decompose(MonomialIdeal.make(ctx2z, [M(1, 0, 1), M(0, 2, 0)]))
    assert distraction_initial(Z, Z.s + 1, 1) == Z
    with pytest.raises(ValueError):
        distraction_initial(Z, 0, 0)
    for d, j in ((Z.s + 2, 0), (1, -1), (1, 2)):
        with pytest.raises(ValueError):
            distraction_initial(Z, d, j)


def test_stabilize_runs_no_buchberger(monkeypatch):
    calls = count_calls(monkeypatch, buchberger)
    rng = random.Random(71)
    rounds = 0
    ctxs = (ctx2z, RingContext(3, powers=(2, 3)).add_z(), RingContext(3, char=2).add_z())
    for ctx in ctxs:
        for _ in range(10):
            I = random_ideal(rng, ctx, 4, 5)
            rounds += not is_z_stable(z_decompose(I))
            assert is_z_stable(z_stabilize(I))
    assert rounds and calls == []


def ref_first_violation(Z):
    """Least (d, j) with component d times x_{j+1} outside component d - 1,
    multiplying monomials."""
    ctx_R = Z.ctx.drop_z()
    for d in range(1, Z.s + 1):
        for j in range(ctx_R.nx):
            xj = ctx_R.variable(j)
            lower = Z.components[d - 1]
            if not all(lower.contains(g.mul(xj)) for g in Z.components[d].gens):
                return d, j
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_first_violation_matches_the_monomial_products(data):
    dec = z_decompose(z_ideal(data.draw, data.draw(z_contexts())))
    assert _first_violation(dec) == ref_first_violation(dec)


def test_first_violation_builds_no_monomial(monkeypatch):
    decs = [z_decompose(random_ideal(random.Random(k), ctx, 4, 6))
            for k in range(20) for ctx in (ctx2z, RingContext(3, powers=(2,)).add_z())]
    built = []
    monkeypatch.setattr(Monomial, "__post_init__", lambda self: built.append(self.exps))
    for dec in decs:
        _first_violation(dec)
    assert built == []


def test_drop_z_is_built_once_per_context():
    ctx = RingContext(3, char=101, powers=(2,)).add_z()
    assert ctx.drop_z() is ctx.drop_z()
    assert ctx.drop_z() == RingContext(3, char=101, powers=(2,))
