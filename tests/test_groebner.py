import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom.core import Monomial, RingContext
from lexcohom.errors import DegreeCapExceededError
from lexcohom.groebner import (Polynomial, TermOrder, buchberger,
                               initial_ideal, normal_form)
from lexcohom.hilbert import hilbert_series
from lexcohom.linalg import rank_mod_p

from conftest import all_monomials

P = 32003


def poly(ctx, *terms):
    return Polynomial.make(ctx, list(terms))


def ideal_dim_oracle(ctx, gens, d):
    """dim of the degree-d piece of (gens) by row rank of all shifted
    generators against the monomial basis, over GF(p)."""
    basis = {m.exps: k for k, m in enumerate(ctx.monomials(d))}
    rows = []
    for g in gens:
        gd = g.degree
        if gd > d:
            continue
        for m in ctx.monomials(d - gd):
            row = [0] * len(basis)
            for e, c in g.coeffs:
                key = tuple(a + b for a, b in zip(e, m.exps))
                row[basis[key]] = c
            rows.append(row)
    if not rows:
        return 0
    return rank_mod_p(rows, ctx.char)


def test_monomial_input_is_its_own_basis():
    ctx = RingContext(2)
    gens = [poly(ctx, ((1, 0), 1)), poly(ctx, ((0, 1), 1))]
    gb = buchberger(gens, TermOrder.standard(ctx))
    assert {g.coeffs for g in gb} == {(((1, 0), 1),), (((0, 1), 1),)}


def test_weighted_example_with_z():
    ctx = RingContext(2, z=True)  # x1, z
    order = TermOrder.x_weight(ctx)
    f = poly(ctx, ((1, 0), 1), ((0, 1), 1))   # x1 + z
    g = poly(ctx, ((2, 0), 1))                # x1^2
    gb = buchberger([f, g], order)
    assert {h.leading_term(order)[0] for h in gb} == {(1, 0), (0, 2)}
    ini = initial_ideal([f, g], order)
    assert {m.exps for m in ini.gens} == {(1, 0), (0, 2)}
    assert initial_ideal([f], order).gens == (Monomial((1, 0)),)


def test_lex_example():
    ctx = RingContext(2)
    order = TermOrder((1, 1), "lex")
    f1 = poly(ctx, ((2, 0), 1), ((0, 2), -1))
    f2 = poly(ctx, ((1, 1), 1))
    gb = buchberger([f1, f2], order)
    assert {g.leading_term(order)[0] for g in gb} == {(2, 0), (1, 1), (0, 3)}


def test_revlex_leading_term():
    ctx = RingContext(3)
    f = poly(ctx, ((2, 0, 0), 1), ((0, 1, 1), -1))
    assert initial_ideal([f], TermOrder.standard(ctx)).gens == (Monomial((2, 0, 0)),)


def test_reduced_basis_unique_under_shuffle():
    ctx = RingContext(3)
    order = TermOrder.standard(ctx)
    gens = [
        poly(ctx, ((1, 1, 0), 1), ((0, 0, 2), -1)),
        poly(ctx, ((2, 0, 0), 1), ((0, 1, 1), -1)),
        poly(ctx, ((0, 2, 0), 1), ((1, 0, 1), -1)),
    ]
    ref = [g.coeffs for g in buchberger(gens, order)]
    rng = random.Random(1)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert [g.coeffs for g in buchberger(shuffled, order)] == ref


@pytest.mark.parametrize("tiebreak", ["lex", "revlex"])
def test_degeneration_preserves_hilbert_function(tiebreak):
    # dims of the ideal degreewise, via exact linear algebra, must match the
    # monomial count of the initial ideal (flat degeneration identity)
    ctx = RingContext(3)
    order = TermOrder((1, 1, 1), tiebreak)
    rng = random.Random(2)
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            mons = list(ctx.monomials(d))
            t1, t2 = rng.sample(range(len(mons)), 2)
            gens.append(poly(ctx, (mons[t1].exps, 1),
                             (mons[t2].exps, rng.randint(1, P - 1))))
        ini = initial_ideal(gens, order)
        qw = hilbert_series(ini).quotient_window(8)
        for d in range(9):
            assert len(all_monomials(ctx, d)) - qw[d] == ideal_dim_oracle(ctx, gens, d)


def test_degeneration_with_zero_weight_on_z():
    ctx = RingContext(2, z=True)
    order = TermOrder.x_weight(ctx)
    gens = [poly(ctx, ((1, 1), 1), ((0, 2), 1)),   # x1 z + z^2
            poly(ctx, ((2, 0), 1))]
    ini = initial_ideal(gens, order)
    qw = hilbert_series(ini).quotient_window(8)
    for d in range(9):
        assert len(all_monomials(ctx, d)) - qw[d] == ideal_dim_oracle(ctx, gens, d)


def test_degree_cap_boundary():
    # lex basis of (x1^2 - x2^2, x1*x2) is {x1*x2, x1^2 - x2^2, x2^3}; the
    # largest pair popped is the coprime one (x1^2, x2^3), of degree 5: the
    # cap is checked before the coprime skip
    ctx = RingContext(2)
    order = TermOrder((1, 1), "lex")
    gens = [poly(ctx, ((2, 0), 1), ((0, 2), -1)), poly(ctx, ((1, 1), 1))]
    assert len(buchberger(gens, order, degree_cap=5)) == 3
    with pytest.raises(DegreeCapExceededError, match=r"^S-pair degree 5 exceeds cap 4$"):
        buchberger(gens, order, degree_cap=4)


def test_degree_cap_raises_at_the_first_pair_above_it():
    # pairs are popped by ascending lcm degree, so at the smallest cap k that
    # succeeds, the cap k - 1 fails on a pair of degree exactly k
    rng = random.Random(3)
    ctx = RingContext(3)
    for tiebreak in ("lex", "revlex"):
        order = TermOrder((1, 1, 1), tiebreak)
        for _ in range(10):
            gens = [poly(ctx, *((m.exps, rng.randint(1, P - 1))
                                for m in rng.sample(list(ctx.monomials(d)), 2)))
                    for d in (rng.randint(1, 3) for _ in range(rng.randint(2, 3)))]
            k = 0
            while True:
                try:
                    gb = buchberger(gens, order, degree_cap=k)
                    break
                except DegreeCapExceededError:
                    k += 1
            assert gb == buchberger(gens, order)
            if k > 0:
                with pytest.raises(DegreeCapExceededError,
                                   match=rf"^S-pair degree {k} exceeds cap {k - 1}$"):
                    buchberger(gens, order, degree_cap=k - 1)


def test_degree_cap():
    ctx = RingContext(2)
    f1 = poly(ctx, ((2, 0), 1), ((0, 2), -1))
    f2 = poly(ctx, ((1, 1), 1))
    with pytest.raises(DegreeCapExceededError):
        buchberger([f1, f2], TermOrder((1, 1), "lex"), degree_cap=1)


def test_normal_form_is_zero_on_ideal_members():
    ctx = RingContext(2)
    order = TermOrder.standard(ctx)
    f1 = poly(ctx, ((2, 0), 1), ((0, 2), -1))
    f2 = poly(ctx, ((1, 1), 1))
    gb = buchberger([f1, f2], order)
    # x1^3 = x1 * (x1^2 - x2^2) + x2 * (x1 x2) reduces to zero... check x1^3 - x1 x2^2
    member = poly(ctx, ((3, 0), 1), ((1, 2), -1))
    assert normal_form(member, gb, order).is_zero


def test_homogeneity_enforced():
    ctx = RingContext(2)
    with pytest.raises(ValueError):
        poly(ctx, ((1, 0), 1), ((2, 0), 1))


# --- the reduced Groebner basis, checked by engine-free oracles -------------


def _remainder(f, basis, order):
    """Textbook division of f by basis: cancel the largest term divisible by
    some leading term, keep the others."""
    p = f.ctx.char
    work = dict(f.coeffs)
    rem = {}
    lts = [(g.leading_term(order), g) for g in basis]
    while work:
        e = max(work, key=order.key)
        c = work[e]
        if c == 0:
            del work[e]
            continue
        for (le, lc), g in lts:
            if all(a <= b for a, b in zip(le, e)):
                # subtract (c / lc) * x^(e - le) * g, which cancels the term at e
                factor = c * pow(lc, p - 2, p)
                shift = [a - b for a, b in zip(e, le)]
                for ge, gc in g.coeffs:
                    t = tuple(a + b for a, b in zip(ge, shift))
                    work[t] = (work.get(t, 0) - factor * gc) % p
                break
        else:
            rem[e] = work.pop(e)
    return rem


def _s_polynomial(f, g, order):
    (ef, cf), (eg, cg) = f.leading_term(order), g.leading_term(order)
    lcm = tuple(map(max, ef, eg))
    p = f.ctx.char
    terms = []
    for h, e, c, sign in ((f, ef, cf, 1), (g, eg, cg, -1)):
        scale = sign * pow(c, p - 2, p)
        terms += [(tuple(a + l - b for a, l, b in zip(he, lcm, e)), hc * scale)
                  for he, hc in h.coeffs]
    return Polynomial.make(f.ctx, terms)


@st.composite
def groebner_inputs(draw):
    n = draw(st.integers(2, 3))
    with_z = draw(st.booleans())
    ctx = RingContext(n, z=with_z)
    tiebreak = draw(st.sampled_from(["lex", "revlex"]))
    if with_z and draw(st.booleans()):
        order = TermOrder.x_weight(ctx, tiebreak)
    else:
        order = TermOrder.standard(ctx, tiebreak)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mons = [m.exps for m in ctx.monomials(draw(st.integers(1, 3)))]
        chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=3,
                               unique=True))
        gens.append(poly(ctx, *((e, draw(st.integers(1, P - 1))) for e in chosen)))
    return ctx, order, gens


@given(groebner_inputs())
@settings(max_examples=60, deadline=None)
def test_buchberger_returns_the_reduced_groebner_basis(case):
    ctx, order, gens = case
    gb = buchberger(gens, order)
    assert gb
    # the output generates the input
    for f in gens:
        assert not _remainder(f, gb, order)
    # Buchberger's criterion: every S-pair of the output reduces to zero
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            assert not _remainder(_s_polynomial(f, g, order), gb, order)
    # reduced: monic, and no term is divisible by another member's leading term
    lts = [g.leading_term(order) for g in gb]
    assert all(c == 1 for _, c in lts)
    for i, g in enumerate(gb):
        for j, (le, _) in enumerate(lts):
            if i != j:
                assert not any(all(a <= b for a, b in zip(le, e)) for e, _ in g.coeffs)
    # the initial ideal has the Hilbert function of the input ideal
    qw = hilbert_series(initial_ideal(gens, order)).quotient_window(6)
    for d in range(7):
        assert len(all_monomials(ctx, d)) - qw[d] == ideal_dim_oracle(ctx, gens, d)
