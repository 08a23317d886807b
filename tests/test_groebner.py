import random

import pytest

from lexcohom.core import Monomial, RingContext
from lexcohom.errors import DegreeCapExceededError
from lexcohom.groebner import (Polynomial, TermOrder, buchberger,
                               initial_ideal, normal_form)
from lexcohom.hilbert import quotient_window
from lexcohom.linalg import rank_mod_p

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
        qw = quotient_window(ini, 8)
        for d in range(9):
            assert ctx.dim(d) - qw[d] == ideal_dim_oracle(ctx, gens, d)


def test_degeneration_with_zero_weight_on_z():
    ctx = RingContext(2, z=True)
    order = TermOrder.x_weight(ctx)
    gens = [poly(ctx, ((1, 1), 1), ((0, 2), 1)),   # x1 z + z^2
            poly(ctx, ((2, 0), 1))]
    ini = initial_ideal(gens, order)
    qw = quotient_window(ini, 8)
    for d in range(9):
        assert ctx.dim(d) - qw[d] == ideal_dim_oracle(ctx, gens, d)


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
