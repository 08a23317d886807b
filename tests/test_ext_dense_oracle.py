"""The ext backend re-derived naively: dense dual-Taylor matrices per total
degree, one monomial-multiplication block per pair of generator subsets.
Exponentially slower than the production cell decomposition; used on tiny
inputs to validate it independently of the combinatorial backend."""

import itertools
import random

from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.localcohom import cohomology_table

from conftest import random_ideal, ref_rank_mod_p

P = 32003


def dense_ext_dims(I, e_lo, e_hi):
    """dim Ext^k(A/I, A)_e for e in [e_lo, e_hi], from dense matrices."""
    ctx = I.ctx
    n = ctx.n
    gens = [g.exps for g in I.gens]
    g = len(gens)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(g), k) for k in range(g + 1)))
    lcm = {S: tuple(max((gens[t][i] for t in S), default=0) for i in range(n))
           for S in subsets}

    def slot_basis(S, e):
        d = e + sum(lcm[S])
        return [m.exps for m in ctx.monomials(d)] if d >= 0 else []

    def dual_matrix(k, e):
        dom = [(S, m) for S in subsets if len(S) == k for m in slot_basis(S, e)]
        cod = [(S, m) for S in subsets if len(S) == k + 1 for m in slot_basis(S, e)]
        index = {b: r for r, b in enumerate(cod)}
        mat = [[0] * len(dom) for _ in cod]
        for col, (S, m) in enumerate(dom):
            for t in range(g):
                if t in S:
                    continue
                S2 = tuple(sorted(S + (t,)))
                mult = tuple(a - b for a, b in zip(lcm[S2], lcm[S]))
                m2 = tuple(a + b for a, b in zip(m, mult))
                sign = (-1) ** sum(1 for s in S if s < t)
                mat[index[(S2, m2)]][col] = sign
        return mat, len(dom)

    out = {}
    for e in range(e_lo, e_hi + 1):
        for k in range(g + 1):
            _, dim_k = dual_matrix(k, e)
            r_out = ref_rank_mod_p(dual_matrix(k, e)[0], P)
            r_in = ref_rank_mod_p(dual_matrix(k - 1, e)[0], P) if k > 0 else 0
            h = dim_k - r_out - r_in
            if h:
                out[(k, e)] = h
    return out


def test_ext_backend_matches_dense_oracle():
    rng = random.Random(307)
    for ctx, count in ((RingContext(2, char=P), 8), (RingContext(3, char=P), 6),
                       (RingContext(3, char=P, powers=(2, 2)), 6)):
        n = ctx.n
        for _ in range(count):
            I = random_ideal(rng, ctx, 3, 3)
            if I.is_unit or I.is_zero:
                continue
            T = cohomology_table(I, (-6, 4), backend="ext")
            dense = dense_ext_dims(I, -n - 4, -n + 6)
            for i in range(n + 1):
                for j in range(-6, 5):
                    assert T.value(i, j) == dense.get((n - i, -n - j), 0), (str(I), i, j)


def test_dense_oracle_on_hand_example():
    ctx = RingContext(2, char=P)
    I = MonomialIdeal.make(ctx, [Monomial((1, 0))])
    # A/(x1) = K[x2]: Ext^1 is the only nonzero one, dims 1 from degree -1 up
    dense = dense_ext_dims(I, -3, 2)
    assert all(k == 1 for (k, _) in dense)
    assert all(dense[(1, e)] == 1 for e in range(-1, 3))
