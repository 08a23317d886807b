"""Betti numbers re-derived from scratch: homology of the Koszul complex
tensored with the quotient, by dense linear algebra over GF(p).  Slow and
simple; exists only to cross-check the production path."""

import itertools
import random

from lexcohom.betti import betti_table
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.linalg import rank_mod_p

from conftest import random_ideal

P = 32003


def tor_betti_oracle(I, max_j):
    """beta_{ij}(A/I) for j <= max_j via the Koszul complex on x1..xn."""
    ctx = I.ctx
    n = ctx.n

    def basis(i, j):
        """e_S (x) m with |S| = i, m a monomial of degree j - i outside I."""
        out = []
        if i < 0 or j - i < 0:
            return out
        for S in itertools.combinations(range(n), i):
            for m in ctx.monomials(j - i):
                if not I.contains(m):
                    out.append((S, m.exps))
        return out

    def differential(i, j):
        """d: K_i -> K_{i-1} in internal degree j."""
        dom = basis(i, j)
        cod = basis(i - 1, j)
        index = {b: k for k, b in enumerate(cod)}
        mat = [[0] * len(dom) for _ in cod]
        for col, (S, m) in enumerate(dom):
            for pos, s in enumerate(S):
                S2 = S[:pos] + S[pos + 1:]
                m2 = tuple(e + 1 if t == s else e for t, e in enumerate(m))
                if I.contains(Monomial(m2)):
                    continue
                mat[index[(S2, m2)]][col] = (-1) ** pos
        return mat, len(dom)

    out = {}
    for j in range(max_j + 1):
        for i in range(n + 1):
            _, dim_i = differential(i, j)
            r_in = rank_mod_p(differential(i + 1, j)[0], P) if i < n else 0
            r_out = rank_mod_p(differential(i, j)[0], P) if i > 0 else 0
            h = dim_i - r_in - r_out
            if h:
                out[(i, j)] = h
    return out


def test_betti_matches_koszul_tor_oracle():
    rng = random.Random(211)
    for n in (2, 3):
        ctx = RingContext(n, char=P)
        for _ in range(10):
            I = random_ideal(rng, ctx, 3, 4)
            if I.is_unit:
                continue
            T = betti_table(I)
            top = max((j for (_, j) in T.entries), default=0)
            assert tor_betti_oracle(I, top + 1) == T.entries, str(I)


def test_oracle_on_known_tables():
    ctx = RingContext(2, char=P)
    I = MonomialIdeal.make(ctx, [Monomial((2, 0)), Monomial((1, 1)),
                                 Monomial((0, 3))])
    assert tor_betti_oracle(I, 5) == {(0, 0): 1, (1, 2): 2, (1, 3): 1,
                                      (2, 3): 1, (2, 4): 1}
