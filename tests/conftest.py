"""Shared brute-force oracles: slow, simple, independent of the code paths
they check."""

from lexcohom.core import Monomial, MonomialIdeal


def all_monomials(ctx, d, bounded=False):
    return list(ctx.monomials(d, bounded=bounded))


def members_upto(I, D, bounded=False):
    """Set of exponent vectors of monomials of degree <= D lying in I."""
    out = set()
    for d in range(D + 1):
        for m in I.ctx.monomials(d, bounded=bounded):
            if I.contains(m):
                out.add(m.exps)
    return out


def brute_quotient_dims(I, D):
    """Degreewise dims of (ring)/I by direct monomial counting."""
    dims = []
    for d in range(D + 1):
        dims.append(sum(1 for m in I.ctx.monomials(d, bounded=True)
                        if not I.contains(m)))
    return tuple(dims)


def random_ideal(rng, ctx, max_deg, max_gens):
    pool = []
    for d in range(1, max_deg + 1):
        pool.extend(ctx.monomials(d, bounded=True))
    k = rng.randint(0, min(max_gens, len(pool)))
    gens = rng.sample(pool, k) if k else []
    base = list(ctx.powers_ideal().gens) if ctx.powers else []
    return MonomialIdeal.make(ctx, base + gens)


def brute_lex_first(ctx, dims, fail):
    """Lex-first selection by listing every bounded monomial of each degree
    and multiplying out the previous selection: each degree's new
    generators, with the engine's error class and messages."""
    bounds = [ctx.exp_bound(i) for i in range(ctx.n)]
    out, prev = [], set()
    for d, want in enumerate(dims):
        basis = [m.exps for m in ctx.monomials(d, bounded=True)]
        shadow = set()
        for e in prev:
            for i in range(ctx.n):
                if bounds[i] is None or e[i] < bounds[i]:
                    shadow.add(e[:i] + (e[i] + 1,) + e[i + 1:])
        if want > len(basis):
            raise fail(f"degree {d}: requested ideal dim {want} exceeds ring dim "
                       f"{len(basis)}")
        sel = basis[:max(want, 0)]
        if want < 0 or not shadow <= set(sel):
            raise fail(f"degree {d}: lex-first selection of size {want} is not "
                       f"closed under multiplication (needs {len(shadow)} monomials)")
        out.append([Monomial(e) for e in sel if e not in shadow])
        prev = set(sel)
    return out
