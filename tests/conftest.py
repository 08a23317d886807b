"""Shared brute-force oracles: slow, simple, independent of the code paths
they check."""

import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from math import ceil, comb

import pytest

from lexcohom import embeddings, limits, localcohom, memos, zstable
from lexcohom.betti import lcm_lattice, upper_koszul_faces
from lexcohom.core import (Monomial, MonomialIdeal, colon, ideal_intersection, ideal_product,
                           minimalize, saturate)
from lexcohom.errors import (HilbertMismatchError, IterationCapExceededError,
                             MixedContextError, NotAttainableError)
from lexcohom.hilbert import (_poly_add, _poly_mul, _series_coeffs, _shift, hilbert_series,
                              ideal_window, values_nonneg)
from lexcohom.homology import reduced_homology_dims
from lexcohom.verify import enumerate_family
from lexcohom.zstable import ZGradedIdeal


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every process-wide memo before each test, so that a count of
    homology, walk, lattice, certificate, round, numerator or stability
    calls does not depend on the tests run before it."""
    memos.clear_all()


def count_calls(monkeypatch, fn) -> list:
    """Replace every binding of ``fn`` in the package's modules by a wrapper
    that records the arguments of each call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "lexcohom" or name.startswith("lexcohom."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


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


def graded_piece_dim(I, d):
    """Number of degree-d basis monomials lying in I.

    The basis is all of B_d, or the monomial basis of S = B/b when the
    context has powers; so for a preimage P >= b this is dim_K (P/b)_d.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if I.is_zero:
        return 0
    return sum(1 for m in I.ctx.monomials(d, bounded=True) if I.contains(m))


def colon_ideal(I, J):
    """I : J = intersection of I : g over the generators g of J."""
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")
    if J.is_zero:
        return MonomialIdeal.unit(I.ctx)
    out = colon(I, J.gens[0])
    for g in J.gens[1:]:
        out = ideal_intersection(out, colon(I, g))
    return out


def h0_via_saturation(I, window):
    """H^0 row from the saturation: Hilb(A/I) - Hilb(A/I^sat) on the window."""
    lo, hi = window
    sat = saturate(I, I.ctx.max_ideal())
    if hi < 0:
        return (0,) * (hi - lo + 1)
    qi = hilbert_series(I).quotient_window(hi)
    qs = hilbert_series(sat).quotient_window(hi)
    return tuple((qi[j] - qs[j]) if j >= 0 else 0 for j in range(lo, hi + 1))


def krull_dim(hs):
    """The Krull dimension of a HilbertSeries: n minus the order of
    vanishing of its numerator at t=1, and -1 for the zero ring."""
    poly = hs.numer
    if not any(poly):
        return -1
    dim = hs.n
    while dim > 0 and sum(poly) == 0:
        # p(1) = 0, so p(t)/(1-t) is a polynomial of degree deg p - 1
        poly = _series_coeffs(poly, 1, len(poly) - 2)
        dim -= 1
    return dim


def colon_z(Z):
    """I : z, which shifts the component chain down by one."""
    if Z.s == 0:
        return Z
    return ZGradedIdeal(Z.ctx, Z.components[1:])


def corrupt_epsilon(I):
    """Deliberately wrong embedding for mutation tests: degree by degree it
    adds lex-last monomials until the ideal reaches I's dimension.  Nothing
    is taken back when the multiples of earlier picks overshoot, so the
    Hilbert function often differs too (never below I's up to degree D)."""
    ctx = I.ctx
    P = I.plus_powers()
    D = sum(d - 1 for d in ctx.powers) + P.max_gen_degree() + 4
    J = MonomialIdeal.zero(ctx)
    for d, want in enumerate(ideal_window(P, D)):
        outside = [m for m in ctx.monomials(d, bounded=True) if not J.contains(m)]
        extra = want - (ctx.dim(d) - len(outside))
        if extra > 0:
            J = minimalize(ctx, J.gens + tuple(outside[::-1][:extra]))  # lex-last
    return J.plus_powers()

def random_ideal(rng, ctx, max_deg, max_gens):
    pool = []
    for d in range(1, max_deg + 1):
        pool.extend(ctx.monomials(d, bounded=True))
    k = rng.randint(0, min(max_gens, len(pool)))
    gens = rng.sample(pool, k) if k else []
    base = list(ctx.powers_ideal().gens) if ctx.powers else []
    return MonomialIdeal.make(ctx, base + gens)


def brute_lex_first(ctx, dims):
    """Lex-first selection by listing every bounded monomial of each degree
    and multiplying out the previous selection: each degree's new
    generators, with the engine's NotAttainableError messages."""
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
            raise NotAttainableError(f"degree {d}: requested ideal dim {want} "
                                     f"exceeds ring dim {len(basis)}")
        sel = basis[:max(want, 0)]
        if want < 0 or not shadow <= set(sel):
            raise NotAttainableError(
                f"degree {d}: lex-first selection of size {want} is not closed "
                f"under multiplication (needs {len(shadow)} monomials)")
        out.append([Monomial(e) for e in sel if e not in shadow])
        prev = set(sel)
    return out


def ref_embed_matching_series(I):
    """The lex-first embedding of the preimage I, unmemoized: the selection
    with the dims of the series of I, its certificate checked from the
    first degree past the generators of I that adds no generators."""
    ctx = I.ctx
    series = hilbert_series(I)
    top = I.max_gen_degree()
    last = limits.NUMERATOR_DEGREE_LIMIT + 1
    dims = (ctx.dim(d) - series.value(d) for d in range(last + 1))
    gens = []
    grew = True  # generators were added since the last check
    for d, new in enumerate(embeddings._engine(ctx, dims)):
        gens.extend(new)
        if new:
            grew = True
        elif grew and d > top:
            grew = False
            out = MonomialIdeal(ctx, tuple(gens)).plus_powers()
            if hilbert_series(out).numer == series.numer:
                return out
    limits.check("NUMERATOR_DEGREE_LIMIT", last, f"no certified embedding by degree {last}")


def ref_z_stabilize(I):
    """z_stabilize unmemoized: every round checks the round limit, the
    Hilbert function and the strict increase."""
    cur = zstable.z_decompose(I)
    target = hilbert_series(I).numer
    rounds = 0
    while (viol := zstable._first_violation(cur)) is not None:
        rounds += 1
        limits.check("STABILIZATION_ROUND_LIMIT", rounds,
                     f"z_stabilize needs round {rounds}", IterationCapExceededError)
        nxt = zstable.distraction_initial(cur, *viol)
        numers = [hilbert_series(c).numer for c in nxt.components]
        if ref_total_numerator(numers) != target:
            raise HilbertMismatchError("distraction step changed the Hilbert function")
        if zstable.z_order_compare(cur, nxt) != "less":
            raise IterationCapExceededError("stabilization step did not strictly increase")
        cur = nxt
    return cur


def ref_extension_recurrence(I, backend="combinatorial"):
    """check_extension_recurrence with each right-hand side summed anew:
    [(name, passed, first mismatch (i, h) or None)] for the upper-sum and
    bar-saturated recurrences."""
    dec = zstable.z_decompose(I)
    big = localcohom.cohomology_table(I, backend=backend)
    lo, hi = big.lo, big.hi
    J_sat = zstable.bar(zstable.z_saturate(dec))
    J_bar_sat = ref_saturate(zstable.bar(dec), I.ctx.drop_z().max_ideal())
    out = []
    for name, J, min_i in (("upper-sum", J_sat, 1), ("bar-saturated", J_bar_sat, 2)):
        small = localcohom.cohomology_table(J, (lo, hi), backend=backend)
        mismatch = None
        for i in range(min_i, I.ctx.n + 1):
            for h in range(lo, hi + 1):
                rhs = sum(small.value(i - 1, m) for m in range(h + 1, small.hi + 1))
                if big.value(i, h) != rhs:
                    mismatch = (i, h)
                    break
            if mismatch:
                break
        out.append((name, mismatch is None, mismatch))
    return out


def ref_saturate(I, J):
    """I : J^infinity by iterating the colon I : J until it stabilizes."""
    cur = I
    while True:
        nxt = colon_ideal(cur, J)
        if nxt == cur:
            return cur
        cur = nxt


def ref_takayama_cells(I):
    """Takayama cells with every multidegree of the product visited and
    every exceed mask rebuilt from scratch."""
    n, p = I.ctx.n, I.ctx.char
    gens = [g.exps for g in I.gens]
    rho = [max((g[i] for g in gens), default=0) for i in range(n)]
    NEG = -1
    memo, cells = {}, []
    for combo in itertools.product(*[[NEG] + list(range(rho[i])) for i in range(n)]):
        verts = [i for i in range(n) if combo[i] != NEG]
        exceed = frozenset(
            sum(1 << t for t, k in enumerate(verts) if g[k] > combo[k]) for g in gens
        )
        key = (len(verts), exceed)
        hom = memo.get(key)
        if hom is None:
            full = (1 << len(verts)) - 1
            faces = [mask for mask in range(full + 1)
                     if all((full ^ mask) & e for e in exceed)]
            hom = memo[key] = reduced_homology_dims(faces, p)
        if not hom:
            continue
        f = n - len(verts)
        by_i = {}
        for k, dim in hom.items():
            i = k + f + 1
            if 0 <= i <= n:
                by_i[i] = by_i.get(i, 0) + dim
        if by_i:
            cells.append((sum(combo[i] for i in verts), f, by_i))
    return cells


def ref_ext_cells(I):
    """Ext cells with every dual Taylor slice listed and ranked, cones
    included, each mapped by local duality to the local-cohomology cell
    (fixed_sum - n + z, z, {n - k: dim})."""
    n, p = I.ctx.n, I.ctx.char
    g = len(I.gens)
    gens = [gen.exps for gen in I.gens]
    rho = [max((e[i] for e in gens), default=0) for i in range(n)]
    above = [
        [sum(1 << t for t, e in enumerate(gens) if e[i] >= c) for c in range(rho[i] + 1)]
        for i in range(n)
    ]
    memo, cells = {}, []
    for c in itertools.product(*[range(r + 1) for r in rho]):
        key = tuple(above[i][ci] for i, ci in enumerate(c) if ci)
        hom = memo.get(key)
        if hom is None:
            hom = memo[key] = dict(ref_ext_dims(g, key, p))
        if hom:
            z = c.count(0)
            cells.append((sum(c) - n + z, z, {n - k: d for k, d in hom.items() if k <= n}))
    return cells


def ref_ext_dims(g, masks, p):
    """((k, dim Ext^k), ...) of a dual Taylor slice, with every subset of
    the order filter listed: the subsets of g generators that meet every
    mask, cones included."""
    subsets = [S for S in range(1 << g) if all(S & m for m in masks)]
    return tuple((k + 1, d) for k, d in reduced_homology_dims(subsets, p).items())


def merge_cells(cells):
    """Cells (fixed_sum, f, {i: dim}) summed by (fixed_sum, f), in the
    sorted shape of ``localcohom._cells``: ((fs, f, ((i, dim), ...)), ...)."""
    merged = {}
    for fs, f, by_i in cells:
        for i, dim in by_i.items():
            key = (fs, f, i)
            merged[key] = merged.get(key, 0) + dim
    out = {}
    for (fs, f, i), dim in sorted(merged.items()):
        out.setdefault((fs, f), []).append((i, dim))
    return tuple((fs, f, tuple(dims)) for (fs, f), dims in out.items())


def ref_rows(cells, n, lo, hi):
    """Each row on the window [lo, hi], every cell counted at every degree
    of the window: dim times the number of multidegrees with f coordinates
    <= -1 summing to j - fixed_sum."""
    rows = {i: [0] * (hi - lo + 1) for i in range(n + 1)}
    for fixed_sum, f, by_i in cells:
        for i, dim in dict(by_i).items():
            for j in range(lo, hi + 1):
                if f == 0:
                    cnt = 1 if j == fixed_sum else 0
                else:
                    m = fixed_sum - j
                    cnt = comb(m - 1, f - 1) if m >= f else 0
                rows[i][j - lo] += dim * cnt
    return rows


def ref_koszul_key(I, b):
    """supp(b) and the tight masks {i : g_i = b_i > 0} of the generators g
    dividing x^b, as vertex bitmasks, from the generators one at a time."""
    tight = frozenset(
        sum(1 << i for i, (e, top) in enumerate(zip(g.exps, b)) if e == top > 0)
        for g in I.gens
        if all(e <= top for e, top in zip(g.exps, b))
    )
    return sum(1 << i for i, e in enumerate(b) if e > 0), tight


def ref_betti_entries(I):
    """Betti table entries with every upper Koszul complex listed and ranked
    afresh."""
    entries = {(0, 0): 1}
    if not I.is_zero:
        for b in lcm_lattice(I):
            faces = upper_koszul_faces(*ref_koszul_key(I, b))
            for k, dim in reduced_homology_dims(faces, I.ctx.char).items():
                entries[(k + 2, sum(b))] = entries.get((k + 2, sum(b)), 0) + dim
    return entries


def ref_fit_tail(values, lo, module_dim):
    """Tail fit by exact Lagrange interpolation through the deg lowest
    window points, deg = max(module_dim, 0), as its Fraction coefficients
    from low to high powers; None unless the fit is certified by matching
    two spare points, all of them at degrees <= -1."""
    deg = max(module_dim, 0)
    pts = [(lo + t, Fraction(values[t])) for t in range(deg + 2)]
    if deg == 0:
        poly = (Fraction(0),)
    else:
        poly = tuple(lagrange_interpolate([x for x, _ in pts[:deg]],
                                          [y for _, y in pts[:deg]]))
    ok = lo + deg + 1 <= -1 and all(
        sum(c * x**k for k, c in enumerate(poly)) == y for x, y in pts)
    return poly if ok else None


def lagrange_interpolate(xs, ys):
    """Exact interpolation through (xs, ys); Fraction coefficients
    low-to-high."""
    m = len(xs)
    coeffs = [Fraction(0)] * m
    for t in range(m):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for u in range(m):
            if u == t:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k + 1] += c
                new[k] -= c * xs[u]
            basis = new
            denom *= xs[t] - xs[u]
        scale = Fraction(ys[t]) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    return coeffs


def poly_nonneg_on_ray(coeffs, start, direction):
    """Whether the polynomial is >= 0 at every integer along the ray from
    ``start`` in ``direction`` (+1 or -1): the sign at infinity, then every
    point up to the Cauchy root bound."""
    q = [Fraction(c) for c in coeffs]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return True
    d = len(q) - 1
    lead = q[-1]
    sign_at_inf = lead if (direction > 0 or d % 2 == 0) else -lead
    if d > 0 and sign_at_inf < 0:
        return False
    if d == 0:
        return lead >= 0
    bound = ceil(1 + max(abs(c / lead) for c in q[:-1]))
    stop = max(start, bound) if direction > 0 else min(start, -bound)
    pts = range(start, stop + direction, direction)
    return all(sum(c * j**k for k, c in enumerate(q)) >= 0 for j in pts)


def ref_series_nonneg(numer, nvars):
    """Whether every coefficient of numer(t) / (1-t)^nvars is >= 0: the
    numerator's support D checked explicitly, then the nvars coefficients
    after D, which follow one polynomial of degree < nvars."""
    numer = list(numer)
    while numer and numer[-1] == 0:
        numer.pop()
    if not numer:
        return True
    D = len(numer) - 1
    coeffs = _series_coeffs(numer, nvars, D + nvars)
    return all(c >= 0 for c in coeffs[:D + 1]) and values_nonneg(coeffs[D + 1:])


def ref_total_numerator(numers):
    """(1-t) sum_{h<H} t^h N_h + t^H N_H from the component numerators
    N_0, ..., N_H, by polynomial sums of shifted tuples."""
    below = (0,)
    for h, numer in enumerate(numers[:-1]):
        below = _poly_add(below, _shift(numer, h))
    return _poly_add(_poly_mul(below, (1, -1)), _shift(numers[-1], len(numers) - 1))


def ref_z_order_compare(J, L):
    """z_order_compare with every numerator computed afresh per level by
    ``hilbert_series``, the precondition from two recomputed totals, and
    each sign tested on its own at every level."""
    if J.ctx != L.ctx:
        raise HilbertMismatchError("contexts differ")
    n = J.ctx.drop_z().n
    H = max(J.s, L.s)
    numers_J = [hilbert_series(J.component(h)).numer for h in range(H + 1)]
    numers_L = [hilbert_series(L.component(h)).numer for h in range(H + 1)]
    if ref_total_numerator(numers_J) != ref_total_numerator(numers_L):
        raise HilbertMismatchError("the ideals have different Hilbert functions")
    negated_L = [tuple(-c for c in numer) for numer in numers_L]
    le = ge = True
    diff = (0,)
    for h in range(H + 1):
        diff = _poly_add(diff, _shift(_poly_add(numers_J[h], negated_L[h]), h))
        if not any(diff):
            continue
        if not ref_series_nonneg(diff, n):
            le = False
        if not ref_series_nonneg(tuple(-c for c in diff), n):
            ge = False
    tail = _poly_add(numers_J[H], negated_L[H])
    if any(tail):
        if not ref_series_nonneg(tuple(-c for c in tail), n + 1):
            le = False
        if not ref_series_nonneg(tail, n + 1):
            ge = False
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


def ref_windowed_z_order_compare(J, L, window):
    """z-order comparison from explicit partial-sum dims on degrees
    0..window at every level up to both stabilization indices."""
    le = ge = True
    strict_le = strict_ge = False
    for h in range(max(J.s, L.s) + 1):
        sums = []
        for Z in (J, L):
            vals = [0] * (window + 1)
            for k in range(min(h, window) + 1):
                for d in range(window + 1 - k):
                    vals[d + k] += graded_piece_dim(Z.component(k), d)
            sums.append(vals)
        for x, y in zip(*sums):
            if x < y:
                strict_le, ge = True, False
            elif x > y:
                strict_ge, le = True, False
    if le and ge:
        return "equal"
    if le:
        return "less" if strict_le else "equal"
    if ge:
        return "greater" if strict_ge else "equal"
    return "incomparable"


def ref_is_z_stable(Z):
    """z-stability by its definition: each component times the maximal
    ideal of R, formed as a product ideal, lies in the component below."""
    m_R = Z.ctx.drop_z().max_ideal()
    return all(Z.components[k].contains_ideal(ideal_product(Z.components[k + 1], m_R))
               for k in range(Z.s))


def ref_generator_tallies(P, upto):
    """Degreewise dims of P/(m*P + b) from two exact Hilbert series:
    H_{B/(mP+b)}(d) - H_{B/(P+b)}(d)."""
    mP = ideal_product(P.ctx.max_ideal(), P).plus_powers()
    hP, hmP = hilbert_series(P.plus_powers()), hilbert_series(mP)
    return tuple(hmP.value(d) - hP.value(d) for d in range(upto + 1))


def ref_ideal_sum(I, J):
    """I + J by minimalizing the union of both generator sets."""
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")
    return minimalize(I.ctx, I.gens + J.gens)


def ref_ideal_product(I, J):
    """I * J by minimalizing the validated products of the generators."""
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")
    return minimalize(I.ctx, [a.mul(b) for a in I.gens for b in J.gens])


def ref_ideal_intersection(I, J):
    """I meet J by minimalizing the validated lcms of the generators."""
    if I.ctx != J.ctx:
        raise MixedContextError(f"contexts differ: {I.ctx} vs {J.ctx}")
    return minimalize(I.ctx, [a.lcm(b) for a in I.gens for b in J.gens])


def ref_colon(I, m):
    """I : (m) by minimalizing the validated colons of the generators."""
    return minimalize(I.ctx, [g.colon(m) for g in I.gens])


def ref_saturate_by_parts(I, J):
    """I : J^infinity as the intersection of the I : g^infinity, each built
    from validated Monomials and minimalized."""
    out = MonomialIdeal.unit(I.ctx)
    for g in J.gens:
        out = ref_ideal_intersection(out, minimalize(I.ctx, [
            Monomial(tuple(0 if gi else e for e, gi in zip(h.exps, g.exps)))
            for h in I.gens]))
    return out


def ref_z_recompose(Z):
    """The ideal of R[z] minimalized from every x^a z^h, x^a a generator
    of component h, built as validated Monomials."""
    return minimalize(Z.ctx, [Monomial(g.exps + (h,))
                              for h, comp in enumerate(Z.components) for g in comp.gens])


def ref_z_decompose(I):
    """z-components, each minimalized from every generator of z-degree at
    most its level."""
    ctx_R = I.ctx.drop_z()
    s = max((g.exps[-1] for g in I.gens), default=0)
    return ZGradedIdeal(I.ctx, tuple(
        minimalize(ctx_R, [Monomial(g.exps[:-1]) for g in I.gens if g.exps[-1] <= h])
        for h in range(s + 1)))


def ref_restriction(I, E, W):
    """Hilb(I + (z^j)) >= Hilb(E + (z^j)) for j = 0..W, from the ideal
    windows of both sums in R[z]: (holds, first failing (j, d) or None)."""
    ctx = I.ctx
    for j in range(W + 1):
        zj = MonomialIdeal.make(ctx, [Monomial((0,) * (ctx.n - 1) + (j,))])
        a = ideal_window(ref_ideal_sum(I, zj), W)
        b = ideal_window(ref_ideal_sum(E, zj), W)
        if any(x < y for x, y in zip(a, b)):
            return False, (j, next(d for d in range(W + 1) if a[d] < b[d]))
    return True, None


def ref_nonstable_instances(spec):
    """The non-stable ideals of a random family, one family per draw: draw
    number a (from 1) is the only sample of the family with seed
    spec.seed + a, its context, power ideal and pool built anew."""
    produced = attempt = 0
    while produced < spec.count:
        attempt += 1
        I = next(enumerate_family(replace(spec, seed=spec.seed + attempt, count=1)))
        if not ref_is_z_stable(ref_z_decompose(I)):
            produced += 1
            yield I
