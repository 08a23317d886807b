"""Family enumeration and the theorem-by-theorem verification harness.

Every check here is a statement the underlying mathematics guarantees, so
the harness is a self-test of this package rather than an experiment: any
failure is a defect and exits nonzero with a reproducible instance dump.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field, fields, replace

from . import limits, zstable
from .betti import betti_table, corners, region_dominates
from .core import (DEFAULT_CHAR, Monomial, MonomialIdeal, RingContext, _grlex_key,
                   _minimal_ideal, antichain_sum, ideal_product)
from .embeddings import _certified_embedding, epsilon_one, lex_ideal_of, lpp_ideal
from .errors import HilbertMismatchError
from .hilbert import HilbertSeries, _poly_add, _times_one_minus_power, hilbert_series
from .ioformat import format_ideal
from .localcohom import (CohomologyTable, cohomology_table, cohomology_tables,
                         compare_tables)


@dataclass(frozen=True)
class FamilySpec:
    """A family of monomial ideals containing the power ideal b.

    ``n`` counts the x variables; with ``with_z`` the ideals live in
    K[x1..xn][z].  Extra generators are drawn from the bounded monomial
    basis in degrees 1..max_deg.
    """

    n: int
    char: int = DEFAULT_CHAR
    powers: tuple[int, ...] = ()
    max_deg: int = 3
    mode: str = "random"
    count: int = 500
    seed: int = 0
    with_z: bool = False
    max_extra_gens: int = 5

    def context(self) -> RingContext:
        ctx = RingContext(self.n, self.char, tuple(self.powers))
        return ctx.add_z() if self.with_z else ctx

    def describe(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["powers"] = list(self.powers)
        return out


def _pool_size(ctx: RingContext, lo: int, hi: int) -> int:
    """How many bounded-basis monomials have degree lo..hi, found without
    listing them; a ResourceLimitError when more than ``limits.POOL_LIMIT``.

    Before any work that grows with n or hi, three sets of candidates bound
    the count from below: n - 1 in degree lo; one in each degree of lo..hi,
    with hi cut to E, the top degree of S when no variable is free; and
    min(lo, E - lo + 1) in degree lo.  Below the limit they leave a window
    that ends under twice the limit, read upside down (e -> caps - e) when
    E - lo is the nearer end.  The count is that window of the product of
    the series 1 + t + ... + t^cap of the variables, taken one variable at
    a time until it passes the limit.
    """
    caps = [d - 1 for d in ctx.powers]
    free = ctx.n - len(caps)
    top = float("inf") if free else sum(caps)
    hi = min(hi, top)
    if hi < lo:
        return 0
    limit = limits.POOL_LIMIT
    size = max(ctx.n - 1, hi - lo + 1, min(lo, top - lo + 1))
    if size <= limit:
        if top - lo < hi:
            lo, hi = top - hi, top - lo
        size, coeffs = 0, [1] + [0] * hi
        for cap in [hi] * free + sorted(caps, reverse=True):
            sums = list(itertools.accumulate(coeffs))
            coeffs = [sums[k] - (sums[k - cap - 1] if k > cap else 0)
                      for k in range(hi + 1)]
            size = sum(coeffs[lo:])
            if size > limit:
                break
    return limits.check("POOL_LIMIT", size,
                        f"the family draws from at least {size} candidate generators")


def _basis_pool(ctx: RingContext, max_deg: int) -> list[Monomial]:
    """Candidate extra generators: bounded-basis monomials in degrees from
    the largest power degree (1 when there are no powers) up to max_deg."""
    lo = max(ctx.powers[-1], 1) if ctx.powers else 1
    size = _pool_size(ctx, lo, max_deg)
    pool = []
    for d in range(lo, max_deg + 1):
        if len(pool) == size:  # the degrees left are past the top one of S
            break
        pool.extend(ctx.monomials(d, bounded=True))
    return pool


def _draw(spec: FamilySpec, ctx: RingContext, pool: list[Monomial],
          rng: random.Random) -> MonomialIdeal:
    """One random ideal of the family: b plus up to ``spec.max_extra_gens``
    candidates sampled from ``pool``."""
    k = rng.randint(0, min(spec.max_extra_gens, len(pool)))
    extra = tuple(m.exps for m in rng.sample(pool, k))
    return _minimal_ideal(ctx, ctx.powers_ideal().exps + extra)


def enumerate_family(spec: FamilySpec):
    """Deterministic stream of monomial ideals containing b."""
    ctx = spec.context()
    pool = _basis_pool(ctx, spec.max_deg)
    if spec.mode == "exhaustive":
        limits.check("INSTANCE_LIMIT", 2 ** len(pool),
                     f"exhaustive family would scan 2^{len(pool)} subsets")
        b = ctx.powers_ideal().exps
        candidates = [m.exps for m in pool]
        seen = set()
        ideals = []
        for size in range(len(pool) + 1):
            for combo in itertools.combinations(candidates, size):
                I = _minimal_ideal(ctx, b + combo)
                if I.exps not in seen:
                    seen.add(I.exps)
                    ideals.append(I)
        ideals.sort(key=lambda I: tuple(map(_grlex_key, I.exps)))
        yield from ideals
    elif spec.mode == "random":
        rng = random.Random(spec.seed)
        for _ in range(spec.count):
            yield _draw(spec, ctx, pool, rng)
    else:
        raise ValueError(f"unknown family mode {spec.mode!r}")


def stable_instances(spec: FamilySpec):
    """Z-stable instances: sampled ideals pushed through the stabilizer."""
    for I in enumerate_family(spec):
        yield zstable.z_recompose(zstable.z_stabilize(I))


def nonstable_instances(spec: FamilySpec):
    """Sampled ideals that genuinely fail z-stability (stabilizer inputs).

    In random mode the pool is listed once, and draw number ``attempt``
    (from 1) is the first sample of the family with seed
    ``spec.seed + attempt``.  The stream keeps drawing until ``count``
    non-stable ideals were produced, and is refused once more than
    ``limits.DRAWS_PER_SAMPLE_LIMIT`` draws in a row found none, so a
    too-stable family is refused after as many draws whatever its
    ``count``.
    """
    if spec.mode != "random":  # exhaustive, or refused by enumerate_family
        for I in enumerate_family(spec):
            if not zstable.is_z_stable(zstable.z_decompose(I)):
                yield I
        return
    ctx = spec.context()
    pool = _basis_pool(ctx, spec.max_deg)
    produced = attempt = found_at = 0
    while produced < spec.count:
        attempt += 1
        limits.check("DRAWS_PER_SAMPLE_LIMIT", attempt - found_at,
                     f"{attempt} draws for {spec.count} non-stable samples found {produced}")
        I = _draw(spec, ctx, pool, random.Random(spec.seed + attempt))
        if not zstable.is_z_stable(zstable.z_decompose(I)):
            produced += 1
            found_at = attempt
            yield I


# ---------------------------------------------------------------------------
# per-instance theorem checks


@dataclass
class InstanceRecord:
    """One instance's checks, by name.  ``first_fail`` is the first failing
    coordinate, in the order the checks run, or None when no check that
    reads coordinates failed."""

    ideal: str
    checks: dict[str, bool]
    lpp: str | None = None
    first_fail: tuple[int, int] | None = None
    betti: dict[str, list[list[int]]] = field(default_factory=dict)
    cohomology: dict[str, list[dict]] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _ctx_json(ctx: RingContext) -> dict:
    return {"n": ctx.nx, "char": ctx.char, "powers": list(ctx.powers), "z": ctx.z}


def _betti_triples(T) -> list[list[int]]:
    return [[i, j, v] for (i, j), v in sorted(T.entries.items())]


def _cohom_rows(T: CohomologyTable) -> list[dict]:
    rows = []
    for i in range(T.n + 1):
        rows.append({
            "i": i,
            "lo": T.lo,
            "hi": T.hi,
            "values": list(T.rows[i]),
            "tail_poly": T.tails[i].printed(),
            "certified": True,  # every tail is exact; kept for the recorded digests
        })
    return rows


def _cohomology_le(I: MonomialIdeal, L: MonomialIdeal, key: str,
                   backend: str) -> InstanceRecord:
    """Coefficientwise H^i(A/I) <= H^i(A/L) for all i (window + tails)."""
    TA, TB = cohomology_tables((I, L), backend)
    ok, fail = compare_tables(TA, TB)
    return InstanceRecord(
        ideal=format_ideal(I),
        lpp=format_ideal(L),
        checks={"cohomology_le": ok},
        first_fail=fail,
        cohomology={"quotient": _cohom_rows(TA), key: _cohom_rows(TB)},
    )


def verify_cohomology_lpp(I: MonomialIdeal,
                          backend: str = "combinatorial") -> InstanceRecord:
    """The lex-plus-power ideal maximizes local cohomology."""
    return _cohomology_le(I, lpp_ideal(I), "lpp", backend)


def verify_lex_cohomology(I: MonomialIdeal,
                          backend: str = "combinatorial") -> InstanceRecord:
    """The powers-free case: the lex-segment ideal maximizes local cohomology."""
    if I.ctx.powers:
        raise ValueError("lex-cohomology check expects a context without powers")
    return _cohomology_le(I, lex_ideal_of(I), "lex", backend)


def _lpp_betti(I: MonomialIdeal):
    """L = LPP(I), the Betti tables of A/I and A/L, and their corners."""
    L = lpp_ideal(I)
    TI, TL = betti_table(I), betti_table(L)
    return L, TI, TL, corners(TI), corners(TL)


def verify_betti_lpp_corners(I: MonomialIdeal,
                             backend: str = "combinatorial") -> InstanceRecord:
    """At every corner of the LPP quotient, beta(A/I) <= beta(A/LPP); plus
    the corner identity beta_ij = H^{n-i} at j-n on both quotients."""
    L, TI, TL, cI, cL = _lpp_betti(I)
    n = I.ctx.n
    le_fail = next(((c.i, c.j) for c in cL if TI.beta(c.i, c.j) > c.value), None)
    HI, HL = (cohomology_table(J, backend=backend) for J in (I, L))
    id_fail = next(((c.i, c.j) for T, H, cs in ((TI, HI, cI), (TL, HL, cL)) for c in cs
                    if T.beta(c.i, c.j) != H.value(n - c.i, c.j - n)), None)
    return InstanceRecord(
        ideal=format_ideal(I),
        lpp=format_ideal(L),
        checks={"corner_le": le_fail is None, "corner_identity": id_fail is None},
        first_fail=le_fail or id_fail,
        betti={"quotient": _betti_triples(TI), "lpp": _betti_triples(TL)},
    )


def verify_region_inclusion(I: MonomialIdeal) -> InstanceRecord:
    """Every corner of A/I is dominated by a corner of A/LPP."""
    L, TI, TL, cI, cL = _lpp_betti(I)
    fail = next(((c.i, c.j) for c in cI if not region_dominates([c], cL)), None)
    return InstanceRecord(
        ideal=format_ideal(I),
        lpp=format_ideal(L),
        checks={"region_dominated": fail is None},
        first_fail=fail,
        betti={"quotient": _betti_triples(TI), "lpp": _betti_triples(TL)},
    )


# --- the lemma suite for embeddings -----------------------------------------


def _generator_tallies(P: MonomialIdeal, upto: int) -> tuple[int, ...]:
    """Degreewise counts of minimal generators of the quotient-ring ideal
    P/b, i.e. dims of P/(m*P + b), on degrees 0..upto: P's stored
    ``generator_tallies``, cut or padded with zeros."""
    tallies = P.generator_tallies[:max(upto + 1, 0)]
    return tallies + (0,) * (upto + 1 - len(tallies))


def verify_embedding_lemmas(I: MonomialIdeal, epsilon=None) -> InstanceRecord:
    """The supporting-lemma suite on a z-stable instance over S[z].

    ``epsilon`` substitutes the embedding map (used by mutation tests);
    the default is the extended lex-first embedding, computed once.  The
    genuine embedding must be z-stable with embedded components: a failure
    of either is a bug, raised as an AssertionError.  A refusal of the
    genuine embedding (a ResourceLimitError naming its limit) is raised
    too, never read as a failed lemma; only a substituted embedding that
    refuses m * I fails ``multiply_then_embed``.

    What follows from the numerators stored on the chains of I and E is
    read off them: the restriction inequality, when ``z_order_compare``
    already orders the chains; the saturation swap; and, for the genuine
    embedding, the series of m * I + b.  The facts that depend on E alone,
    which repeats once per Hilbert series, are stored on its chain.

    Every other fact the suite reads of an ideal or a chain is stored on
    it too, so a repeated instance recomputes none of them: the top
    generator degrees and the generator tallies of I and E, the
    m-saturation of eps(bar I) (``MonomialIdeal.m_saturation``), and the
    component windows of both chains (``ZGradedIdeal.window``).  Of these
    only the windows check ``limits.NUMERATOR_DEGREE_LIMIT``, through the
    numerators they are read off; the others run no recursion and can be
    refused by no limit.
    """
    ctx = I.ctx
    if not ctx.z:
        raise ValueError("the lemma suite runs over a context with z")
    I = I.plus_powers()
    dec = zstable.z_decompose(I)
    if not zstable.is_z_stable(dec):
        raise ValueError("instance must be z-stable (use z_stabilize first)")
    embed = epsilon or epsilon_one
    E = embed(I)
    checks: dict[str, bool] = {}
    W = zstable.default_window(I, E)

    # same Hilbert function (embedding well-definedness)
    numer = hilbert_series(I).numer
    checks["same_hilbert"] = hilbert_series(E).numer == numer

    # the image is z-stable with embedded components
    decE = zstable.z_decompose(E)
    checks["image_z_stable"] = zstable.is_z_stable(decE)
    if epsilon is None:
        if not checks["image_z_stable"]:
            raise AssertionError("extended embedding produced a non-z-stable ideal (bug)")
        if not decE.all_embedded():
            raise AssertionError("extended embedding has a non-embedded component (bug)")

    # m * eps(I) <= eps(m * I); a refusal of the genuine embedding is raised.
    # The genuine eps(m * I) is the certified embedding of the series of
    # m * I + b, read off I's series and stored generator tallies; a
    # substituted embedding is given m * I + b.
    try:
        if epsilon is None:
            EmI = _certified_embedding(HilbertSeries(
                ctx, _times_m_numerator(numer, I.generator_tallies, ctx.n)))
        else:
            EmI = embed(ideal_product(ctx.max_ideal(), I).plus_powers())
        checks["multiply_then_embed"] = _holds_m_times(EmI, E)
    except (ValueError, RuntimeError):
        if epsilon is None:
            raise
        checks["multiply_then_embed"] = False  # corrupted embeddings may not close

    # generator-count inequality beta_1j(I) <= beta_1j(eps I)
    tI, tE = _generator_tallies(I, W), _generator_tallies(E, W)
    count_fail = next(((1, d) for d, (a, b) in enumerate(zip(tI, tE)) if a > b), None)
    checks["generator_counts"] = count_fail is None

    # restriction inequality: Hilb(I + (z^j)) >= Hilb(eps(I) + (z^j)) for
    # j <= W.  It holds at every j and degree when the chain of E lies
    # below that of I in the z order (``_restriction_fail``).
    try:
        order = zstable.z_order_compare(decE, dec)
    except HilbertMismatchError:
        order = None
    restriction_fail = None if order in ("less", "equal") else _restriction_fail(dec, decE, W)
    checks["restriction_ineq"] = restriction_fail is None

    # saturations: eps(bar I)^sat == bar(eps_1 I)^sat
    barI = zstable.bar(dec)
    eps_bar = lpp_ideal(barI) if ctx.powers else lex_ideal_of(barI)
    checks["saturated_bars_agree"] = eps_bar.m_saturation == decE.bar_saturation

    # equal Hilbert functions high up push down to the bars, whose windows
    # are those of the bottom components
    thresh = max(I.max_gen_degree(), E.max_gen_degree()) + 1
    checks["bars_agree_high"] = dec.window(0, W)[thresh:] == decE.window(0, W)[thresh:]

    # saturation commutes with killing z up to saturation
    checks["saturate_bar_swap"] = _bar_swap_holds(dec)

    checks["top_partial_sums"] = _top_partial_sums(dec, decE)

    return InstanceRecord(
        ideal=format_ideal(I),
        lpp=format_ideal(E),
        checks=checks,
        first_fail=count_fail or restriction_fail,
    )


def _times_m_numerator(numer: tuple[int, ...], tallies, n: int) -> tuple[int, ...]:
    """The numerator of Hilb(R/(m*P + b)) over (1-t)^n, from that of
    R/(P + b) and the generator tallies of P/b over every generator degree
    (P's stored ``generator_tallies``, unpadded; trailing zeros would
    change nothing, as the sum is trimmed).  The quotient by m*P + b gains
    (P + b)/(m*P + b), whose dims are the tallies, so
    numer(m*P + b) = numer(P + b) + (1-t)^n sum_d tallies[d] t^d."""
    gained = list(tallies)
    for _ in range(n):
        gained = _times_one_minus_power(gained, 1)
    return _poly_add(numer, gained)


def _restriction_fail(dec: zstable.ZGradedIdeal, decE: zstable.ZGradedIdeal,
                      W: int) -> tuple[int, int] | None:
    """The first (j, d), j and d in 0..W, where the restriction inequality
    Hilb(I + (z^j)) >= Hilb(E + (z^j)) fails, or None.  In degree d both
    sides hold every monomial of z-degree >= j, so
      dim(I + (z^j))_d - dim(E + (z^j))_d
        = sum_{h<j} dim(I_<h>)_{d-h} - dim(E_<h>)_{d-h},
    a running total over the component windows (j = 0 gives 0), read off
    the chains' stored numerators: gap number j of ``gaps`` holds it by d.

    That total is the coefficient of t^d in D_(j-1) / (1-t)^n, the level
    j - 1 partial-sum difference of ``z_order_compare(decE, dec)``,
    which is exact at every degree and level: its answer "less" or "equal"
    means no gap is negative, and the lemma suite then skips this scan."""
    winI = [dec.window(h, W) for h in range(dec.s + 1)]
    winE = [decE.window(h, W) for h in range(decE.s + 1)]
    steps = ([0] * h + [a - b for a, b in zip(winI[min(h, dec.s)], winE[min(h, decE.s)])]
             for h in range(W))
    gaps = itertools.accumulate(steps, lambda gap, step: [x + y for x, y in zip(gap, step)],
                                initial=[0] * (W + 1))
    return next(((j, d) for j, gap in enumerate(gaps) for d, x in enumerate(gap) if x < 0),
                None)


def _bar_swap_holds(dec: zstable.ZGradedIdeal) -> bool:
    """Whether the bar of the z-saturation, I_<s>, and the bar I_<0> have
    the same saturation by m_R, read off their stored numerators.

    I_<0> lies in I_<s>, so the saturations agree exactly when I_<s>/I_<0>
    has finite length, that is when its series
    (numer(R/I_<0>) - numer(R/I_<s>)) / (1-t)^n is a polynomial: when
    (1-t)^n divides the difference of the numerators.  One division by
    1 - t is a running sum, exact when the coefficients sum to 0.

    On the z-stable chains that the lemma suite accepts it always holds:
    I_<k+1> m_R lies in I_<k> for every k, so m_R^s I_<s> lies in I_<0>
    and I_<s>/I_<0> has finite length.  No embedding, genuine or
    substituted, can fail it; it guards the chain's stored numerators,
    since a wrong numerator of the bottom or top component can fail it."""
    numers = dec.numerators()
    diff = [a - b for a, b in itertools.zip_longest(numers[0], numers[-1], fillvalue=0)]
    for _ in range(dec.components[0].ctx.n):
        if not any(diff):
            return True
        *diff, rest = itertools.accumulate(diff)
        if rest:
            return False
    return True


def _holds_m_times(P: MonomialIdeal, E: MonomialIdeal) -> bool:
    """Whether P contains m*E + b, read without forming m*E: P holds
    x_i * g for every generator g of E and every variable x_i, which is
    ``zstable._shadow_gaps`` of (P, E) in all n variables being empty (one
    pass over P per g), and b, which is P's stored closure being P itself
    (``plus_powers``)."""
    return not zstable._shadow_gaps(P.exps, E.exps, P.ctx.n) and P.plus_powers() is P


def _top_partial_sums(dec: zstable.ZGradedIdeal, decE: zstable.ZGradedIdeal) -> bool:
    """Partial-sum inequality between the push-downs of the z-saturations of
    a z-stable ideal I and of its extended embedding E, given as their
    z-decompositions, at a degree d beyond all generators: summing dims
    downward from degree d, the original ideal dominates its embedding (this
    is the degreewise restatement of the restriction inequality
    Hilb(I + (z^j)) >= Hilb(E + (z^j)), and the full sums at j = d agree
    because the Hilbert functions do).  The lemma suite, its one caller,
    has checked that I is z-stable, and runs it on a substituted embedding
    too, which may break it."""
    d = max(dec.max_gen_degree(), decE.max_gen_degree()) + 2
    # the bar of the z-saturation is the top component, whose window is
    # read off its stored numerator; the components of a preimage's
    # z-decomposition already hold b
    diff = [a - b for a, b in zip(dec.window(dec.s, d), decE.window(decE.s, d))]
    *sums, total = itertools.accumulate(reversed(diff))
    return all(x >= 0 for x in sums) and total == 0  # equal Hilbert functions: equal totals


# --- extension recurrences along z ------------------------------------------


def check_extension_recurrence(I: MonomialIdeal,
                               backend: str = "combinatorial"
                               ) -> dict[str, tuple[int, int] | None]:
    """Verify the two summation recurrences tying H^i over R[z] to H^{i-1}
    over R, for a z-stable monomial ideal given by its preimage.

    For i > 0 the row of H^i(R[z]/I) at h equals the upper partial sum of
    the row of H^{i-1}(R/J) starting at h+1, where J is the z-saturation
    pushed down to R; for i > 1 the same holds with the downstairs
    saturation of the plain push-down.  Returns ``{"upper-sum": m,
    "bar-saturated": m}``, each m the first mismatch (i, h), by i and then
    h, or None when the recurrence holds.
    """
    dec = zstable.z_decompose(I)
    if not zstable.is_z_stable(dec):
        raise ValueError("the recurrence requires a z-stable ideal")
    ctx = I.ctx
    big = cohomology_table(I, backend=backend)
    lo, hi = big.lo, big.hi

    J_sat = zstable.bar(zstable.z_saturate(dec))      # bar of the z-saturation

    mismatches = {}
    for name, J, min_i in (("upper-sum", J_sat, 1), ("bar-saturated", dec.bar_saturation, 2)):
        small = cohomology_table(J, (lo, hi), backend=backend)
        mismatches[name] = next(((i, lo + k) for i in range(min_i, ctx.n + 1)
                                 for k, (v, a) in enumerate(zip(big.rows[i],
                                                                _sums_above(small.rows[i - 1])))
                                 if v != a), None)
    return mismatches


def _sums_above(row) -> list[int]:
    """Entry k is the sum of row[k + 1:]: one running sum from the end."""
    return [*itertools.accumulate(reversed(row[1:]), initial=0)][::-1]


def verify_recurrences(I: MonomialIdeal,
                       backend: str = "combinatorial") -> InstanceRecord:
    mismatches = check_extension_recurrence(I, backend=backend)
    return InstanceRecord(
        ideal=format_ideal(I),
        checks={name: m is None for name, m in mismatches.items()},
        first_fail=next(filter(None, mismatches.values()), None),
    )


def verify_zstabilize(I: MonomialIdeal) -> InstanceRecord:
    """Stabilizer contract: output stable, >= input in the partial order,
    Hilbert-window-identical, within ``limits.STABILIZATION_ROUND_LIMIT``
    rounds.  ``stable`` also asks that the components increase, I_<h> in
    I_<h+1>, so that the other checks read one ideal: ``hilbert_preserved``
    its recomposition and ``weakly_increased`` its components.  An output
    with another Hilbert function, which ``z_order_compare`` refuses to
    order, fails ``hilbert_preserved`` and ``weakly_increased``."""
    dec = zstable.z_decompose(I)
    out = zstable.z_stabilize(I)
    J = zstable.z_recompose(out)
    try:
        order = zstable.z_order_compare(dec, out)
    except HilbertMismatchError:  # a stabilizer that broke the Hilbert function
        order = None
    checks = {
        "stable": zstable.is_z_stable(out) and all(
            antichain_sum(upper, lower) is upper
            for lower, upper in zip(out.antichains, out.antichains[1:])),
        "hilbert_preserved": hilbert_series(J).numer == hilbert_series(I).numer,
        "weakly_increased": order in ("less", "equal"),
    }
    return InstanceRecord(ideal=format_ideal(I), lpp=format_ideal(J), checks=checks)


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    theorem: str
    family: FamilySpec
    records: list[InstanceRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        failed = [r for r in self.records if not r.passed]
        return {
            "total": len(self.records),
            "passed": len(self.records) - len(failed),
            "failed": len(failed),
        }

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "theorem": self.theorem,
            "context": _ctx_json(self.family.context()),
            "family": self.family.describe(),
            "instances": [
                {
                    "ideal": r.ideal,
                    "lpp": r.lpp,
                    "checks": r.checks,
                    "first_fail": list(r.first_fail) if r.first_fail else None,
                    "betti": r.betti or None,
                    "cohomology": r.cohomology or None,
                }
                for r in self.records
            ],
            "summary": self.summary(),
        }


THEOREMS = {
    "lpp-cohomology": ("family", verify_cohomology_lpp),
    "lex-cohomology": ("family", verify_lex_cohomology),
    "lpp-corners": ("family", verify_betti_lpp_corners),
    "region": ("family", verify_region_inclusion),
    "embedding-lemmas": ("stable", verify_embedding_lemmas),
    "recurrences": ("stable", verify_recurrences),
    "zstabilize": ("raw", verify_zstabilize),
}


def _timed(op, I: MonomialIdeal) -> InstanceRecord:
    """``op(I)``, with its wall time in the record's ``seconds``."""
    t0 = time.perf_counter()
    rec = op(I)
    rec.seconds = time.perf_counter() - t0
    return rec


def run_family(theorem: str, spec: FamilySpec, jobs: int = 1) -> Report:
    """Run one theorem check over a family; records sorted by serialization.

    Each distinct instance is checked once, before the work is shared out,
    and a repeated one gets a shallow copy of its record (its ``seconds``
    are those of the one check).  ``jobs`` worker processes share the
    distinct instances, at most one per CPU.  A random family of more than
    ``limits.INSTANCE_LIMIT`` samples is refused before any is drawn, like
    an exhaustive one of more subsets.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from "
                         + ", ".join(sorted(THEOREMS)))
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    if spec.mode == "random":
        limits.check("INSTANCE_LIMIT", spec.count, f"the family asks for {spec.count} samples")
    jobs = min(jobs, os.cpu_count() or 1)
    kind, op = THEOREMS[theorem]
    timed = functools.partial(_timed, op)
    stream = {"family": enumerate_family, "stable": stable_instances,
              "raw": nonstable_instances}[kind]
    instances = list(stream(spec))
    distinct = list(dict.fromkeys(instances))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            checked = pool.map(timed, distinct)
    else:
        checked = [timed(I) for I in distinct]
    record_of = dict(zip(distinct, checked))
    records = [replace(record_of[I]) for I in instances]
    records.sort(key=lambda r: r.ideal)
    return Report(theorem, spec, records)
