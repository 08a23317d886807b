"""Decompositions along the last variable, stability, distractions and the
stabilization loop.

A monomial ideal I of R[z] splits as a direct sum of components I_<h> z^h
with I_<0> <= I_<1> <= ... eventually constant; I is z-stable when each
I_<k+1> * m_R lands inside I_<k>.  Non-stable ideals are pushed up a strictly
increasing chain (in the partial order compared here) by alternating a
distraction that replaces z with x_j + z in the top components and a weight
initial ideal; the chain is finite, so the loop terminates in a stable ideal
with the same Hilbert function.  ``distraction_initial`` gives the
components of that initial ideal in closed form, from monomial sums, colons
and intersections, so the loop runs no Groebner basis; ``distraction`` and
the Buchberger engine of ``groebner`` are its test oracle.

``_first_violation`` alone decides stability (``is_z_stable`` asks that it
finds none), and ``z_order_compare`` reads its equal-Hilbert-function
precondition off the component numerators, recomposing no chain.

``z_stabilize`` memoizes each ideal's stable chain and round count for
the whole process, in the ``lru_cache`` ``_stable_chain`` keyed on the
ideal, which carries its ring.  Every round of a computed entry compares
the new chain with the one before by ``z_order_compare``, and that one
comparison is the round's Hilbert check (a changed Hilbert function raises
HilbertMismatchError) and its check of the strict increase.  The ideal's
lcm degree and the round count are checked against
``limits.NUMERATOR_DEGREE_LIMIT`` and ``limits.STABILIZATION_ROUND_LIMIT``
on every call, so a hit skips computation, never a refusal.
STABLE_MEMO_SIZE bounds the memo.

All computations happen on preimages in the ambient polynomial ring: when
the context has powers the component ideals carry the power generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import limits
from .core import (Monomial, MonomialIdeal, RingContext, colon, ideal_intersection,
                   ideal_sum, minimalize)
from .errors import HilbertMismatchError, IterationCapExceededError
from .groebner import Polynomial, TermOrder
from .hilbert import (_poly_add, _poly_mul, _shift, hilbert_series, lcm_degree,
                      series_nonneg)


def _check_z_ctx(ctx: RingContext):
    if not ctx.z:
        raise ValueError("operation requires a context with z as last variable")


def _check_preimage(I: MonomialIdeal):
    if I.ctx.powers and not I.contains_ideal(I.ctx.powers_ideal()):
        raise ValueError(
            "expected the preimage of a quotient ideal: include the power generators"
        )


@dataclass(frozen=True)
class ZGradedIdeal:
    """The component chain I_<0> <= ... <= I_<s> of a z-graded ideal.

    Components live in the context with z dropped and are constant from the
    stabilization index s = len(components) - 1 on.
    """

    ctx: RingContext                      # the R[z] context
    components: tuple[MonomialIdeal, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")

    @property
    def s(self) -> int:
        return len(self.components) - 1

    def component(self, h: int) -> MonomialIdeal:
        return self.components[min(h, self.s)]

    def max_gen_degree(self) -> int:
        """Top degree of a minimal generator of the recomposed ideal: those
        are the x^a z^h with x^a a generator of component h outside
        component h - 1."""
        return max(
            (g.degree + h for h, comp in enumerate(self.components) for g in comp.gens
             if h == 0 or not self.components[h - 1].contains(g)),
            default=0,
        )


def _strip_z(e: tuple[int, ...]) -> tuple[int, ...]:
    return e[:-1]


def z_decompose(I: MonomialIdeal) -> ZGradedIdeal:
    """Split a monomial ideal of R[z] into its z-degree components.

    Component h is component h - 1 plus the generators of z-degree h with
    z stripped.  Those form a canonical antichain of R: they are minimal
    and grlex-sorted in R[z] and share one z-degree; and no generator of a
    lower z-degree divides one of them, so ``ideal_sum`` needs no
    ``minimalize``.
    """
    _check_z_ctx(I.ctx)
    _check_preimage(I)
    ctx_R = I.ctx.drop_z()
    s = max((g.exps[-1] for g in I.gens), default=0)
    levels: list[list[Monomial]] = [[] for _ in range(s + 1)]
    for g in I.gens:
        levels[g.exps[-1]].append(Monomial(_strip_z(g.exps)))
    comps = [MonomialIdeal(ctx_R, tuple(levels[0]))]
    for level in levels[1:]:
        comps.append(ideal_sum(comps[-1], MonomialIdeal(ctx_R, tuple(level))))
    return ZGradedIdeal(I.ctx, tuple(comps))


def z_recompose(Z: ZGradedIdeal) -> MonomialIdeal:
    """Inverse of z_decompose."""
    gens = []
    for h, comp in enumerate(Z.components):
        gens.extend(Monomial(g.exps + (h,)) for g in comp.gens)
    return minimalize(Z.ctx, gens)


def bar(Z: ZGradedIdeal) -> MonomialIdeal:
    """Image under z -> 0, which is the bottom component."""
    return Z.components[0]


def is_z_stable(Z: ZGradedIdeal) -> bool:
    """Check I_<k+1> * m_R <= I_<k> for every k below the stabilization
    index: generator by generator and variable by variable, which is the
    same as containing the product I_<k+1> * m_R."""
    return _first_violation(Z) is None


def colon_z(Z: ZGradedIdeal) -> ZGradedIdeal:
    """I : z, which shifts the component chain down by one."""
    if Z.s == 0:
        return Z
    return ZGradedIdeal(Z.ctx, Z.components[1:])


def z_saturate(Z: ZGradedIdeal) -> ZGradedIdeal:
    """I : z^infinity: the extension of the top component."""
    return ZGradedIdeal(Z.ctx, (Z.components[-1],))


def _total_numerator(numers) -> tuple[int, ...]:
    """Numerator of Hilb(R[z]/I) over (1-t)^n from the numerators
    N_0, ..., N_H of components 0..H, the last one standing for every
    h >= H: (1-t) sum_{h<H} t^h N_h + t^H N_H.  Any H from the
    stabilization index on gives the same polynomial."""
    below = (0,)
    for h, numer in enumerate(numers[:-1]):
        below = _poly_add(below, _shift(numer, h))
    return _poly_add(_poly_mul(below, (1, -1)), _shift(numers[-1], len(numers) - 1))


def default_window(*ideals) -> int:
    """Comparison window: past every generator degree of every ideal in play."""
    maxdeg = max(I.max_gen_degree() for I in ideals)
    n = ideals[0].ctx.n
    return 2 * maxdeg + n + 2


def z_order_compare(J: ZGradedIdeal, L: ZGradedIdeal) -> str:
    """Compare the partial-sum Hilbert functions of the component chains,
    returning "less", "equal", "greater" or "incomparable".

    Both ideals must have the same Hilbert function (checked exactly).  The
    comparison is exact at every degree and every level: for a level h the
    difference of partial sums is the series
    sum_k t^k (numer(R/J_k) - numer(R/L_k)) / (1-t)^n, whose sign
    ``series_nonneg`` decides; levels past both stabilization indices
    reduce (using the equality of total Hilbert functions) to one
    cumulative comparison of the top components.

    The precondition is read off the same numerators (``_total_numerator``
    at H = max(J.s, L.s)), recomposing neither chain.
    """
    if J.ctx != L.ctx:
        raise HilbertMismatchError("contexts differ")
    n = J.ctx.drop_z().n
    H = max(J.s, L.s)
    numers_J = [hilbert_series(J.component(h)).numer for h in range(H + 1)]
    numers_L = [hilbert_series(L.component(h)).numer for h in range(H + 1)]
    if _total_numerator(numers_J) != _total_numerator(numers_L):
        raise HilbertMismatchError("the ideals have different Hilbert functions")
    negated_L = [tuple(-c for c in numer) for numer in numers_L]
    le = ge = True
    diff = (0,)
    for h in range(H + 1):
        diff = _poly_add(diff, _shift(_poly_add(numers_J[h], negated_L[h]), h))
        if not any(diff):
            continue
        if not series_nonneg(diff, n):
            le = False
        if not series_nonneg(tuple(-c for c in diff), n):
            ge = False
    tail = _poly_add(numers_J[H], negated_L[H])
    # levels past H: cumulative comparison of the stabilized components
    if any(tail):
        if not series_nonneg(tuple(-c for c in tail), n + 1):
            le = False
        if not series_nonneg(tail, n + 1):
            ge = False
    # a nonzero difference is a nonzero series, which fails one of the two
    # sign tests: le and ge together mean every difference vanished
    if le and ge:
        return "equal"
    if le:
        return "less"
    if ge:
        return "greater"
    return "incomparable"


def distraction(Z: ZGradedIdeal, d: int, j: int | None) -> list[Polynomial]:
    """Generators of the (d, l)-distraction with l = x_{j+1} + z (or l = z).

    Components of z-degree below d keep their z power; components from d up
    are multiplied by l and lose one z.  The output generates the distracted
    ideal in the ambient ring (power generators ride along inside the
    components).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ctx = Z.ctx
    gens: list[Polynomial] = []
    for h in range(min(d - 1, Z.s) + 1):
        for g in Z.component(h).gens:
            gens.append(Polynomial.make(ctx, [(g.exps + (h,), 1)]))
    if j is None:
        l_terms = [((0,) * (ctx.n - 1) + (1,), 1)]
    else:
        xj = tuple(1 if i == j else 0 for i in range(ctx.n))
        l_terms = [(xj, 1), ((0,) * (ctx.n - 1) + (1,), 1)]
    for h in range(d, max(Z.s, d) + 1):
        for g in Z.component(h).gens:
            terms = [
                (tuple(a + b for a, b in zip(g.exps + (h - 1,), le)), c)
                for le, c in l_terms
            ]
            gens.append(Polynomial.make(ctx, terms))
    return gens


def stabilization_order(ctx: RingContext) -> TermOrder:
    """Weight 1 on the x variables, 0 on z, revlex tiebreak."""
    return TermOrder.x_weight(ctx, "revlex")


def _first_violation(Z: ZGradedIdeal) -> tuple[int, int] | None:
    """Least (d, j) with component d times x_{j+1} not inside component d-1.

    Works on exponent tuples: g * x_{j+1} is g's tuple with entry j raised
    by one, tested against the generators of component d-1.
    """
    for d in range(1, Z.s + 1):
        lower = [g.exps for g in Z.components[d - 1].gens]
        upper = [g.exps for g in Z.components[d].gens]
        for j in range(Z.ctx.n - 1):
            for e in upper:
                ej = e[:j] + (e[j] + 1,) + e[j + 1:]
                if not any(all(a <= b for a, b in zip(h, ej)) for h in lower):
                    return d, j
    return None


def _times_variable(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """x_{j+1} * I: the same degree shift for every generator keeps the
    canonical antichain, so no ``minimalize``."""
    return MonomialIdeal(I.ctx, tuple(
        Monomial(g.exps[:j] + (g.exps[j] + 1,) + g.exps[j + 1:]) for g in I.gens))


def distraction_initial(Z: ZGradedIdeal, d: int, j: int) -> ZGradedIdeal:
    """The components of in(D), D the (d, x_{j+1} + z)-distraction of Z,
    under ``stabilization_order``: a closed form that needs no Groebner
    basis, only monomial sums, colons and intersections.

    With I_h = I_s for h > s and x = x_{j+1}, the components are
    J_e = I_e for e < d - 1 and J_e = I_{d-1} + x I_{e+1} + P_e for
    e >= d - 1, where P_{d-1} = 0 and
    P_e = I_e meet ((I_{d-1} + P_{e-1}) : x).
    Here Q_e = I_{d-1} + P_e is computed instead: Q_{d-1} = I_{d-1} and
    Q_e = I_e meet (Q_{e-1} : x), since I_{d-1} lies in both I_e and
    Q_{e-1} : x; then J_e = Q_e + x I_{e+1}.

    Proof.  D = M + (x + z) N with the monomial ideals
    M = sum_{h<d} I_h z^h and N = sum_{h>=d} I_h z^(h-1).  Fix a degree
    and work modulo M, whose monomials all lie in in(D).  For a monomial u
    of N, (x + z) u = x u + z u lives on one chain a x^k z^(m-k) (a prime
    to x, m fixed): it is an edge {w_k, w_(k+1)}, or a single vertex when
    the other end lies in M.  Chains share no monomial, so in(D) is M plus
    the leading monomials found chain by chain.  The weight order ranks
    more x higher, so the leading monomials of a run of edges are all its
    vertices but the bottom one, or all of them when the run reaches M.
    A vertex v z^e is the top of an edge iff v lies in x I_(e+1).  It is
    the bottom of an edge iff v lies in I_e (and e >= d), and the run goes
    on up through x v z^(e-1), which lies in M iff x v lies in I_{d-1}.
    So the bottoms whose run reaches M are the P_e: the recursion walks up
    the chain until it reaches M.

    Q_e only grows, and for e > s it depends on Q_{e-1} alone, so the walk
    stops at the first e > s with Q_e = Q_{e-1}.  The trailing components
    equal to their predecessor are then trimmed, which gives the chain
    ``z_decompose`` returns for in(D).
    """
    if not 1 <= d <= Z.s + 1:
        raise ValueError(f"d must lie in 1..{Z.s + 1}")
    if not 0 <= j < Z.ctx.nx:
        raise ValueError(f"j must lie in 0..{Z.ctx.nx - 1}")
    x = Z.components[0].ctx.variable(j)
    x_top = _times_variable(Z.components[-1], j)

    def x_times(h: int) -> MonomialIdeal:  # x I_h, where I_h = I_s for h >= s
        return _times_variable(Z.components[h], j) if h < Z.s else x_top

    Q = Z.components[d - 1]
    Q_colon_x = colon(Q, x)
    comps = [*Z.components[:d - 1], ideal_sum(Q, x_times(d))]
    e = d
    while True:
        nxt = ideal_intersection(Z.component(e), Q_colon_x)
        if nxt != Q:
            Q, Q_colon_x = nxt, colon(nxt, x)
        elif e > Z.s:
            break
        comps.append(ideal_sum(Q, x_times(e + 1)))
        e += 1
    while len(comps) > 1 and comps[-1] == comps[-2]:
        comps.pop()
    return ZGradedIdeal(Z.ctx, tuple(comps))


def z_stabilize(I: MonomialIdeal) -> ZGradedIdeal:
    """Deform a monomial ideal of R[z] into a z-stable one with the same
    Hilbert function.

    Each round distracts the first failing component with l = x_j + z (x_j
    the smallest witness variable) and passes to the weight initial ideal,
    whose components ``distraction_initial`` gives in closed form; every
    round moves strictly up in the partial order, so the loop terminates.
    A chain longer than ``limits.STABILIZATION_ROUND_LIMIT`` rounds raises
    IterationCapExceededError.  An I whose generators' lcm degree exceeds
    ``limits.NUMERATOR_DEGREE_LIMIT`` is refused before any round, as
    ``hilbert_series(I)`` would refuse it: that degree bounds the z-degree
    of I, so the length of the chain the rounds start from.

    The chain and its round count are memoized for the whole process, in
    the ``lru_cache`` ``_stable_chain`` keyed on I.  Both limits are
    checked on every call, so a hit skips the rounds, never a refusal; a
    refusal or a failed check is never stored.
    """
    degree = lcm_degree(I)
    limits.check("NUMERATOR_DEGREE_LIMIT", degree, f"the generators' lcm has degree {degree}")
    chain, rounds = _stable_chain(I)
    limits.check("STABILIZATION_ROUND_LIMIT", rounds,
                 f"z_stabilize needs {rounds} rounds", IterationCapExceededError)
    return chain


# Entries of the stabilization memo, one per ideal.  The seed-0 ops of a
# 15 s zstab-harness run (perfbench) stabilize 422 distinct ideals 1,605
# times: 512 entries keep all 1,183 hits, for 0.70 MB more traced memory
# after the run than with no memo (256 entries keep 1,122, for 0.44 MB).
# An entry there takes 1.9 KB on average; the largest seen, a chain of 8
# components with 22 generators in all, takes 5.6 KB.
STABLE_MEMO_SIZE = 512


@lru_cache(maxsize=STABLE_MEMO_SIZE)
def _stable_chain(I: MonomialIdeal) -> tuple[ZGradedIdeal, int]:
    """(the z-stable chain of I, the number of rounds it took).

    Every round's ``z_order_compare(cur, nxt)`` is its one Hilbert check:
    it reads one numerator list off each chain and raises
    HilbertMismatchError when their Hilbert functions differ, so the chain
    keeps the Hilbert function of ``z_decompose(I)``, which is I's.  Its
    answer is the check of the strict increase.  The round limit is
    checked before each round, so the loop stops at the first round past
    it.
    """
    cur = z_decompose(I)
    rounds = 0
    while (viol := _first_violation(cur)) is not None:
        rounds += 1
        limits.check("STABILIZATION_ROUND_LIMIT", rounds,
                     f"z_stabilize needs round {rounds}",
                     IterationCapExceededError)
        nxt = distraction_initial(cur, *viol)
        if z_order_compare(cur, nxt) != "less":
            raise IterationCapExceededError(
                "stabilization step did not strictly increase (bug)"
            )
        cur = nxt
    return cur, rounds
