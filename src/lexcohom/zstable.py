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

A chain stores the facts read from it, each computed on first use: its
component numerators (one ``hilbert_series`` per component), their largest
lcm degree, the total numerator and the answer of ``_first_violation``.
``is_z_stable`` reads the stored answer, ``z_order_compare`` reads both
chains' stored numerators (its equal-Hilbert-function precondition compares
the stored totals, recomposing no chain), and ``ZGradedIdeal.window`` reads a
component's window off its numerator and the numerator of R's power ideal
(``hilbert.ideal_coeffs``), the one source of R's Hilbert function.  Every
read of a numerator checks the stored lcm degree against
``limits.NUMERATOR_DEGREE_LIMIT``, so a stored chain never skips a refusal.

Two memos, keyed on the ideal (which carries its ring), hold chains for
the whole process.  ``z_decompose`` reads ``_decomposition``, so each
ideal is decomposed once and its chain, with the facts stored on it, is
shared by every caller; its refusals of a context without z and of an
ideal that is no preimage are raised on every call and never stored.
``z_stabilize`` reads ``_stable_chain``, each ideal's stable chain and
round count.  Every round of a computed entry compares the new chain with
the one before by ``z_order_compare``, and that one comparison is the
round's Hilbert check (a changed Hilbert function raises
HilbertMismatchError) and its check of the strict increase.  The ideal's
lcm degree and the round count are checked against
``limits.NUMERATOR_DEGREE_LIMIT`` and ``limits.STABILIZATION_ROUND_LIMIT``
on every call, so a hit skips computation, never a refusal.

All computations happen on preimages in the ambient polynomial ring: when
the context has powers the component ideals carry the power generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import limits, memos
from .core import (Monomial, MonomialIdeal, RingContext, _divides_any, _minimal_ideal, colon,
                   ideal_intersection, ideal_sum)
from .errors import HilbertMismatchError, IterationCapExceededError
from .groebner import Polynomial, TermOrder
from .hilbert import hilbert_series, ideal_coeffs, lcm_degree, series_signs


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
    stabilization index s = len(components) - 1 on.  The facts read from
    the chain (numerators, lcm degree, total numerator, first violation)
    are computed on first use and stored on it; they take no part in its
    equality or hash.
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

    @cached_property
    def _lcm_degree(self) -> int:
        return max(map(lcm_degree, self.components))

    @cached_property
    def _numers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(hilbert_series(c).numer for c in self.components)

    @cached_property
    def _total(self) -> tuple[int, ...]:
        return _total_numerator(self._numers)

    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """The numerators of Hilb(R/I_<h>) over (1-t)^n for h = 0..s.

        They are computed once per chain; every read checks the largest lcm
        degree of a component against ``limits.NUMERATOR_DEGREE_LIMIT``, as
        ``hilbert_series`` would, so a stored chain never skips a refusal.
        """
        degree = self._lcm_degree
        limits.check("NUMERATOR_DEGREE_LIMIT", degree, f"a component's lcm has degree {degree}")
        return self._numers

    def total_numerator(self) -> tuple[int, ...]:
        """The numerator of Hilb(R[z]/I) over (1-t)^(n+1), from the stored
        component numerators (``_total_numerator``)."""
        self.numerators()  # checks the limit
        return self._total

    def window(self, h: int, upto: int) -> tuple[int, ...]:
        """Degreewise dims of component h (component s from s on) inside R
        on degrees 0..upto: ``ideal_window`` of the component, read off its
        stored numerator by ``ideal_coeffs``."""
        return ideal_coeffs(self.components[0].ctx, self.numerators()[min(h, self.s)], upto)

    @cached_property
    def violation(self) -> tuple[int, int] | None:
        """``_first_violation`` of the chain, found once."""
        return _first_violation(self)


def z_decompose(I: MonomialIdeal) -> ZGradedIdeal:
    """Split a monomial ideal of R[z] into its z-degree components.

    Component h is component h - 1 plus the generators of z-degree h with
    z stripped.  Those form a canonical antichain of R: they are minimal
    and grlex-sorted in R[z] and share one z-degree; and no generator of a
    lower z-degree divides one of them, so ``ideal_sum`` needs no
    ``minimalize``.  The stripped exponent tuples of each z-degree become
    Monomials once, through ``core._minimal_ideal``.

    The chain is memoized for the whole process, in the memo
    ``_decomposition`` keyed on I, so every caller shares one chain per
    ideal and the facts stored on it.  Both refusals (no z in the context,
    an ideal that is no preimage) are raised on every call, never stored.
    """
    _check_z_ctx(I.ctx)
    _check_preimage(I)
    return _decomposition(I)


@memos.memo(memos.DECOMPOSE_MEMO_SIZE)
def _decomposition(I: MonomialIdeal) -> ZGradedIdeal:
    """The chain of ``z_decompose``, for an I it has checked."""
    ctx_R = I.ctx.drop_z()
    s = max((g.exps[-1] for g in I.gens), default=0)
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(s + 1)]
    for g in I.gens:
        levels[g.exps[-1]].append(g.exps[:-1])
    comps = [_minimal_ideal(ctx_R, levels[0])]
    for level in levels[1:]:
        comps.append(ideal_sum(comps[-1], _minimal_ideal(ctx_R, level)))
    return ZGradedIdeal(I.ctx, tuple(comps))


def z_recompose(Z: ZGradedIdeal) -> MonomialIdeal:
    """Inverse of z_decompose: the x^a z^h for the generators x^a of each
    component h, minimalized on exponent tuples."""
    return _minimal_ideal(Z.ctx, [g.exps + (h,) for h, comp in enumerate(Z.components)
                                  for g in comp.gens])


def bar(Z: ZGradedIdeal) -> MonomialIdeal:
    """Image under z -> 0, which is the bottom component."""
    return Z.components[0]


def is_z_stable(Z: ZGradedIdeal) -> bool:
    """Check I_<k+1> * m_R <= I_<k> for every k below the stabilization
    index: generator by generator and variable by variable, which is the
    same as containing the product I_<k+1> * m_R.  Reads the chain's
    stored answer of ``_first_violation``."""
    return Z.violation is None


def z_saturate(Z: ZGradedIdeal) -> ZGradedIdeal:
    """I : z^infinity: the extension of the top component."""
    return ZGradedIdeal(Z.ctx, (Z.components[-1],))


def _total_numerator(numers) -> tuple[int, ...]:
    """Numerator of Hilb(R[z]/I) over (1-t)^n from the numerators
    N_0, ..., N_H of components 0..H, the last one standing for every
    h >= H: (1-t) sum_{h<H} t^h N_h + t^H N_H.  Any H from the
    stabilization index on gives the same polynomial.  Each coefficient is
    added into one list in place, so the cost is the numerators' total
    length, not H times the widest."""
    H = len(numers) - 1
    out = [0] * (H + 1 + max(map(len, numers)))
    for h, numer in enumerate(numers[:-1]):
        for i, c in enumerate(numer):
            out[h + i] += c
            out[h + i + 1] -= c
    for i, c in enumerate(numers[-1]):
        out[H + i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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
    sum_k t^k (numer(R/J_k) - numer(R/L_k)) / (1-t)^n, whose two signs
    ``series_signs`` decides from one pass; levels past both stabilization
    indices reduce (using the equality of total Hilbert functions) to one
    cumulative comparison of the top components.

    Everything is read off the two chains' stored numerators: the
    precondition compares their stored totals, recomposing neither chain.
    A level where the two numerators are equal leaves the running
    difference, and so both sign tests, unchanged, and is skipped; the
    others are added into one list in place.
    """
    if J.ctx != L.ctx:
        raise HilbertMismatchError("contexts differ")
    numers_J, numers_L = J.numerators(), L.numerators()
    if J.total_numerator() != L.total_numerator():
        raise HilbertMismatchError("the ideals have different Hilbert functions")
    n = J.ctx.drop_z().n
    H = max(J.s, L.s)
    diff = [0] * (H + max(map(len, numers_J + numers_L)))
    le = ge = True
    for h in range(H + 1):
        a, b = numers_J[min(h, J.s)], numers_L[min(h, L.s)]
        if a == b:
            continue
        for i, c in enumerate(a):
            diff[h + i] += c
        for i, c in enumerate(b):
            diff[h + i] -= c
        nonneg, nonpos = series_signs(diff, n)
        le, ge = le and nonneg, ge and nonpos
        if not (le or ge):
            return "incomparable"
    # levels past H: cumulative comparison of the stabilized components
    a, b = numers_J[-1], numers_L[-1]
    if a != b:
        tail = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            tail[i] += c
        for i, c in enumerate(b):
            tail[i] -= c
        nonneg, nonpos = series_signs(tail, n + 1)
        le, ge = le and nonpos, ge and nonneg
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
                if not _divides_any(lower, ej):
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
    the memo ``_stable_chain`` keyed on I.  Both limits are
    checked on every call, so a hit skips the rounds, never a refusal; a
    refusal or a failed check is never stored.
    """
    degree = lcm_degree(I)
    limits.check("NUMERATOR_DEGREE_LIMIT", degree, f"the generators' lcm has degree {degree}")
    chain, rounds = _stable_chain(I)
    limits.check("STABILIZATION_ROUND_LIMIT", rounds,
                 f"z_stabilize needs {rounds} rounds", IterationCapExceededError)
    return chain


@memos.memo(memos.STABLE_MEMO_SIZE)
def _stable_chain(I: MonomialIdeal) -> tuple[ZGradedIdeal, int]:
    """(the z-stable chain of I, the number of rounds it took).

    Every round's ``z_order_compare(cur, nxt)`` is its one Hilbert check:
    it reads the stored numerators of both chains, so each chain's are
    computed once, in the round that makes it, and raises
    HilbertMismatchError when their Hilbert functions differ, so the chain
    keeps the Hilbert function of ``z_decompose(I)``, which is I's.  Its
    answer is the check of the strict increase.  The round limit is
    checked before each round, so the loop stops at the first round past
    it.
    """
    cur = z_decompose(I)
    rounds = 0
    while (viol := cur.violation) is not None:
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
