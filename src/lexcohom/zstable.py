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

The loop runs on component antichains, each component's
``MonomialIdeal.exps``.  A round is three kernels on them,
``_violation``, ``_initial_chain`` (on ``core``'s antichain kernels) and
``_partial_sum_order``, with the numerators read straight from
``hilbert._numerator``; it builds no ideal.  ``_violation`` reads each
pair of consecutive components off ``_shadow_gaps``, one pass over the
lower component per generator of the upper one for all variables at
once.  A round at (d, j) leaves the components below d - 1 as they were,
and the pairs among them had no violation, so the next round's scan
starts at level d - 1.
``_first_violation``, ``distraction_initial`` and ``z_order_compare``
wrap the same kernels, so the oracles test the code the loop runs.

A chain stores the facts read from it, each computed on first use: its
component antichains and numerators, their largest lcm degree, the answer
of ``_first_violation``, whether every component is embedded
(``embeddings.is_embedded``), the saturation of its bar by m_R (the
bar's stored ``MonomialIdeal.m_saturation``), each component's window at
the longest length read so far, and the recomposed ideal, which
``z_recompose`` reads and whose stored top generator degree is the
chain's.  The chain of ``z_decompose(I)`` comes with I as
its recomposition, and the chain the loop returns with the antichains,
numerators, lcm degree and violation its last round read.
``is_z_stable`` reads the stored answer, ``z_order_compare`` reads both
chains' stored numerators (its equal-Hilbert-function precondition is
read off the same running difference as its sign tests, recomposing no
chain), and ``ZGradedIdeal.window`` reads a component's window off its
numerator and the numerator of R's power ideal (``hilbert.ideal_stream``),
the one source of R's Hilbert function, and serves a shorter read as a
slice of the window it holds.  The facts whose computation runs the
numerator recursion, the numerators (with the windows read off them, held
or not) and the embedded components, check the stored lcm degree against
``limits.NUMERATOR_DEGREE_LIMIT`` on every read (``_check_lcm_degree``),
so a chain that a caller holds across a change of that limit never skips
a refusal of theirs.  Every other fact is a plain stored value, which no
limit bounds, read with no check.

Two memos, keyed on the ideal (which carries its ring), hold chains for
the whole process.  ``z_decompose`` reads ``_decomposition``, so each
ideal is decomposed once and its chain, with the facts stored on it, is
shared by every caller; its refusals of a context without z and of an
ideal that is no preimage are raised on every call and never stored.
``z_stabilize`` reads ``_stable_chain``, each ideal's stable chain.  Every
round of a computed entry compares the new chain with the one before by
``_partial_sum_order``, and that one comparison is the round's Hilbert
check and its check of the strict increase; a failure of either is a bug.

All computations happen on preimages in the ambient polynomial ring: when
the context has powers the component ideals carry the power generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from . import limits, memos
from .core import (Monomial, MonomialIdeal, RingContext, _minimal_ideal, antichain_colon,
                   antichain_intersection, antichain_sum, antichain_times_variable)
from .embeddings import is_embedded
from .errors import HilbertMismatchError, IterationCapExceededError
from .groebner import Polynomial, TermOrder
from .hilbert import _numerator, ideal_stream, lcm_degree, series_signs, window


def _check_z_ctx(ctx: RingContext):
    if not ctx.z:
        raise ValueError("operation requires a context with z as last variable")


def _check_preimage(I: MonomialIdeal):
    """Refuse an ideal that is no preimage: one whose stored closure
    (``MonomialIdeal.plus_powers``) is not the ideal itself."""
    if I.plus_powers() is not I:
        raise ValueError(
            "expected the preimage of a quotient ideal: include the power generators"
        )


@dataclass(frozen=True)
class ZGradedIdeal:
    """The component chain I_<0> <= ... <= I_<s> of a z-graded ideal.

    Components live in the context with z dropped and are constant from the
    stabilization index s = len(components) - 1 on.  The facts read from
    the chain (component antichains, numerators, lcm degree, first
    violation, embedded components, bar saturation, component windows,
    recomposition) are computed on first use and stored on it; they take
    no part in its equality or hash.  A chain built by ``_chain_of`` comes
    with the facts its builder read.  Only the numerators (and ``window``,
    read off them, stored or not) and the embedded components, whose
    computation runs the numerator recursion, check the stored lcm degree
    on every read; the other facts, the top generator degree read off the
    recomposition among them, are plain stored values.

    No total numerator is stored.  The series of R[z]/I is
    sum_h t^h numer(R/I_<h>) / (1-t)^n, and two chains J, L have the same
    one exactly when (1-t) D + t^(H+1) delta = 0, where H = max(s_J, s_L),
    D = sum_{h<=H} t^h (numer(R/J_<h>) - numer(R/L_<h>)) and
    delta = numer(R/J_<H>) - numer(R/L_<H>).  Proof: every level past H
    adds t^h delta, so the difference of the two series is
    (D + t^(H+1) delta / (1-t)) / (1-t)^n; multiply by (1-t)^(n+1).
    ``z_order_compare`` reads this off the D it builds anyway.
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

    @cached_property
    def antichains(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The components' canonical antichains of exponent tuples, their
        ``exps`` (``core``'s antichain kernels)."""
        return tuple(c.exps for c in self.components)

    @cached_property
    def _lcm_degree(self) -> int:
        return _top_lcm_degree(self.antichains)

    def max_gen_degree(self) -> int:
        """Top degree of a minimal generator of the recomposed ideal."""
        return self.recomposed.max_gen_degree()

    @cached_property
    def _numers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(_numerator, self.antichains))

    def numerators(self) -> tuple[tuple[int, ...], ...]:
        """The numerators of Hilb(R/I_<h>) over (1-t)^n for h = 0..s,
        computed once per chain."""
        _check_lcm_degree(self._lcm_degree)
        return self._numers

    @cached_property
    def _all_embedded(self) -> bool:
        return all(map(is_embedded, self.components))

    def all_embedded(self) -> bool:
        """Whether every component is embedded (``embeddings.is_embedded``),
        found once per chain."""
        _check_lcm_degree(self._lcm_degree)
        return self._all_embedded

    @cached_property
    def bar_saturation(self) -> MonomialIdeal:
        """The saturation by m_R of the bar, the bottom component: the
        component's stored ``m_saturation``."""
        return self.components[0].m_saturation

    @cached_property
    def _windows(self) -> list[tuple[int, ...]]:
        return [()] * (self.s + 1)

    def window(self, h: int, upto: int) -> tuple[int, ...]:
        """Degreewise dims of component h (component s from s on) inside R
        on degrees 0..upto: ``ideal_window`` of the component, read off its
        stored numerator by ``ideal_stream``.  Each component keeps its
        window at the longest length read so far, and a shorter read is a
        slice of it; the numerators are read first, so every read checks
        the lcm degree."""
        numers = self.numerators()
        h = min(h, self.s)
        held = self._windows[h]
        if len(held) <= upto:
            held = self._windows[h] = window(ideal_stream(self.components[0].ctx, numers[h]),
                                             upto)
        return held[:max(upto + 1, 0)]

    @cached_property
    def recomposed(self) -> MonomialIdeal:
        """The ideal of R[z] with this chain (``z_recompose``), which no
        limit bounds: the decomposed ideal itself for ``z_decompose``'s
        chains, else built once."""
        return _minimal_ideal(self.ctx, [e + (h,) for h, comp in enumerate(self.components)
                                         for e in comp.exps])

    @cached_property
    def violation(self) -> tuple[int, int] | None:
        """``_first_violation`` of the chain, found once."""
        return _first_violation(self)


def z_decompose(I: MonomialIdeal) -> ZGradedIdeal:
    """Split a monomial ideal of R[z] into its z-degree components.

    Component h is component h - 1 plus the generators of z-degree h with
    z stripped.  Those form a canonical antichain of R: they are minimal
    and grlex-sorted in R[z] and share one z-degree; so the components are
    the running ``antichain_sum`` of the levels, with no
    ``minimal_exponents``, and each becomes a MonomialIdeal once
    (``_chain_of``).

    The chain is memoized for the whole process, in the memo
    ``_decomposition`` keyed on I, so every caller shares one chain per
    ideal and the facts stored on it, I as its recomposition among them.
    Both refusals (no z in the context, an ideal that is no preimage) are
    raised on every call, never stored.
    """
    _check_z_ctx(I.ctx)
    _check_preimage(I)
    return _decomposition(I)


@memos.memo(memos.DECOMPOSE_MEMO_SIZE)
def _decomposition(I: MonomialIdeal) -> ZGradedIdeal:
    """The chain of ``z_decompose``, for an I it has checked, with I
    stored as its recomposition."""
    s = max((e[-1] for e in I.exps), default=0)
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(s + 1)]
    for e in I.exps:
        levels[e[-1]].append(e[:-1])
    return _chain_of(I.ctx, list(accumulate(map(tuple, levels), antichain_sum)), recomposed=I)


def _chain_of(ctx: RingContext, chain, known: ZGradedIdeal | None = None,
              **facts) -> ZGradedIdeal:
    """The chain with these component antichains, stored as its
    ``antichains`` beside ``facts`` (by attribute name).  An antichain of
    a component of ``known`` keeps that object; each other one becomes one
    MonomialIdeal, shared by equal components."""
    comps = {} if known is None else dict(zip(known.antichains, known.components))
    for a in chain:
        if a not in comps:
            comps[a] = MonomialIdeal(ctx.drop_z(), a)
    Z = ZGradedIdeal(ctx, tuple(comps[a] for a in chain))
    vars(Z).update(antichains=tuple(chain), **facts)  # what cached_property would store
    return Z


def z_recompose(Z: ZGradedIdeal) -> MonomialIdeal:
    """Inverse of z_decompose: the x^a z^h for the generators x^a of each
    component h, minimalized on exponent tuples, built once per chain.
    ``z_recompose(z_decompose(I))`` is I itself, or the equal ideal that
    filled ``z_decompose``'s memo."""
    return Z.recomposed


def bar(Z: ZGradedIdeal) -> MonomialIdeal:
    """Image under z -> 0, which is the bottom component."""
    return Z.components[0]


def is_z_stable(Z: ZGradedIdeal) -> bool:
    """Check I_<k+1> * m_R <= I_<k> for every k below the stabilization
    index: generator by generator, for every variable at once
    (``_shadow_gaps``), which is the same as containing the product
    I_<k+1> * m_R.  Reads the chain's stored answer of
    ``_first_violation``."""
    return Z.violation is None


def z_saturate(Z: ZGradedIdeal) -> ZGradedIdeal:
    """I : z^infinity: the extension of the top component."""
    return ZGradedIdeal(Z.ctx, (Z.components[-1],))


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
    difference of partial sums is the series D_h / (1-t)^n, where
    D_h = sum_{k<=h} t^k (numer(R/J_k) - numer(R/L_k)), whose two signs
    ``series_signs`` decides from one pass.

    Levels past H = max(s_J, s_L) need no test.  Let D = D_H and delta the
    difference of the top numerators.  The total series of R[z]/J minus
    that of R[z]/L is (D + t^(H+1) delta / (1-t)) / (1-t)^n, so the totals
    agree exactly when (1-t) D + t^(H+1) delta = 0.  Then for h > H,
    D_h = D + (t^(H+1) - t^(h+1)) delta / (1-t) = t^(h-H) D, whose signs
    are those of D.  So the precondition is read off D at the end, and a
    mismatch raises even when the levels turned incomparable first: D is
    built to the top, the sign tests stopping at the first incomparable
    level.

    Everything is read off the two chains' stored numerators, recomposing
    neither chain, by ``_partial_sum_order``, which the stabilization
    rounds run on the numerators they read.
    """
    if J.ctx != L.ctx:
        raise HilbertMismatchError("contexts differ")
    return _partial_sum_order(J.numerators(), L.numerators(), J.ctx.nx)


def _partial_sum_order(numers_J, numers_L, n: int) -> str:
    """``z_order_compare`` of the chains with these component numerators
    over (1-t)^n.  A level where the two numerators are equal leaves D,
    and so both sign tests, unchanged, and is skipped; the others are
    added into one list in place."""
    s_J, s_L = len(numers_J) - 1, len(numers_L) - 1
    H = max(s_J, s_L)
    diff = [0] * (H + max(map(len, numers_J + numers_L)))
    le = ge = True
    for h in range(H + 1):
        a, b = numers_J[min(h, s_J)], numers_L[min(h, s_L)]
        if a == b:
            continue
        for i, c in enumerate(a):
            diff[h + i] += c
        for i, c in enumerate(b):
            diff[h + i] -= c
        if le or ge:
            nonneg, nonpos = series_signs(diff, n)
            le, ge = le and nonneg, ge and nonpos
    # (1-t) D + t^(H+1) delta, with delta from the top numerators
    total = [c - p for c, p in zip(diff + [0], [0] + diff)]
    for i, c in enumerate(numers_J[-1]):
        total[H + 1 + i] += c
    for i, c in enumerate(numers_L[-1]):
        total[H + 1 + i] -= c
    if any(total):
        raise HilbertMismatchError("the ideals have different Hilbert functions")
    # a nonzero D_h fails one of the two sign tests: le and ge together
    # mean every difference vanished
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
        for e in Z.component(h).exps:
            gens.append(Polynomial.make(ctx, [(e + (h,), 1)]))
    if j is None:
        l_terms = [((0,) * (ctx.n - 1) + (1,), 1)]
    else:
        xj = tuple(1 if i == j else 0 for i in range(ctx.n))
        l_terms = [(xj, 1), ((0,) * (ctx.n - 1) + (1,), 1)]
    for h in range(d, max(Z.s, d) + 1):
        for e in Z.component(h).exps:
            terms = [
                (tuple(a + b for a, b in zip(e + (h - 1,), le)), c)
                for le, c in l_terms
            ]
            gens.append(Polynomial.make(ctx, terms))
    return gens


def stabilization_order(ctx: RingContext) -> TermOrder:
    """Weight 1 on the x variables, 0 on z, revlex tiebreak."""
    return TermOrder.x_weight(ctx, "revlex")


def _first_violation(Z: ZGradedIdeal) -> tuple[int, int] | None:
    """Least (d, j) with component d times x_{j+1} not inside component
    d-1: ``_violation`` of the chain's antichains."""
    return _violation(Z.antichains, Z.ctx.nx)


def _violation(chain, nx: int, start: int = 1) -> tuple[int, int] | None:
    """``_first_violation`` of a chain of component antichains, scanning the
    pairs (d - 1, d) from d = ``start`` on: the least d with a nonzero
    ``_shadow_gaps`` of the pair, with j its lowest gap.  A caller passes a
    ``start`` past 1 only when it knows the pairs below have no gap."""
    for d in range(start, len(chain)):
        gaps = _shadow_gaps(chain[d - 1], chain[d], nx)
        if gaps:
            return d, (gaps & -gaps).bit_length() - 1
    return None


def _shadow_gaps(lower, upper, n: int) -> int:
    """The bitmask of the variables j < n for which x_{j+1} * e lies outside
    the ideal of the antichain ``lower`` for some e of ``upper``, the
    exponent tuples having n entries.

    A generator g divides x_{j+1} * e exactly when g exceeds e at no
    coordinate, and then it covers every j, or at coordinate j alone and
    there by exactly 1.  So one pass over ``lower`` per e finds the
    variables e's multiples are covered in; it stops once they hold every
    variable not already a gap, and the scan stops once every variable is
    a gap.  No tuple is built."""
    full = (1 << n) - 1
    gaps = 0
    coords = range(n)
    for e in upper:
        if gaps == full:
            break
        covered = gaps  # a known gap needs no second witness
        for g in lower:
            over = -1
            for i in coords:
                if g[i] > e[i]:
                    if over >= 0 or g[i] > e[i] + 1:
                        break
                    over = i
            else:
                if over < 0:  # g divides e itself
                    covered = full
                    break
                covered |= 1 << over
                if covered == full:
                    break
        gaps |= full & ~covered
    return gaps


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

    The walk is ``_initial_chain``, on the chain's antichains; components
    it leaves alone stay the same objects.
    """
    if not 1 <= d <= Z.s + 1:
        raise ValueError(f"d must lie in 1..{Z.s + 1}")
    if not 0 <= j < Z.ctx.nx:
        raise ValueError(f"j must lie in 0..{Z.ctx.nx - 1}")
    for h in (Z.s, *range(d, Z.s)):  # the products by x the walk reads, validated
        for e in antichain_times_variable(Z.antichains[h], j):
            Monomial(e)
    return _chain_of(Z.ctx, _initial_chain(Z.antichains, d, j, Z.ctx.nx), Z)


def _initial_chain(chain, d: int, j: int, nx: int) -> tuple:
    """``distraction_initial`` on a chain of component antichains in nx
    variables; those below d - 1 stay the input's own."""
    s = len(chain) - 1
    x = tuple(int(i == j) for i in range(nx))
    # x I_h, read at min(h, s) for h >= d
    x_I = {h: antichain_times_variable(chain[h], j) for h in range(min(d, s), s + 1)}
    Q = chain[d - 1]
    Q_colon_x = antichain_colon(Q, x)
    out = [*chain[:d - 1], antichain_sum(Q, x_I[min(d, s)])]
    e = d
    while True:
        nxt = antichain_intersection(chain[min(e, s)], Q_colon_x)
        if nxt != Q:
            Q, Q_colon_x = nxt, antichain_colon(nxt, x)
        elif e > s:
            break
        out.append(antichain_sum(Q, x_I[min(e + 1, s)]))
        e += 1
    while len(out) > 1 and out[-1] == out[-2]:
        out.pop()
    return tuple(out)


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
    of I, so the length of the chain the rounds start from; so is a
    round's chain with a component of lcm degree past it.  The chain is
    memoized for the whole process, in the memo ``_stable_chain`` keyed
    on I.
    """
    return _stable_chain(I)


@memos.memo(memos.STABLE_MEMO_SIZE)
def _stable_chain(I: MonomialIdeal) -> ZGradedIdeal:
    """The z-stable chain of I: ``z_decompose(I)`` itself when that is
    stable, else the chain the rounds end on.

    The lcm degree of I is checked against ``limits.NUMERATOR_DEGREE_LIMIT``
    on a memo miss only: setting a limit empties every memo, so every hit
    was computed under the current limit.  A chain that a caller holds
    across such a change still refuses a read of its numerators or
    embedded components, by ``_check_lcm_degree``.

    A round runs on antichains: ``_violation``, ``_initial_chain`` and
    ``_partial_sum_order``.  ``_violation`` tests a pair of components by
    ``_shadow_gaps``, and after a round at (d, j) it starts at level
    max(d - 1, 1): the round kept the components below d - 1, whose pairs
    had no violation.  A round checks the round limit, then refuses a new
    chain past the numerator limit before reading its numerators, one
    ``_numerator`` per component (those of ``z_decompose(I)`` through its
    ``numerators``, which store them).  The order of the two chains is its
    one Hilbert check, as it raises when the Hilbert functions differ, so
    the chain keeps I's Hilbert function; its answer is the check of the
    strict increase.  A failure of either is a bug, raised as an
    AssertionError.  Only the last chain becomes a ``ZGradedIdeal``, with
    the numerators, lcm degree and violation its last round read; the
    components the rounds left alone stay those of ``z_decompose(I)``.
    """
    degree = lcm_degree(I)
    limits.check("NUMERATOR_DEGREE_LIMIT", degree, f"the generators' lcm has degree {degree}")
    dec = z_decompose(I)
    if (viol := dec.violation) is None:
        return dec
    chain, numers, nx, rounds = dec.antichains, dec.numerators(), I.ctx.nx, 0
    while viol is not None:
        rounds += 1
        limits.check("STABILIZATION_ROUND_LIMIT", rounds,
                     f"z_stabilize needs round {rounds}",
                     IterationCapExceededError)
        nxt = _initial_chain(chain, *viol, nx)
        _check_lcm_degree(degree := _top_lcm_degree(nxt))
        nxt_numers = tuple(map(_numerator, nxt))
        try:
            order = _partial_sum_order(numers, nxt_numers, nx)
        except HilbertMismatchError:
            raise AssertionError("a stabilization round changed the Hilbert function (bug)")
        if order != "less":
            raise AssertionError("a stabilization round did not strictly increase (bug)")
        chain, numers = nxt, nxt_numers
        viol = _violation(chain, nx, max(viol[0] - 1, 1))
    return _chain_of(I.ctx, chain, dec, _numers=numers, _lcm_degree=degree, violation=None)


def _top_lcm_degree(chain) -> int:
    """The largest lcm degree of a component antichain of a chain."""
    return max(sum(map(max, zip(*a))) for a in chain)


def _check_lcm_degree(degree: int) -> None:
    """Refuse, as ``hilbert_series`` would, a chain whose largest lcm
    degree of a component passes ``limits.NUMERATOR_DEGREE_LIMIT``: on
    every read of its numerators or embedded components, and on each
    round's new chain.  The message is built only for a refusal."""
    if degree > limits.NUMERATOR_DEGREE_LIMIT:
        limits.check("NUMERATOR_DEGREE_LIMIT", degree, f"a component's lcm has degree {degree}")
