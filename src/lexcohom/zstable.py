"""Decompositions along the last variable, stability, distractions and the
stabilization loop.

A monomial ideal I of R[z] splits as a direct sum of components I_<h> z^h
with I_<0> <= I_<1> <= ... eventually constant; I is z-stable when each
I_<k+1> * m_R lands inside I_<k>.  Non-stable ideals are pushed up a strictly
increasing chain (in the partial order compared here) by alternating a
distraction that replaces z with x_j + z in the top components and a weight
initial ideal; the chain is finite, so the loop terminates in a stable ideal
with the same Hilbert function.

``_first_violation`` alone decides stability (``is_z_stable`` asks that it
finds none), and ``z_order_compare`` reads its equal-Hilbert-function
precondition off the component numerators, recomposing no chain.

All computations happen on preimages in the ambient polynomial ring: when
the context has powers the component ideals carry the power generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Monomial, MonomialIdeal, RingContext, ideal_sum, minimalize
from .errors import HilbertMismatchError, IterationCapExceededError
from .groebner import Polynomial, TermOrder, initial_ideal
from .hilbert import _poly_add, _shift, hilbert_series, series_nonneg

DEGREE_CAP = 40  # S-pair degree cap of each stabilization round's initial ideal


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

    The precondition is read off the same numerators: the total series of
    the recomposed ideals differ by ((1-t) diff_H + t^(H+1) tail) /
    (1-t)^(n+1), with diff_H the level sum at H = max(J.s, L.s) and tail
    the difference of the level-H numerators.
    """
    if J.ctx != L.ctx:
        raise HilbertMismatchError("contexts differ")
    n = J.ctx.drop_z().n
    H = max(J.s, L.s)
    numers_J = [hilbert_series(J.component(h)).numer for h in range(H + 1)]
    negated_L = [tuple(-c for c in hilbert_series(L.component(h)).numer)
                 for h in range(H + 1)]
    le = ge = True
    strict = False
    diff = (0,)
    for h in range(H + 1):
        diff = _poly_add(diff, _shift(_poly_add(numers_J[h], negated_L[h]), h))
        if not any(diff):
            continue
        strict = True
        if not series_nonneg(diff, n):
            le = False
        if not series_nonneg(tuple(-c for c in diff), n):
            ge = False
    tail = _poly_add(numers_J[H], negated_L[H])
    if any(_poly_add(_poly_add(diff, _shift(tuple(-c for c in diff), 1)),
                     _shift(tail, H + 1))):
        raise HilbertMismatchError("the ideals have different Hilbert functions")
    # levels past H: cumulative comparison of the stabilized components
    if any(tail):
        strict = True
        if not series_nonneg(tuple(-c for c in tail), n + 1):
            le = False
        if not series_nonneg(tail, n + 1):
            ge = False
    if le and ge:
        return "equal"
    if le:
        return "less" if strict else "equal"
    if ge:
        return "greater" if strict else "equal"
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
    """Least (d, j) with component d times x_{j+1} not inside component d-1."""
    ctx_R = Z.ctx.drop_z()
    nx = ctx_R.n
    for d in range(1, Z.s + 1):
        lower = Z.components[d - 1]
        for j in range(nx):
            xj = ctx_R.variable(j)
            if not all(lower.contains(g.mul(xj)) for g in Z.components[d].gens):
                return d, j
    return None


def z_stabilize(I: MonomialIdeal, max_iterations: int = 500) -> ZGradedIdeal:
    """Deform a monomial ideal of R[z] into a z-stable one with the same
    Hilbert function.

    Each round distracts the first failing component with l = x_j + z (x_j
    the smallest witness variable) and passes to the weight initial ideal;
    every round moves strictly up in the partial order, so the loop
    terminates.  Every round checks the strict increase and the Hilbert
    function.
    """
    cur = z_decompose(I)
    order = stabilization_order(I.ctx)
    target = hilbert_series(I).numer
    for _ in range(max_iterations):
        viol = _first_violation(cur)
        if viol is None:
            return cur
        d, j = viol
        D = distraction(cur, d, j)
        nxt_ideal = initial_ideal(D, order, DEGREE_CAP)
        nxt = z_decompose(nxt_ideal)
        if hilbert_series(nxt_ideal).numer != target:
            raise HilbertMismatchError(
                "distraction step changed the Hilbert function (bug)"
            )
        if z_order_compare(cur, nxt) != "less":
            raise IterationCapExceededError(
                "stabilization step did not strictly increase (bug)"
            )
        cur = nxt
    raise IterationCapExceededError(
        f"no z-stable ideal reached in {max_iterations} iterations"
    )
