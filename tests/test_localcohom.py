import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom import limits, localcohom, verify
from lexcohom.betti import betti_table, corners
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.embeddings import epsilon_one, lex_ideal_of
from lexcohom.errors import ResourceLimitError
from lexcohom.hilbert import hilbert_series
from lexcohom.homology import reduced_homology_dims
from lexcohom.localcohom import (CohomologyTable, TailPoly, cohomology_table,
                                 cohomology_tables, compare_tables)
from lexcohom.verify import _cohom_rows, _top_partial_sums, check_extension_recurrence
from lexcohom.zstable import (is_z_stable, z_decompose, z_recompose,
                              z_stabilize)

from conftest import (count_calls, h0_via_saturation, krull_dim, merge_cells, random_ideal,
                      ref_ext_cells, ref_ext_dims, ref_extension_recurrence, ref_fit_tail,
                      ref_reduced_homology_dims, ref_rows, ref_takayama_cells)


def M(*exps):
    return Monomial(tuple(exps))


ctx2 = RingContext(2)
BACKENDS = ("combinatorial", "ext")


@pytest.mark.parametrize("backend", BACKENDS)
def test_hand_examples(backend):
    # A/(x1) is a one-variable polynomial ring
    T = cohomology_table(MonomialIdeal.make(ctx2, [M(1, 0)]), backend=backend)
    for j in range(T.lo, T.hi + 1):
        assert T.value(0, j) == 0 and T.value(2, j) == 0
        assert T.value(1, j) == (1 if j <= -1 else 0)
    # Artinian: the zeroth row is the quotient Hilbert function
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1), M(0, 3)])
    T = cohomology_table(I, backend=backend)
    qw = hilbert_series(I).quotient_window(T.hi)
    for j in range(T.lo, T.hi + 1):
        assert T.value(0, j) == (qw[j] if j >= 0 else 0)
        assert T.value(1, j) == 0 and T.value(2, j) == 0
    # the saturation drops out in the zeroth row
    I2 = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1)])
    T2 = cohomology_table(I2, backend=backend)
    for j in range(T2.lo, T2.hi + 1):
        assert T2.value(0, j) == (1 if j == 1 else 0)
        assert T2.value(1, j) == (1 if j <= -1 else 0)
    # the maximal ideal: one-dimensional socle in degree 0
    Tm = cohomology_table(ctx2.max_ideal(), backend=backend)
    assert sum(Tm.rows[0]) == 1 and Tm.value(0, 0) == 1
    # the full polynomial ring, top cohomology only
    c1 = RingContext(1)
    T1 = cohomology_table(MonomialIdeal.zero(c1), backend=backend)
    for j in range(T1.lo, T1.hi + 1):
        assert T1.value(1, j) == (1 if j <= -1 else 0)
        assert T1.value(0, j) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_top_cohomology_of_polynomial_ring(backend):
    for n in (2, 3):
        ctx = RingContext(n)
        T = cohomology_table(MonomialIdeal.zero(ctx), backend=backend)
        for j in range(T.lo, T.hi + 1):
            want = comb(-j - 1, n - 1) if j <= -n else 0
            assert T.value(n, j) == want
            for i in range(n):
                assert T.value(i, j) == 0


def test_backend_agreement_on_samples():
    # the tails read off the cells are the Lagrange fits through the lowest
    # window points, certified on two spare ones, and the top nonzero row
    # is the Krull dimension
    rng = random.Random(83)
    for n, powers in ((2, ()), (3, ()), (3, (2,)), (4, ()), (2, (2, 2))):
        ctx = RingContext(n, powers=powers)
        ideals = [random_ideal(rng, ctx, 4, 5) for _ in range(12)]
        for I in ideals + [MonomialIdeal.zero(ctx), MonomialIdeal.unit(ctx)]:
            Ta = cohomology_table(I, backend="combinatorial")
            Tb = cohomology_table(I, backend="ext")
            assert Ta.rows == Tb.rows and Ta.tails == Tb.tails
            dim = krull_dim(hilbert_series(I))
            assert Ta.module_dim == Tb.module_dim == dim
            for i in Ta.rows:
                fit = ref_fit_tail(Ta.rows[i], Ta.lo, dim)
                assert fit is not None and Ta.tails[i].printed() == [str(c) for c in fit]


@pytest.mark.parametrize("n, gens", [
    (14, [(1,) * 14]),  # x1...x14: 2^14 Takayama complexes on up to 14 vertices
    # the path ideal x_i*x_{i+1}: 10 and 12 generators
    (11, [tuple(int(j in (i, i + 1)) for j in range(11)) for i in range(10)]),
    (13, [tuple(int(j in (i, i + 1)) for j in range(13)) for i in range(12)]),
])
def test_backend_agreement_on_large_squarefree_ideals(n, gens):
    I = MonomialIdeal.make(RingContext(n), [Monomial(g) for g in gens])
    Ta = cohomology_table(I, backend="combinatorial")
    Tb = cohomology_table(I, backend="ext")
    assert Ta.rows == Tb.rows and Ta.tails == Tb.tails
    assert Ta.module_dim == krull_dim(hilbert_series(I))


def test_backend_agreement_on_the_240_generator_lex_ideal():
    spec = verify.FamilySpec(n=4, max_deg=5, max_extra_gens=8, count=8, seed=0)
    L = next(L for L in map(lex_ideal_of, verify.enumerate_family(spec)) if len(L.gens) == 240)
    Ta = cohomology_table(L, backend="combinatorial")
    Tb = cohomology_table(L, backend="ext")
    assert Ta.rows == Tb.rows and Ta.tails == Tb.tails


def test_h0_matches_backends():
    rng = random.Random(89)
    ctx = RingContext(3)
    for _ in range(15):
        I = random_ideal(rng, ctx, 3, 4)
        if I.is_unit:
            continue
        T = cohomology_table(I)
        assert tuple(T.rows[0]) == h0_via_saturation(I, (T.lo, T.hi))
    # saturated ideal: zero row
    I = MonomialIdeal.make(ctx, [M(1, 0, 0)])
    T = cohomology_table(I)
    assert set(h0_via_saturation(I, (T.lo, T.hi))) == {0}
    # Artinian: the whole quotient Hilbert function
    Im = ctx.max_ideal()
    T = cohomology_table(Im)
    assert h0_via_saturation(Im, (T.lo, T.hi))[-T.lo] == 1


def test_duality_support_and_grothendieck_vanishing():
    rng = random.Random(97)
    ctx = RingContext(3)
    for _ in range(15):
        I = random_ideal(rng, ctx, 3, 4)
        if I.is_unit:
            continue
        T = cohomology_table(I)
        reg = betti_table(I).regularity
        dim = krull_dim(hilbert_series(I))
        depth = ctx.n - betti_table(I).projdim
        for i in range(ctx.n + 1):
            for j in range(T.lo, T.hi + 1):
                v = T.value(i, j)
                if i + j > reg:
                    assert v == 0  # duality support bound
                if i > dim:
                    assert v == 0  # vanishing above the dimension
                if i < depth:
                    assert v == 0  # vanishing below the depth


def test_reg_and_projdim_from_cohomology():
    # reg = max{ j+i : H^i_j != 0 } and projdim = max{ n-i : H^i != 0 }
    rng = random.Random(101)
    ctx = RingContext(3)
    for _ in range(10):
        I = random_ideal(rng, ctx, 3, 4)
        if I.is_unit:
            continue
        T = cohomology_table(I)
        B = betti_table(I)
        tops = [
            max((j + i for j in range(T.lo, T.hi + 1)
                 if T.value(i, j)), default=None)
            for i in range(ctx.n + 1)
        ]
        reg_from_cohom = max(t for t in tops if t is not None)
        assert reg_from_cohom == B.regularity
        nonzero_is = [i for i in range(ctx.n + 1)
                      if any(T.rows[i]) ]
        assert ctx.n - min(nonzero_is) == B.projdim


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_top_read_off_the_cells(backend):
    # the default window's top is reg + 1, with reg from the Betti table,
    # and a lone table has the window of cohomology_tables
    rng = random.Random(109)
    ideals = [MonomialIdeal.zero(RingContext(3)), MonomialIdeal.unit(ctx2)]
    for ctx in (RingContext(3, powers=(2, 2)), RingContext(4),
                RingContext(2).add_z(), RingContext(2, powers=(2,)).add_z()):
        ideals += [random_ideal(rng, ctx, 3, 4) for _ in range(5)]
    for I in ideals:
        T = cohomology_table(I, backend=backend)
        assert cohomology_tables((I,), backend) == [T]
        lo, hi = T.lo, T.hi
        assert T.hi_covers_reg
        reg = 0 if I.is_unit else betti_table(I).regularity
        assert hi == reg + 1
        assert cohomology_table(I, (lo, reg), backend=backend).hi_covers_reg
        if not I.is_unit:
            below = cohomology_table(I, (lo, reg - 1), backend=backend)
            assert not below.hi_covers_reg


def test_reg_h_characterization_matches_table():
    rng = random.Random(103)
    ctx = RingContext(3)
    for _ in range(10):
        I = random_ideal(rng, ctx, 3, 4)
        if I.is_unit:
            continue
        T = cohomology_table(I)
        B = betti_table(I)
        for h in range(0, ctx.n + 1):
            vals = [j + i for i in range(0, min(h, ctx.n) + 1)
                    for j in range(T.lo, T.hi + 1) if T.value(i, j)]
            want = max(vals) if vals else float("-inf")
            assert B.reg_h(h) == want


def test_corner_identity_display():
    # at every corner (i, j-i): beta_ij equals the cohomology value H^{n-i}
    # at degree j-n
    rng = random.Random(107)
    for n in (2, 3):
        ctx = RingContext(n)
        for _ in range(12):
            I = random_ideal(rng, ctx, 3, 4)
            if I.is_unit:
                continue
            B = betti_table(I)
            T = cohomology_table(I)
            for c in corners(B):
                assert c.value == T.value(n - c.i, c.j - n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tails_are_exact_on_negative_degrees_from_any_window(backend):
    # H^1 of A/(x1) = K[x2] is 1 in every degree <= -1 and 0 from degree 0 on;
    # the tails come from the cells, so a window that starts at 0, or holds
    # fewer than dim + 2 points, gives the default window's tails
    I = MonomialIdeal.make(ctx2, [M(1, 0)])
    want = cohomology_table(I, backend=backend).tails
    for window in ((0, 3), (-3, 3), (-1, 0)):
        T = cohomology_table(I, window, backend=backend)
        assert T.tails == want
        assert [T.value(1, j) for j in (-9, -1)] == [1, 1]
    # degrees from 0 up to a window bottom above 0 are covered by nothing
    with pytest.raises(ValueError, match="below the window bottom 2"):
        cohomology_table(I, (2, 3), backend=backend).value(1, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tail_display_of_a_hyperplane_in_four_variables(backend):
    # A/(x1) = K[x2, x3, x4]: H^3 in degree j is C(-j-1, 2), whose tail
    # polynomial is (j+1)(j+2)/2 = 1 + 3/2 j + 1/2 j^2
    T = cohomology_table(MonomialIdeal.make(RingContext(4), [M(1, 0, 0, 0)]),
                         backend=backend)
    row = _cohom_rows(T)[3]
    assert (row["lo"], row["hi"]) == (-7, 1)
    assert row["values"] == [15, 10, 6, 3, 1, 0, 0, 0, 0]
    assert row["tail_poly"] == ["1", "3/2", "1/2"] and row["certified"]
    assert all(T.value(3, j) == comb(-j - 1, 2) for j in range(T.lo - 40, T.lo))
    # three points, fewer than dim + 2 = 5, give the same tail
    T = cohomology_table(MonomialIdeal.make(RingContext(4), [M(1, 0, 0, 0)]),
                         (-2, 0), backend=backend)
    assert _cohom_rows(T)[3]["tail_poly"] == ["1", "3/2", "1/2"]


def test_compare_tables_sees_tails_cross_below_the_window():
    # the rows agree on the window; below it B's tail drops under A's
    # constant 1 somewhere, and the failure is reported at lo - 1
    def table(tail):
        return CohomologyTable(
            n=1, char=2, lo=-3, hi=0, rows={0: (0, 0, 0, 0), 1: (1, 1, 1, 0)},
            tails={0: TailPoly(1, (0,)), 1: TailPoly(1, tuple(tail))},
            module_dim=1, hi_covers_reg=True)

    A = table([1])
    assert compare_tables(A, table([6, 1])) == (False, (1, -4))  # j + 6 at -6
    # (j+40)(j+42) + 1 is 0 at j = -41 only
    assert compare_tables(A, table([1681, 82, 1])) == (False, (1, -4))
    assert compare_tables(A, table([1601, 80, 1])) == (True, None)  # (j+40)^2 + 1


def test_compare_tables_and_window_mismatch():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(1, 1)])
    Ta = cohomology_table(I)
    w = (Ta.lo, Ta.hi)
    Tb = cohomology_table(I, w)
    assert compare_tables(Ta, Tb) == (True, None)
    with pytest.raises(ValueError):
        compare_tables(Ta, cohomology_table(I, (w[0] - 1, w[1])))
    Tc = cohomology_table(I, w)
    object.__setattr__(Tc, "char", 7)
    with pytest.raises(ValueError):
        compare_tables(Ta, Tc)
    # a shared window from degree 1 leaves degree 0 to neither rows nor tails
    Td = cohomology_table(I, (1, w[1]))
    with pytest.raises(ValueError, match="leaves degrees 0..0 uncovered"):
        compare_tables(Td, Td)
    T0 = cohomology_table(I, (0, w[1]))
    assert compare_tables(T0, T0) == (True, None)


def test_compare_tables_refuses_a_window_top_below_the_regularity():
    # reg A/(x1^3, x2^3) = 4: on (-5, 0) the failure at (0, 1) is above the top
    I, L = MonomialIdeal.make(ctx2, [M(3, 0), M(0, 3)]), MonomialIdeal.make(ctx2, [M(1, 0), M(0, 1)])
    assert compare_tables(*cohomology_tables((I, L), "combinatorial")) == (False, (0, 1))
    for A, B in ((I, L), (L, I)):
        TA, TB = cohomology_table(A, (-5, 0)), cohomology_table(B, (-5, 0))
        with pytest.raises(ValueError, match="window top 0 lies below a table's regularity"):
            compare_tables(TA, TB)


def test_value_above_uncovered_window_raises():
    I = MonomialIdeal.make(ctx2, [M(2, 0), M(0, 3)])
    reg = betti_table(I).regularity
    T = cohomology_table(I, (-8, reg - 1))  # deliberately short at the top
    with pytest.raises(ValueError):
        T.value(0, reg + 1)


def test_recurrence_reports():
    ctx = RingContext(2).add_z()
    rng = random.Random(109)
    for _ in range(8):
        I = z_recompose(z_stabilize(random_ideal(rng, ctx, 3, 4)))
        for name, mismatch in check_extension_recurrence(I).items():
            assert mismatch is None, (str(I), name, mismatch)
    with pytest.raises(ValueError):
        check_extension_recurrence(MonomialIdeal.make(ctx, [M(1, 1)]))


@st.composite
def moved_recurrence_inputs(draw):
    """A z-stable ideal with or without powers, and one table entry to move
    by one: in the ideal's own table (True) or in the smaller ones (False),
    or none."""
    nx = draw(st.integers(1, 2))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=nx))))
    ctx = RingContext(nx, powers=powers).add_z()
    rng = draw(st.randoms(use_true_random=False))
    I = z_recompose(z_stabilize(random_ideal(rng, ctx, 3, 4)))
    move = draw(st.none() | st.tuples(st.booleans(), st.integers(0, 3),
                                      st.integers(0, 60), st.sampled_from((-1, 1))))
    return I, move


@given(moved_recurrence_inputs())
@settings(max_examples=80, deadline=None)
def test_recurrence_check_matches_the_quadratic_reference(inputs):
    # a moved entry puts the first mismatch anywhere, or nowhere when it is
    # row i - 1's bottom entry, which no sum reads
    I, move = inputs
    computed = cohomology_table

    def table(J, window=None, backend="combinatorial"):
        T = computed(J, window, backend)
        if move is None or move[0] != (window is None):
            return T
        _, i, k, delta = move
        i %= T.n + 1
        row = list(T.rows[i])
        row[k % len(row)] += delta
        return replace(T, rows={**T.rows, i: tuple(row)})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "cohomology_table", table)
        mp.setattr(localcohom, "cohomology_table", table)
        got = [(name, m is None, m) for name, m in check_extension_recurrence(I).items()]
        assert got == ref_extension_recurrence(I)


def top_partial_sums(I):
    dec = z_decompose(I)
    assert is_z_stable(dec)  # the lemma's hypothesis
    return _top_partial_sums(dec, z_decompose(epsilon_one(I)))


def test_lemma_top_partial_sums_cases():
    ctxe = RingContext(2, powers=(2, 2)).add_z()
    # already embedded: equality holds degreewise
    emb = MonomialIdeal.make(ctxe, [M(2, 0, 0), M(0, 2, 0), M(1, 0, 0)])
    assert top_partial_sums(emb)
    rng = random.Random(113)
    for _ in range(6):
        I = z_recompose(z_stabilize(random_ideal(rng, ctxe, 3, 3)))
        assert top_partial_sums(I)


def test_lemma_top_partial_sums_strict_instance():
    # the original dominates its embedding strictly here (the sums differ at
    # j = 5 for d = 7); direction regression guard
    ctx = RingContext(2, powers=(2, 3)).add_z()
    I = MonomialIdeal.make(ctx, [M(2, 0, 0), M(0, 3, 0), M(1, 2, 1),
                                 M(1, 1, 2), M(0, 2, 3)])
    assert is_z_stable(z_decompose(I))
    assert top_partial_sums(I)


@st.composite
def small_ideals(draw):
    n = draw(st.integers(2, 4))
    powers = tuple(sorted(draw(st.lists(st.integers(2, 3), max_size=n))))
    ctx = RingContext(n, powers=powers)
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = draw(st.lists(exps, max_size=8 - len(powers)))
    return MonomialIdeal.make(ctx, list(ctx.powers_ideal().gens)
                              + [Monomial(e) for e in gens])


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_cell_passes_match_the_full_enumerations(I):
    assert localcohom._ext_cells(I) == merge_cells(ref_ext_cells(I))
    assert localcohom._takayama_cells(I) == merge_cells(ref_takayama_cells(I))


@settings(max_examples=40, deadline=None)
@given(small_ideals(), st.sampled_from(BACKENDS), st.integers(-120, 8), st.integers(0, 30))
def test_rows_match_every_cell_counted_at_every_degree(I, backend, lo, above):
    # the default window, and one from lo, far below it or above degree 0,
    # against rows summed over every unmerged cell at every degree of the
    # window
    cells = (ref_takayama_cells if backend == "combinatorial" else ref_ext_cells)(I)
    T = cohomology_table(I, backend=backend)
    W = cohomology_table(I, (lo, max(lo, T.hi) + above), backend=backend)
    for t in (T, W):
        want = ref_rows(cells, I.ctx.n, t.lo, t.hi)
        assert t.rows == {i: tuple(row) for i, row in want.items()}


def test_compare_tables_reports_the_first_entry_that_fails():
    # on the window, the first (i, j) with A > B, i outer and j inner, as
    # read through value()
    rng = random.Random(127)
    for n in (2, 3):
        ctx = RingContext(n)
        for _ in range(15):
            I, J = random_ideal(rng, ctx, 3, 4), random_ideal(rng, ctx, 3, 4)
            A, B = cohomology_tables((I, J), "combinatorial")
            first = next(((i, j) for i in range(n + 1) for j in range(A.lo, A.hi + 1)
                          if A.value(i, j) > B.value(i, j)), None)
            ok, fail = compare_tables(A, B)
            if first is not None:
                assert (ok, fail) == (False, first)
            else:
                assert fail is None or fail[1] == A.lo - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda v: st.tuples(
    st.just(v), st.lists(st.integers(1, (1 << v) - 1), max_size=6))))
def test_a_vertex_outside_every_minimal_mask_gives_a_cone(case):
    v, masks = case
    minimal = [m for m in masks if not any(o & m == o != m for o in masks)]
    union = 0
    for m in minimal:
        union |= m
    filt = [S for S in range(1 << v) if all(S & m for m in masks)]
    if union != (1 << v) - 1:
        assert reduced_homology_dims(filt, 32003) == {}


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_no_walk_looks_up_a_complex_without_homology(I):
    # every Takayama leaf looked up has no empty exceed mask, so it is not
    # the void complex, and every ext slice looked up has masks covering
    # all g >= 1 generators, so no generator outside them makes it a cone
    g = len(I.gens)
    with pytest.MonkeyPatch.context() as mp:
        takayama = count_calls(mp, localcohom._takayama_dims)
        ext = count_calls(mp, localcohom._ext_dims)
        assert localcohom._takayama_cells(I) == merge_cells(ref_takayama_cells(I))
        assert localcohom._ext_cells(I) == merge_cells(ref_ext_cells(I))
    # every key holds its masks sorted and distinct
    for _, masks, _ in takayama + ext:
        assert list(masks) == sorted(set(masks))
    assert all(0 not in exceed for _, exceed, _ in takayama)
    for _, masks, _ in ext:
        union = 0
        for m in masks:
            union |= m
        assert not g or union == (1 << g) - 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda g: st.tuples(
    st.just(g),
    st.frozensets(st.integers(1, (1 << g) - 1), max_size=6) if g else st.just(frozenset()),
    st.sampled_from((2, 3, 32003)))))
def test_ext_dims_match_the_listed_filter(case):
    g, masks, p = case
    key = tuple(sorted(masks))
    # the dense reference ranks a filter of up to 2^9 subsets in a few ms
    # and one of 2^12 in about 1.5 s; above g = 9 the listed filter is
    # ranked by the sparse kernel, which test_homology checks against it
    homology = ref_reduced_homology_dims if g <= 9 else reduced_homology_dims
    assert localcohom._ext_dims.__wrapped__(g, key, p) == ref_ext_dims(g, masks, p, homology)


@pytest.mark.parametrize("g, masks, want", [
    (0, [], ((0, 1),)),  # the zero ideal's one slice: Ext^0(A, A)
    (3, [], ()),  # the empty key, a cone
    (3, [0b111], ((1, 1),)),  # the single full mask: the nonempty subsets
    (3, [0b011, 0b010, 0b100], ()),  # 0b001 lies in no minimal mask: a cone
    (4, [0b0011, 0b1100], ((2, 1),)),  # |M| < g: a nerve of two points
    (3, [0b011, 0b101, 0b110], ((2, 2),)),  # |M| >= g: the filter is listed
])
def test_ext_dims_examples(g, masks, want):
    for p in (2, 32003):
        key = tuple(sorted(masks))
        assert localcohom._ext_dims.__wrapped__(g, key, p) == ref_ext_dims(g, masks, p) == want


@pytest.mark.parametrize("ctx, gens, calls, lookups", [
    (RingContext(3, powers=(2, 2)),
     [M(2, 0, 0), M(0, 2, 0), M(1, 0, 2), M(0, 1, 3)], 6, 11),
    (RingContext(4),
     [M(3, 0, 0, 0), M(2, 1, 0, 0), M(0, 3, 0, 0), M(1, 0, 2, 0),
      M(0, 0, 1, 2), M(0, 1, 0, 3)], 15, 44),
])
def test_ext_cells_rank_no_cone_slice(monkeypatch, ctx, gens, calls, lookups):
    # the full enumeration ranks 27 and 108 slices here, and a walk over
    # every multidegree looks up 36 and 192
    I = MonomialIdeal.make(ctx, gens)
    seen = count_calls(monkeypatch, reduced_homology_dims)
    looked_up = count_calls(monkeypatch, localcohom._ext_dims)
    assert localcohom._ext_cells(I) == merge_cells(ref_ext_cells(I))
    assert len(seen) == calls
    assert len(looked_up) == lookups


@pytest.mark.parametrize("backend", ["combinatorial", "ext"])
def test_cell_limit_bounds_the_walk(monkeypatch, backend):
    # rho = (2, 3): the walk covers (2 + 1) * (3 + 1) = 12 multidegrees
    I = MonomialIdeal.make(ctx2, [M(2, 1), M(0, 3)])
    want = cohomology_table(I, backend=backend).rows
    monkeypatch.setattr(limits, "CELL_LIMIT", 12)
    assert cohomology_table(I, backend=backend).rows == want
    monkeypatch.setattr(limits, "CELL_LIMIT", 11)
    with pytest.raises(ResourceLimitError, match="limits.CELL_LIMIT = 11"):
        cohomology_table(I, backend=backend)


def test_both_backends_refuse_a_ladder_lex_ideal_over_the_cell_limit():
    # the third ideal of seed 0 of the n = 5 ladder family: its lex ideal
    # has 498 generators and a walk over 8,390,304 multidegrees
    spec = verify.FamilySpec(n=5, max_deg=4, max_extra_gens=8, count=3, seed=0)
    L = lex_ideal_of(list(verify.enumerate_family(spec))[-1])
    assert len(L.gens) == 498
    refusals = []
    for backend in BACKENDS:
        with pytest.raises(ResourceLimitError) as info:
            cohomology_table(L, backend=backend)
        refusals.append(str(info.value))
    assert refusals[0] == refusals[1] == (
        f"the cell walk covers 8390304 multidegrees, above limits.CELL_LIMIT = {limits.CELL_LIMIT}")
