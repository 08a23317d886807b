import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lexcohom.linalg import rank_mod_p

BIG_P = 4294967311  # the smallest prime above 2**32


def rank_oracle_fractions(mat):
    """Rank over Q of a small 0/pm1 matrix (agrees with GF(p) for large p
    when entries are tiny); used only on matrices with entries in {-1,0,1}."""
    from fractions import Fraction
    a = [[Fraction(int(v)) for v in row] for row in mat]
    m, n = len(a), len(a[0]) if len(a) else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        r += 1
    return r


def leibniz_det(mat):
    """Determinant as the signed sum over permutations."""
    k = len(mat)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def rank_oracle_minors(mat, p):
    """Largest k with a k x k minor that is nonzero mod p."""
    m, n = len(mat), len(mat[0]) if mat else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if leibniz_det([[mat[i][j] for j in cols] for i in rows]) % p:
                    return k
    return 0


def test_known_ranks():
    p = 32003
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert rank_mod_p(eye, p) == 4
    assert rank_mod_p([[0] * 5 for _ in range(3)], p) == 0
    assert rank_mod_p([[1, 2], [2, 4]], p) == 1
    assert rank_mod_p([[p, 1], [0, p]], p) == 1  # reduction mod p matters
    assert rank_mod_p([], p) == 0


def test_char_dependence():
    # rank of [[2]] is 0 mod 2 but 1 mod 3
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[2]], 3) == 1


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_matches_rational_oracle_on_sign_matrices(m, n, seed):
    rng = random.Random(seed)
    mat = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
    p = 32003
    want = rank_oracle_fractions(mat) if m and n else 0
    assert rank_mod_p(mat, p) == want


def test_rank_two_products_above_2_32():
    # entries near 2**32 overflow 64-bit products during elimination
    rng = random.Random(0)
    for _ in range(200):
        left = [[rng.randrange(BIG_P) for _ in range(2)] for _ in range(3)]
        right = [[rng.randrange(BIG_P) for _ in range(4)] for _ in range(2)]
        prod = [[sum(a * b for a, b in zip(row, col)) % BIG_P
                 for col in zip(*right)] for row in left]
        assert rank_mod_p(prod, BIG_P) == 2


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from([2, 3, 32003, BIG_P]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(0, p - 1)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=m, max_size=m))
    return mat, p


@given(matrices_mod_p())
@settings(max_examples=200, deadline=None)
def test_matches_minor_oracle(case):
    mat, p = case
    assert rank_mod_p(mat, p) == rank_oracle_minors(mat, p)
