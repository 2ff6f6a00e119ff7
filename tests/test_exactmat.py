import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    IntMatrix,
    PreconditionError,
    adjoint,
    determinant,
    hermite_rows,
    integer_kernel,
    minor_gcd,
    rank,
    smith_normal_form,
)


def test_matrix_construction_and_access():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2) == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(1) == (2, 5)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert m.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises((TypeError, ValueError)):
        IntMatrix([[1.5]])


def test_matrix_immutable():
    m = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


def test_matrix_product():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[2, 1], [4, 3]]
    with pytest.raises(ValueError):
        a * IntMatrix([[1, 2, 3]])


def test_identity_and_determinant():
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix([[2, 1], [1, 2]])) == 3
    assert determinant(IntMatrix([[0, 1], [1, 0]])) == -1
    # Vandermonde on 1,2,3: product of differences
    v = IntMatrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert determinant(v) == 2


def test_adjoint_identity():
    m = IntMatrix([[3, -1, 0], [2, 5, 1], [0, -2, 4]])
    d = determinant(m)
    prod = m * adjoint(m)
    assert prod.to_rows() == [
        [d if i == j else 0 for j in range(3)] for i in range(3)
    ]


def test_smith_normal_form_identity():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.gamma == (1, 1, 1)
    assert snf.rank == 3


def test_smith_normal_form_known():
    # classic example with nontrivial invariant factors
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    snf = smith_normal_form(m)
    assert snf.gamma == (2, 2, 156)


def test_hermite_rows_canonical():
    rows = hermite_rows([(2, 4), (1, 3)], 2)
    assert rows == ((1, 1), (0, 2))
    # order of the generators does not matter
    assert hermite_rows([(1, 3), (2, 4)], 2) == rows
    # zero rows vanish
    assert hermite_rows([(0, 0), (3, 0)], 2) == ((3, 0),)


def test_integer_kernel_simple():
    k = integer_kernel(IntMatrix([[1, 1, 1]]))
    lat_vectors = set()
    for v in k:
        assert sum(v) == 0
        lat_vectors.add(v)
    assert len(k) == 2
    # kernel of an injective map is empty
    assert integer_kernel(IntMatrix([[1, 0], [0, 1], [1, 1]])) == []


def test_rank():
    assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix([[1, 2], [3, 4]])) == 2


def _random_matrix(rng, rows, cols, bound=6):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def _is_unimodular(m):
    return m.is_square and determinant(m) in (1, -1)


def test_snf_properties_random():
    # P * M * Q equals the diagonal form, P and Q unimodular, invariant
    # factors divide in sequence and match the minor-gcd quotients
    rng = random.Random(1201)
    for _ in range(120):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = _random_matrix(rng, r, c)
        snf = smith_normal_form(m)
        assert _is_unimodular(snf.P) and _is_unimodular(snf.Q)
        prod = snf.P * m * snf.Q
        for i in range(r):
            for j in range(c):
                want = snf.gamma[i] if i == j and i < len(snf.gamma) else 0
                assert prod.entry(i, j) == want
        for a, b in zip(snf.gamma, snf.gamma[1:]):
            assert b % a == 0
        assert snf.rank == rank(m) == len(snf.gamma)
        # gamma_i = gcd(minors of size i) / gcd(minors of size i-1)
        prev = 1
        for i, g in enumerate(snf.gamma, start=1):
            cur = minor_gcd(m, i)
            assert cur == prev * g
            prev = cur


def test_kernel_properties_random():
    rng = random.Random(88)
    for _ in range(80):
        r = rng.randint(1, 3)
        c = rng.randint(1, 4)
        m = _random_matrix(rng, r, c, bound=4)
        k = integer_kernel(m)
        assert len(k) == c - rank(m)
        for v in k:
            assert all(
                sum(m.entry(i, j) * v[j] for j in range(c)) == 0 for i in range(r)
            )
        if k:
            # saturated: doubling a kernel vector stays inside the span
            span = hermite_rows(k, c)
            half = tuple(2 * x for x in k[0])
            assert hermite_rows(list(k) + [half], c) == span


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_determinant_matches_permutation_expansion(rows):
    m = IntMatrix(rows)
    from itertools import permutations

    total = 0
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(3):
            term *= rows[i][perm[i]]
        total += term
    assert determinant(m) == total


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=2, max_size=2),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_hermite_is_lattice_invariant(gens):
    base = hermite_rows(gens, 2)
    # adding sums of generators leaves the row lattice unchanged
    extra = [tuple(a + b for a, b in zip(gens[0], gens[-1]))]
    assert hermite_rows(list(gens) + extra, 2) == base


def test_ext_gcd_returns_nonnegative_gcd_and_bezout_pair():
    from math import gcd

    from latkit.exactmat import _ext_gcd

    rng = random.Random(97)
    cases = [(0, 0), (0, -5), (-6, 0), (12, -18)]
    cases += [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(200)]
    for a, b in cases:
        g, x, y = _ext_gcd(a, b)
        assert g == gcd(a, b) and x * a + y * b == g


def _signed_minors_by_cofactors(rows, n):
    """Oracle: n Bareiss determinants of order n - 1, one per column."""
    if n == 1:
        return (1,)
    out = []
    for i in range(n):
        m = determinant(IntMatrix([list(r[:i]) + list(r[i + 1:]) for r in rows]))
        out.append(-m if (n - 1 + i) % 2 else m)
    return tuple(out)


def test_signed_minors_are_the_last_adjoint_column():
    from latkit.exactmat import _signed_minors

    rng = random.Random(61)
    dependent_seen = independent_seen = 0
    for case in range(300):
        n = case % 6 + 1
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        if n > 2 and rng.random() < 0.4:
            # plant a dependency: one row a multiple of another, or zero
            j, k = rng.sample(range(n - 1), 2)
            c = rng.randint(-2, 2)
            rows[k] = [c * a for a in rows[j]]
        w = _signed_minors(rows, n)
        assert w == _signed_minors_by_cofactors(rows, n)
        extra = [rng.randint(-4, 4) for _ in range(n)]
        adj = adjoint(IntMatrix(rows + [extra]))
        assert w == adj.column(n - 1)
        assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in rows)
        independent = n == 1 or rank(IntMatrix(rows)) == n - 1
        assert any(w) == independent, rows
        dependent_seen += not independent
        independent_seen += independent
    assert dependent_seen >= 50 and independent_seen >= 150
    with pytest.raises(PreconditionError):
        _signed_minors([(1, 2, 3)], 3)


def test_signed_minors_match_the_cofactor_loop_up_to_order_12():
    from latkit.exactmat import _signed_minors

    rng = random.Random(6113)
    zero = nonzero = 0
    for case in range(300):
        n = case % 12 + 1
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n - 1)]
        if n > 2 and rng.random() < 0.4:
            # plant a dependency: one row a combination of two others
            j, k, t = rng.sample(range(n - 1), 3) if n > 3 else (0, 1, 0)
            c, d = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[k] = [c * x + d * y for x, y in zip(rows[j], rows[t])]
        if n > 1 and rng.random() < 0.25:
            # columns of zeros or sparse rows move the free column around
            col = rng.randrange(n)
            for row in rows:
                row[col] = 0 if rng.random() < 0.7 else row[col]
        w = _signed_minors(rows, n)
        assert w == _signed_minors_by_cofactors(rows, n), (rows, n)
        zero += not any(w)
        nonzero += any(w)
    assert zero >= 50 and nonzero >= 150


def _planted_rank_matrix(rng):
    """rows x cols with rank at most k: each row an integer combination
    of k random rows, one in four of them zero, columns zeroed at random."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    k = rng.randint(0, min(rows, cols))
    basis = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)]
    dead = {j for j in range(cols) if rng.random() < 0.15}
    out = []
    for _ in range(rows):
        coeffs = [rng.randint(-3, 3) if rng.random() < 0.75 else 0 for _ in range(k)]
        out.append([0 if j in dead else sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols)])
    return IntMatrix(out), k


def test_rank_matches_smith_form_oracle():
    rng = random.Random(4141)
    deficient = 0
    for _ in range(360):
        m, k = _planted_rank_matrix(rng)
        want = smith_normal_form(m).rank
        assert rank(m) == want <= k, m.to_rows()
        deficient += want < min(m.rows, m.cols)
    assert deficient >= 150


def test_row_rank_of_empty_shapes():
    from latkit.exactmat import _row_rank

    # IntMatrix has no 0 x n or n x 0 shape; the elimination itself
    # takes them and finds rank 0
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[], []])
    assert _row_rank([]) == 0
    assert _row_rank([[], [], []]) == 0
    assert _row_rank([[0, 0, 0]]) == 0
