import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    IntMatrix,
    PreconditionError,
    SnfDecomposition,
    WeightedGraph,
    adjoint,
    determinant,
    hermite_rows,
    integer_kernel,
    invariant_factors,
    laplacian,
    minor_gcd,
    rank,
    sandpile_group,
    smith_normal_form,
    spanning_tree_count,
)
from latkit.exactmat import _apply_2x2_cols, _apply_2x2_rows, _ext_gcd

from exampledata import complete_graph
from optimized import run_optimized


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
    for _ in range(240):
        r = rng.randint(1, 8)
        c = rng.randint(1, 8)
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


def _adjoint_by_cofactors(rows):
    """Oracle: the former adjoint, n^2 cofactor determinants of order
    n - 1; entry (i, j) deletes row j and column i."""
    n = len(rows)
    if n == 1:
        return IntMatrix([[1]])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            sign = -1 if (i + j) % 2 else 1
            out[i][j] = sign * determinant(IntMatrix(sub))
    return IntMatrix(out)


def _random_gcb(rng, n):
    """n x n GCB matrix: off-diagonal entries <= 0 on a cycle through
    every vertex plus random arcs, and each row scaled so that a random
    positive vector d lies in the kernel: row i is d_i times the
    off-diagonal weights, with the diagonal -sum_{j != i} w_ij d_j."""
    d = [rng.randint(1, 4) for _ in range(n)]
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        w[i][(i + 1) % n] = -rng.randint(1, 3)
        for j in range(n):
            if j != i and rng.random() < 0.3:
                w[i][j] = -rng.randint(1, 3)
    return [
        [d[i] * w[i][j] if j != i else -sum(w[i][k] * d[k] for k in range(n) if k != i) for j in range(n)]
        for i in range(n)
    ]


def test_adjoint_matches_the_cofactor_oracle():
    from latkit.matclass import classify

    rng = random.Random(7129)
    seen = {"full": 0, "corank1": 0, "gcb": 0, "zero": 0}
    for case in range(360):
        n = case % 8 + 1
        kind = rng.choice(("full", "corank1", "gcb", "low")) if n > 1 else "full"
        if kind == "gcb":
            rows = _random_gcb(rng, n)
            assert classify(IntMatrix(rows)).generalized_critical, rows
        elif kind == "full":
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        else:
            # a product of n x k and k x n factors has rank at most k
            k = n - 1 if kind == "corank1" else rng.randint(0, max(n - 2, 0))
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
        m = IntMatrix(rows)
        adj = adjoint(m)
        assert adj == _adjoint_by_cofactors(rows), rows
        d = determinant(m)
        assert (m * adj).to_rows() == [[d if i == j else 0 for j in range(n)] for i in range(n)]
        r = rank(m)
        if r == n:
            seen["full"] += 1
        elif r == n - 1:
            seen["gcb" if kind == "gcb" else "corank1"] += 1
            assert any(map(any, adj)), rows
            # the cycle makes a GCB matrix strongly connected, so its
            # adjugate is strictly positive
            assert kind != "gcb" or all(x > 0 for row in adj for x in row), rows
        else:
            seen["zero"] += 1
            assert not any(map(any, adj)), rows
    assert min(seen.values()) >= 50, seen
    with pytest.raises(PreconditionError):
        adjoint(IntMatrix([[1, 2, 3], [4, 5, 6]]))


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


def test_echelon_pivots_are_the_greedy_independent_columns():
    from latkit.exactmat import _echelon

    rng = random.Random(4343)
    dependent = 0
    for _ in range(1000):
        rows = _planted_rank_matrix(rng)[0].to_rows()
        # the former greedy loop: keep a column when it raises the rank
        greedy = []
        for j in range(len(rows[0])):
            cols = [[r[c] for c in greedy + [j]] for r in rows]
            if rank(IntMatrix(cols)) > len(greedy):
                greedy.append(j)
        pivots, _ = _echelon([list(r) for r in rows])
        assert pivots == greedy, rows
        dependent += len(greedy) < len(rows[0])
    assert dependent >= 300


def test_echelon_of_empty_shapes():
    from latkit.exactmat import _echelon

    # IntMatrix has no 0 x n or n x 0 shape; the elimination itself
    # takes them and finds no pivot
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[], []])
    assert _echelon([]) == ([], 1)
    assert _echelon([[], [], []]) == ([], 1)
    assert _echelon([[0, 0, 0]]) == ([], 1)


# The transform-tracking Smith form that latkit ran before its bordered
# elimination, kept as the oracle: P, Q and gamma must match it exactly.
# It checks P*mat*Q == D and both determinants itself.
def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m, dst, src, c):
    if c:
        rd, rs = m[dst], m[src]
        for j in range(len(rd)):
            rd[j] += c * rs[j]


def _addmul_col(m, dst, src, c):
    if c:
        for row in m:
            row[dst] += c * row[src]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _tracked_smith_normal_form(mat: IntMatrix) -> SnfDecomposition:
    """Smith normal form with tracked unimodular transforms.

    Pivot selection always takes the first entry of minimal absolute
    value in the remaining submatrix, so the result is deterministic.
    The identity P*mat*Q == diag(gamma) is verified exactly before
    returning.
    """
    s, m = mat.rows, mat.cols
    a = mat.to_rows()
    p = IntMatrix.identity(s).to_rows()
    q = IntMatrix.identity(m).to_rows()

    def min_pivot(k):
        best = None
        for i in range(k, s):
            for j in range(k, m):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[0])):
                    best = (v, i, j)
        return best

    limit = min(s, m)
    k = 0
    while k < limit:
        found = min_pivot(k)
        if found is None:
            break
        _, i0, j0 = found
        if i0 != k:
            _swap_rows(a, k, i0)
            _swap_rows(p, k, i0)
        if j0 != k:
            _swap_cols(a, k, j0)
            _swap_cols(q, k, j0)
        if a[k][k] < 0:
            _negate_row(a, k)
            _negate_row(p, k)
        piv = a[k][k]
        dirty = False
        for i in range(k + 1, s):
            if a[i][k]:
                c = -(a[i][k] // piv)
                _addmul_row(a, i, k, c)
                _addmul_row(p, i, k, c)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, m):
            if a[k][j]:
                c = -(a[k][j] // piv)
                _addmul_col(a, j, k, c)
                _addmul_col(q, j, k, c)
                if a[k][j]:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; reselect pivot
        k += 1

    r = k
    # enforce the divisibility chain with exact 2x2 unimodular fixes
    for i in range(r):
        for j in range(i + 1, r):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            g, x, y = _ext_gcd(di, dj)
            bi, bj = di // g, dj // g
            # U = [[x, y], [-bj, bi]] on rows i,j; V = [[1, -y*bj], [1, x*bi]] on cols i,j
            _apply_2x2_rows(a, i, j, x, y, -bj, bi)
            _apply_2x2_rows(p, i, j, x, y, -bj, bi)
            _apply_2x2_cols(a, i, j, 1, -y * bj, 1, x * bi)
            _apply_2x2_cols(q, i, j, 1, -y * bj, 1, x * bi)
            assert x * di + y * dj == g
            assert a[i][i] == g and a[j][j] == di * dj // g
            assert a[i][j] == 0 and a[j][i] == 0

    gamma = tuple(a[i][i] for i in range(r))
    pm, qm = IntMatrix._trusted(p), IntMatrix._trusted(q)
    dec = SnfDecomposition(P=pm, Q=qm, gamma=gamma, rank=r)

    prod = pm * mat * qm
    assert prod == dec.diagonal_matrix(s, m), "SNF identity violated"
    assert abs(determinant(pm)) == 1 and abs(determinant(qm)) == 1
    for u, v in zip(gamma, gamma[1:]):
        assert v % u == 0
    return dec


def _oracle_matrix(rng):
    """rows x cols, 1..8 each: random entries, or a planted rank k
    (rows integer combinations of k random rows), then zero rows and
    zero columns at random."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.5:
        out = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    else:
        k = rng.randint(0, min(rows, cols))
        basis = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)]
        out = [
            [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols)]
            for coeffs in ([rng.randint(-3, 3) for _ in range(k)] for _ in range(rows))
        ]
    dead_cols = {j for j in range(cols) if rng.random() < 0.12}
    return IntMatrix([
        [0] * cols if rng.random() < 0.12 else [0 if j in dead_cols else x for j, x in enumerate(row)]
        for row in out
    ])


def test_bordered_smith_form_and_invariant_factors_match_the_oracle():
    rng = random.Random(1414)
    deficient = zero_rows = zero_cols = 0
    for _ in range(640):
        m = _oracle_matrix(rng)
        want = _tracked_smith_normal_form(m)
        assert smith_normal_form(m) == want, m.to_rows()
        assert invariant_factors(m) == invariant_factors(m.to_rows()) == want.gamma
        assert smith_normal_form(m, transforms=False) == SnfDecomposition(None, None, want.gamma, want.rank)
        assert invariant_factors(m.transpose()) == want.gamma
        deficient += want.rank < min(m.rows, m.cols)
        zero_rows += any(not any(r) for r in m)
        zero_cols += any(not any(m.column(j)) for j in range(m.cols))
    assert deficient >= 200 and zero_rows >= 100 and zero_cols >= 100


def _connected_graph(rng, n):
    """Vertex v joins rng.randrange(v), then up to n chords; weights 1-3."""
    edges = {}
    for v in range(1, n):
        edges[rng.randrange(v), v] = rng.randint(1, 3)
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges[u, v] = rng.randint(1, 3)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def test_laplacian_invariant_factors_match_the_oracle_up_to_n_40():
    rng = random.Random(4040)
    sizes = list(range(2, 13)) + [16, 20, 24, 28, 32, 36, 40, 40]
    for n in sizes:
        for G in (_connected_graph(rng, n), complete_graph(n, rng.randint(1, 3))):
            L = laplacian(G)
            want = _tracked_smith_normal_form(L)
            assert smith_normal_form(L) == want
            gamma = invariant_factors(L)
            assert gamma == want.gamma and len(gamma) == n - 1
            assert sandpile_group(G).order == spanning_tree_count(G)


def test_invariant_factors_of_empty_ragged_and_non_int_rows():
    assert invariant_factors([]) == ()
    assert invariant_factors([[], []]) == ()
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert invariant_factors([[4, 0], [0, 6]]) == (2, 12)
    with pytest.raises(ValueError):
        invariant_factors([[1, 2], [3]])
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(TypeError):
            invariant_factors([[1, 0], [0, bad]])


def test_smith_checks_fire_under_python_O():
    # plant a 2 x 2 fix with a wrong Bezout pair, one that loses its
    # column half, and one that does nothing: each check must raise
    # InternalError with asserts stripped
    code = """
import latkit.exactmat as e
from latkit import InternalError
good = e._ext_gcd, e._apply_2x2_rows, e._apply_2x2_cols
skip = lambda *args: None
for plant in [{"_ext_gcd": lambda a, b: (1, 1, 0)}, {"_apply_2x2_cols": skip},
              {"_apply_2x2_rows": skip, "_apply_2x2_cols": skip}]:
    for name, broken in plant.items():
        setattr(e, name, broken)
    for call in (lambda: e.invariant_factors([[2, 0], [0, 3]]),
                 lambda: e.smith_normal_form(e.IntMatrix([[2, 0], [0, 3]]))):
        try:
            print("no error", call())
        except InternalError as err:
            print(str(err).split(" ")[-1])
    e._ext_gcd, e._apply_2x2_rows, e._apply_2x2_cols = good
print(e.invariant_factors([[2, 0], [0, 3]]))
"""
    assert run_optimized(code).split("\n") == [
        "elimination", "elimination", "diagonal", "diagonal", "chain", "chain", "(1, 6)",
    ]


def _count_calls(monkeypatch, name):
    """Count the calls of latkit.exactmat.<name> through every latkit
    module that binds it; returns the one-element counter list."""
    import sys

    import latkit.exactmat

    original = getattr(latkit.exactmat, name)
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("latkit") and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return counter


def test_each_matrix_is_eliminated_once(monkeypatch):
    import latkit.volume
    from latkit import (
        Lattice,
        check_transpose_theorems,
        defining_matrix,
        degree_lattice_breakdown,
        degree_toric,
        rational_orbit_report,
    )

    smith = _count_calls(monkeypatch, "_diagonalize")
    hermite = _count_calls(monkeypatch, "hermite_rows")
    echelon = _count_calls(monkeypatch, "_echelon")

    def count(counter, call):
        counter[0] = 0
        call()
        return counter[0]

    # the volume and the column torsion share one Smith form
    V = IntMatrix([[1, 0, 2, 3, 0], [0, 2, 2, 1, 4], [0, 0, 0, 3, 6]])
    assert count(smith, lambda: degree_toric(V)) == 1
    # ... and the breakdown adds the lattice's own torsion
    curve = [(2, -1, -1, 0, 1, 0), (-3, 1, -1, 2, 0, 1)]
    assert count(smith, lambda: degree_lattice_breakdown(Lattice(6, curve))) == 2
    # L^T takes L's kernel witnesses: two Smith forms, not four
    L = IntMatrix([[2, -1, -1], [-1, 3, -2], [-1, -2, 3]])
    assert count(smith, lambda: check_transpose_theorems(L)) == 2
    # the decomposition's rank comes from its Smith form, not a Hermite form
    graded = Lattice(3, [(1, 1, -1), (2, -2, 0)])
    assert count(hermite, lambda: rational_orbit_report(graded)) == 0
    # one echelon for the completion, then one per appended normal
    for s, gens in ((6, curve), (4, [(1, -1, 0, 0)]), (3, [])):
        lat = Lattice(s, gens)
        assert count(echelon, lambda: defining_matrix(lat)) == 1 + s - lat.rank
    # one echelon of its own picks the volume's starting simplex (the
    # facet normals and simplex volumes eliminate inside exactmat), and
    # the lattice index reuses the volume's Smith form
    volume_echelon = [0]
    through = latkit.volume._echelon

    def counted(rows):
        volume_echelon[0] += 1
        return through(rows)

    monkeypatch.setattr(latkit.volume, "_echelon", counted)
    points = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 0, 0), (3, 1, 1), (0, 2, 0), (0, 0, 3), (2, 2, 3)]
    poly = latkit.volume.LatticePolytope(points)
    assert count(smith, poly.normalized_volume) == 1
    assert volume_echelon[0] == 1
    assert count(smith, lambda: poly.lattice_index) == 0
    assert poly.lattice_index == 1
