import random

import pytest

from latkit import (
    Binomial,
    BinomialIdeal,
    CriticalBinomialSet,
    IntMatrix,
    IterationLimitError,
    Lattice,
    PreconditionError,
    cb_properties_check,
    cb_structure,
    critical_binomial,
    find_hull_gcb3,
    matrix_ideal,
    rank,
    saturate_variables,
)

from exampledata import (
    AFFINE_CURVE_GENERATORS,
    KERNEL_211_3X3,
    KERNEL_211_HULL_MATRIX,
    KERNEL_211_HULL_PAIRS,
    KERNEL_235_3X3,
    KERNEL_235_HULL_MATRIX,
    KERNEL_235_HULL_PAIRS,
    TORSION2_CB_MATRIX,
    TORSION2_CRITICAL_PAIRS,
    TORSION2_GENERATORS,
    binomials,
    column_lattice,
)


def test_critical_binomials_of_torsion2_lattice():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    for i, pair in enumerate(TORSION2_CRITICAL_PAIRS):
        assert critical_binomial(lat, i) == Binomial(*pair)


def test_torsion2_structure_is_full_support():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    cbset, M = cb_structure(lat)
    assert isinstance(cbset, CriticalBinomialSet)
    assert cbset.case == "b"
    assert cbset.permutation == (0, 1, 2)
    assert cbset.pure_exponents == (4, 4, 4)
    assert cbset.tails == ((0, 1, 2), (2, 0, 2), (2, 3, 0))
    assert M.to_rows() == TORSION2_CB_MATRIX
    assert matrix_ideal(M) == BinomialIdeal(3, binomials(TORSION2_CRITICAL_PAIRS))


def test_torsion2_matrix_properties():
    rep = cb_properties_check(IntMatrix(TORSION2_CB_MATRIX))
    assert rep.syzygies_hold
    assert rep.lattice_ideal
    assert rep.unmixed
    assert rep.minimal_generators == 3
    assert not rep.complete_intersection  # almost complete intersection


def test_find_hull_kernel_211():
    M, hull = find_hull_gcb3(IntMatrix(KERNEL_211_3X3))
    assert M.to_rows() == KERNEL_211_HULL_MATRIX
    assert hull == BinomialIdeal(3, binomials(KERNEL_211_HULL_PAIRS))
    cbset, _ = cb_structure(column_lattice(KERNEL_211_3X3))
    assert cbset.case == "b"


def test_find_hull_kernel_235_case_a():
    lat = column_lattice(KERNEL_235_3X3)
    M, hull = find_hull_gcb3(IntMatrix(KERNEL_235_3X3))
    assert hull == BinomialIdeal(3, binomials(KERNEL_235_HULL_PAIRS))
    assert column_lattice(M.to_rows()) == lat
    # the returned matrix generates the same ideal as the reference one
    ref = IntMatrix(KERNEL_235_HULL_MATRIX)
    assert column_lattice(KERNEL_235_HULL_MATRIX) == lat
    assert matrix_ideal(M) == matrix_ideal(ref)
    cbset, _ = cb_structure(lat)
    assert cbset.case == "a"


def test_kernel_235_reference_is_complete_intersection():
    rep = cb_properties_check(IntMatrix(KERNEL_235_HULL_MATRIX))
    assert rep.minimal_generators == 2
    assert rep.complete_intersection
    assert rep.lattice_ideal


def test_structure_rejects_ungraded_lattice():
    with pytest.raises(PreconditionError, match="grading"):
        cb_structure(Lattice(3, list(AFFINE_CURVE_GENERATORS)))


def test_structure_rejects_wrong_rank():
    with pytest.raises(PreconditionError, match="rank"):
        cb_structure(Lattice(3, [(1, -1, 0)]))


def test_exponent_cap():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    with pytest.raises(IterationLimitError):
        critical_binomial(lat, 0, max_exponent=3)


def test_saturated_lattice_tie_break():
    simplex = Lattice(3, [(1, -1, 0), (0, 1, -1)])
    assert critical_binomial(simplex, 0) == Binomial((1, 0, 0), (0, 0, 1))
    cbset, M = cb_structure(simplex)
    assert cbset.case == "a"
    assert column_lattice(M.to_rows()) == simplex


def test_triangle_laplacian():
    K3 = IntMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    rep = cb_properties_check(K3)
    assert rep.syzygies_hold and rep.lattice_ideal
    assert rep.minimal_generators == 3
    M, hull = find_hull_gcb3(K3)
    assert hull == matrix_ideal(K3)


def test_find_hull_requires_gcb():
    with pytest.raises(PreconditionError):
        find_hull_gcb3(IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def random_cb3(rng):
    """3x3 matrix with zero row sums, nonnegative off-diagonal magnitudes,
    every column coupled and rank 2."""
    while True:
        mags = [[rng.randrange(0, 4) for _ in range(3)] for _ in range(3)]
        rows = []
        for i in range(3):
            row = [-mags[i][j] if j != i else 0 for j in range(3)]
            row[i] = sum(mags[i][j] for j in range(3) if j != i)
            rows.append(row)
        L = IntMatrix(rows)
        col_ok = all(any(mags[i][j] for i in range(3) if i != j) for j in range(3))
        if col_ok and all(rows[i][i] >= 1 for i in range(3)) and rank(L) == 2:
            return L


def test_random_cb3_round_trip():
    rng = random.Random(20240817)
    scales = random.Random(20240818)
    for _ in range(25):
        L = random_cb3(rng)
        lat = Lattice(3, [L.column(j) for j in range(3)])
        cbset, M = cb_structure(lat)
        assert Lattice(3, [M.column(j) for j in range(3)]) == lat
        Mh, hull = find_hull_gcb3(L)
        assert hull == saturate_variables(matrix_ideal(L))
        # scaled columns: GCB, and CB only when the scales agree
        scale = [scales.randint(1, 3) for _ in range(3)]
        G = IntMatrix([[x * c for x, c in zip(row, scale)] for row in L.to_rows()])
        Mg, hull = find_hull_gcb3(G)
        assert hull == saturate_variables(matrix_ideal(G)), G.to_rows()
        assert Lattice(3, [Mg.column(j) for j in range(3)]) == Lattice(3, [G.column(j) for j in range(3)])
        rep = cb_properties_check(L)
        assert rep.syzygies_hold
        assert rep.minimal_generators in (2, 3)
        assert rep.complete_intersection == (rep.minimal_generators == 2)
