import random
from math import gcd

import pytest

from latkit import (
    Binomial,
    BinomialIdeal,
    IntMatrix,
    Lattice,
    PreconditionError,
    affine_degree,
    degree_dim1_from_basis,
    degree_graded_dim1,
    degree_lattice,
    degree_lattice_breakdown,
    degree_matrix_ideal,
    degree_toric,
    invariant_factors,
    normalized_volume,
    saturate_variables,
    smith_normal_form,
    torsion_order,
)

from exampledata import (
    AFFINE_CURVE_DEGREE,
    AFFINE_CURVE_GENERATORS,
    AFFINE_CURVE_MINORS,
    DENSE_PCB_4X4,
    FLOW_COLUMNS_5X7,
    FLOW_TORIC_DEGREE,
    RANK4_Z8_DEFINING_TORSION,
    RANK4_Z8_DEGREE,
    RANK4_Z8_GENERATORS,
    RANK4_Z8_TORSION,
    RANK4_Z8_VOLUME,
    TORSION2_GENERATORS,
    WEIGHTED_DEMO_LAPLACIAN,
    column_lattice,
)
from optimized import run_optimized


def test_rank4_z8_breakdown():
    lat = Lattice(8, list(RANK4_Z8_GENERATORS))
    bd = degree_lattice_breakdown(lat)
    assert bd.degree == RANK4_Z8_DEGREE
    assert bd.torsion_order == RANK4_Z8_TORSION
    assert bd.normalized_volume == RANK4_Z8_VOLUME
    assert bd.defining_torsion == RANK4_Z8_DEFINING_TORSION
    # degree = torsion * volume / defining-group torsion
    assert bd.degree * bd.defining_torsion == bd.torsion_order * bd.normalized_volume


def test_toric_degree_of_flow_columns():
    V = IntMatrix([[c[i] for c in FLOW_COLUMNS_5X7] for i in range(5)])
    assert degree_toric(V) == FLOW_TORIC_DEGREE
    assert all(g == 1 for g in smith_normal_form(V).gamma)


def test_toric_degree_single_row():
    # one-dimensional projective monomial curves
    for d in [(3,), (2, 3), (4, 6), (6, 10, 15), (5, 5, 5)]:
        V = IntMatrix([list(d)])
        g = 0
        for x in d:
            g = gcd(g, x)
        assert degree_toric(V) == max(d) // g


def test_toric_degree_identity():
    assert degree_toric(IntMatrix.identity(4)) == 1


def _column_torsion(mat):
    """The former column torsion, kept as the oracle: the product of
    the invariant factors of the matrix itself."""
    out = 1
    for g in invariant_factors(mat):
        out *= g
    return out


def test_volume_and_torsion_match_the_separate_oracles():
    from latkit.degree import _volume_and_torsion

    rng = random.Random(5150)
    torsion = 0
    for case in range(1000):
        rows, cols = case % 4 + 1, rng.randint(1, 6)
        V = [[rng.choice((0, 1, -1, 2, 3, -2)) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:  # repeated and zero columns
            V = [row + row[:2] + [0] for row in V]
        V = IntMatrix(V)
        points = [(0,) * V.rows] + [V.column(j) for j in range(V.cols)]
        want = (normalized_volume(points), _column_torsion(V))
        assert _volume_and_torsion(V) == want, V
        torsion += want[1] > 1
    assert torsion >= 150


def test_degree_lattice_edge_cases():
    assert degree_lattice(Lattice(2, [(2, 0), (0, 3)])) == 6
    assert degree_lattice(Lattice(3, [])) == 1  # the whole polynomial ring


def test_curve_basis_minors():
    res = degree_dim1_from_basis(list(AFFINE_CURVE_GENERATORS))
    assert res.minors == AFFINE_CURVE_MINORS
    assert res.degree == AFFINE_CURVE_DEGREE
    assert degree_lattice(Lattice(3, list(AFFINE_CURVE_GENERATORS))) == 6
    assert degree_dim1_from_basis([(1, -1)]).minors == (1, 1)


def test_basis_minor_gcd_is_the_torsion_order():
    # gcd of the maximal minors of a rank s-1 basis is the order of the
    # torsion of Z^s / lattice; degree_dim1_from_basis does not check it
    rng = random.Random(2323)
    bases = [list(AFFINE_CURVE_GENERATORS), list(TORSION2_GENERATORS), [(1, -1)]]
    while len(bases) < 200:
        s = rng.randint(2, 7)
        bases.append([tuple(rng.randint(-5, 5) for _ in range(s)) for _ in range(s - 1)])
    checked = 0
    for basis in bases:
        s = len(basis[0])
        try:
            res = degree_dim1_from_basis(basis)
        except PreconditionError:
            continue  # rank deficient
        assert gcd(*res.minors) == torsion_order(Lattice(s, basis)), basis
        checked += 1
    assert checked >= 150


def test_graded_dim1_degrees():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    assert degree_graded_dim1(lat, (5, 6, 7)) == 14
    assert degree_dim1_from_basis(list(TORSION2_GENERATORS)).degree == 14
    assert degree_lattice(lat) == 14

    cols = column_lattice(WEIGHTED_DEMO_LAPLACIAN)
    assert degree_graded_dim1(cols, (1, 1, 1, 1)) == 67
    assert degree_lattice(cols) == 67


def test_matrix_ideal_degrees():
    L = IntMatrix(DENSE_PCB_4X4)
    assert degree_matrix_ideal(L) == 31
    assert degree_matrix_ideal(L.transpose()) == 1


def test_complete_graph_laplacian_degrees():
    for s, expect in [(3, 3), (4, 16), (5, 125)]:
        K = IntMatrix(
            [[s - 1 if i == j else -1 for j in range(s)] for i in range(s)]
        )
        assert degree_matrix_ideal(K) == expect


def test_degree_matches_saturation_oracle():
    # the closed-form degree must agree with the degree computed from a
    # Groebner basis of the saturated binomial ideal
    rng = random.Random(4242)
    checked = 0
    for _ in range(120):
        s = rng.randint(2, 5)
        k = rng.randint(1, s)
        gens = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        lat = Lattice(s, gens)
        I = BinomialIdeal(s, [Binomial.from_vector(g) for g in gens])
        dim, deg = affine_degree(saturate_variables(I))
        assert dim == s - lat.rank
        assert deg == degree_lattice(lat), gens
        checked += 1
    assert checked >= 100


def test_graded_dim1_preconditions():
    lat = Lattice(3, list(AFFINE_CURVE_GENERATORS))
    with pytest.raises(PreconditionError):
        degree_graded_dim1(lat, (1, 1, 1))  # not a grading for this lattice
    # a grading is not truncated to integers
    for weights in ((1.5, 1.2), (True, 1)):
        with pytest.raises(TypeError):
            degree_graded_dim1(Lattice(2, [(1, -1)]), weights)
    # nor is a basis vector
    for basis in ([(1.5, -1.2, 0), (0, 1, -1)], [(True, -1, 0), (0, 1, -1)]):
        with pytest.raises(TypeError):
            degree_dim1_from_basis(basis)
    with pytest.raises(PreconditionError):
        degree_dim1_from_basis([(1, -1, 0), (2, -2, 0)])  # dependent rows


def test_degree_and_lattice_checks_fire_under_python_O():
    # plant a fault in front of each exactness check of degree.py and
    # lattice.py: each must raise InternalError with asserts stripped
    code = """
import dataclasses
from fractions import Fraction
import latkit.degree as d
import latkit.exactmat as e
import latkit.lattice as l
from latkit import IntMatrix, InternalError, Lattice

def planted(module, name, broken, call):
    good = getattr(module, name)
    setattr(module, name, broken)
    try:
        print("no error", call())
    except InternalError as err:
        print(type(err).__name__, err)
    finally:
        setattr(module, name, good)

curve = Lattice(3, [(2, -1, -1), (-3, 1, -1)])
line = Lattice(2, [(1, -1)])
snf_without_q = lambda m: dataclasses.replace(e.smith_normal_form(m), Q=IntMatrix.identity(m.cols))
vt = d._volume_and_torsion
planted(d, "_volume_and_torsion", lambda m: (vt(m)[0], 3), lambda: d.degree_toric(IntMatrix.identity(2)))
planted(d, "_volume_and_torsion", lambda m: (vt(m)[0], 1000003), lambda: d.degree_lattice_breakdown(curve))
planted(d, "gcd", lambda *xs: 2, lambda: d.degree_graded_dim1(line, (1, 1)))
planted(d, "grading_vector", lambda L: (2, 2), lambda: d.degree_matrix_ideal(IntMatrix([[1, -1], [-1, 1]])))
planted(l, "Fraction", lambda *a: Fraction(0), lambda: l.positive_lattice_vector([(1, 0, 1), (0, 1, 1)], 3))
planted(l, "smith_normal_form", snf_without_q, lambda: l.p_saturation(Lattice(2, [(2, 0), (1, 2)]), 2))
print(d.degree_toric(IntMatrix.identity(2)), d.degree_lattice(curve), d.degree_graded_dim1(line, (1, 1)),
      l.positive_lattice_vector([(1, 0, 1), (0, 1, 1)], 3), l.p_saturation(Lattice(2, [(2, 0), (1, 2)]), 2).rank)
"""
    assert run_optimized(code).split("\n") == [
        "InternalError normalized volume 1 is not divisible by the column torsion 3",
        "InternalError defining torsion 1000003 does not divide 1 * 6",
        "InternalError degree formula 1 / 2 is not integral",
        "InternalError grading vector (2, 2) is not primitive",
        "InternalError back substitution gave [0, 0, 0], not a positive vector",
        "InternalError p-part 4 does not divide column (1, 2)",
        "1 6 1 (1, 1, 2) 2",
    ]
