"""Acceptance suite: ten headline checks, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion with its runtime. Every asserted value is an integer
equality; there are no tolerances anywhere.
"""

import ast
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import propsuites
from latkit import (
    Binomial,
    BinomialIdeal,
    IntMatrix,
    Lattice,
    PreconditionError,
    cb_structure,
    check_transpose_theorems,
    classify,
    degree_dim1_from_basis,
    degree_lattice,
    degree_lattice_breakdown,
    degree_matrix_ideal,
    degree_toric,
    find_hull_gcb3,
    gpcb_embedded_component,
    grading_vector,
    is_lattice_ideal,
    laplacian,
    laplacian_report,
    matrix_ideal,
    minor_gcd,
    rational_orbit_report,
    saturate_variables,
    smith_normal_form,
    strongly_connected,
    symbolic_decomposition,
    underlying_digraph,
)

from exampledata import (
    AFFINE_CURVE_GENERATORS,
    AFFINE_CURVE_SATURATION_PAIRS,
    DENSE_PCB_4X4,
    DIRECTED_DEMO_LAPLACIAN,
    FLOW_COLUMNS_5X7,
    GCB_NO_TRANSPOSE_4X4,
    KERNEL_211_3X3,
    KERNEL_211_HULL_MATRIX,
    KERNEL_211_HULL_PAIRS,
    KERNEL_235_3X3,
    KERNEL_235_HULL_MATRIX,
    KERNEL_235_HULL_PAIRS,
    RANK4_Z8_GENERATORS,
    TORSION2_CRITICAL_PAIRS,
    TORSION2_GENERATORS,
    WEIGHTED_DEMO_HULL_PAIRS,
    binomials,
    column_lattice,
    complete_graph,
    demo_graph,
)


@contextmanager
def criterion(number, budget_seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"criterion {number:2d} PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_rank4_degree_breakdown():
    with criterion(1, 5, "degree breakdown of the rank-4 lattice in Z^8"):
        lat = Lattice(8, list(RANK4_Z8_GENERATORS))
        bd = degree_lattice_breakdown(lat)
        assert bd.degree == 125
        assert bd.torsion_order == 5
        assert bd.normalized_volume == 200
        assert bd.defining_torsion == 8
        assert degree_lattice(lat) == 125


def test_criterion_02_toric_degree_11():
    with criterion(2, 1, "toric degree of the seven flow vectors"):
        V = IntMatrix([[c[i] for c in FLOW_COLUMNS_5X7] for i in range(5)])
        assert degree_toric(V) == 11
        assert all(g == 1 for g in smith_normal_form(V).gamma)  # torsion-free


def test_criterion_03_weighted_demo_graph():
    with criterion(3, 10, "weighted demo graph: degree, hull, orbits"):
        G = demo_graph()
        rep = laplacian_report(G)
        assert rep.laplacian_ideal_degree == 67
        assert rep.sandpile_order == 67
        from latkit import toppling_ideal

        listed = binomials(WEIGHTED_DEMO_HULL_PAIRS)
        top = toppling_ideal(G)
        assert set(top.reduced_groebner()) == set(listed)
        assert top == BinomialIdeal(4, listed)
        orbits = rational_orbit_report(column_lattice(laplacian(G).to_rows()))
        assert sorted(o.degree for o in orbits.orbits) == [1, 66]


def test_criterion_04_complete_graph_degrees():
    with criterion(4, 5, "complete-graph Laplacian degrees 3, 16, 125"):
        for s, expect in ((3, 3), (4, 16), (5, 125)):
            assert degree_matrix_ideal(laplacian(complete_graph(s))) == expect


def test_criterion_05_dense_pcb_two_results():
    with criterion(5, 10, "dense 4x4: degrees 31/1, grading, embedded part"):
        L = IntMatrix(DENSE_PCB_4X4)
        assert degree_matrix_ideal(L) == 31
        assert degree_matrix_ideal(L.transpose()) == 1
        # the weight vector (20,24,31,25) annihilates the columns of L,
        # equivalently it is the positive kernel vector of the transpose
        assert grading_vector(L) == (20, 24, 31, 25)
        assert grading_vector(L.transpose()) == (1, 1, 1, 1)
        assert classify(L.transpose()).right_kernel_witness == (20, 24, 31, 25)
        assert minor_gcd(L, 3) == 1
        comp = gpcb_embedded_component(L)  # test_matclass checks I = hull ∩ q
        assert comp.extra_generator == {(0, 1, 2, 0): Fraction(1)}
        assert comp.hull == saturate_variables(matrix_ideal(L))
        assert comp.column_ideal == matrix_ideal(L)


def test_criterion_06_hull_examples():
    with criterion(6, 2, "3x3 hull computations, both kernel shapes"):
        M1, hull1 = find_hull_gcb3(IntMatrix(KERNEL_211_3X3))
        assert hull1 == BinomialIdeal(3, binomials(KERNEL_211_HULL_PAIRS))
        assert M1.to_rows() == KERNEL_211_HULL_MATRIX
        assert column_lattice(M1.to_rows()) == column_lattice(KERNEL_211_3X3)

        M2, hull2 = find_hull_gcb3(IntMatrix(KERNEL_235_3X3))
        assert hull2 == BinomialIdeal(3, binomials(KERNEL_235_HULL_PAIRS))
        assert column_lattice(M2.to_rows()) == column_lattice(KERNEL_235_3X3)
        assert column_lattice(KERNEL_235_HULL_MATRIX) == column_lattice(
            KERNEL_235_3X3
        )


def test_criterion_07_torsion2_lattice():
    with criterion(7, 2, "torsion-2 lattice: criticals, degree 14, orbits"):
        I = BinomialIdeal(
            3, [Binomial.from_vector(v) for v in TORSION2_GENERATORS]
        )
        assert saturate_variables(I) == BinomialIdeal(
            3, binomials(TORSION2_CRITICAL_PAIRS)
        )
        lat = Lattice(3, list(TORSION2_GENERATORS))
        assert degree_lattice(lat) == 14
        assert len(symbolic_decomposition(lat)) == 2
        rep = rational_orbit_report(lat)
        assert sorted(o.degree for o in rep.orbits) == [7, 7]


def test_criterion_08_ungraded_curve():
    with criterion(8, 1, "ungraded curve: saturation, minors, rejection"):
        I = BinomialIdeal(
            3, [Binomial.from_vector(v) for v in AFFINE_CURVE_GENERATORS]
        )
        assert saturate_variables(I) == BinomialIdeal(
            3, binomials(AFFINE_CURVE_SATURATION_PAIRS)
        )
        res = degree_dim1_from_basis(list(AFFINE_CURVE_GENERATORS))
        assert res.minors == (-2, -5, 1)
        assert res.degree == 6
        with pytest.raises(PreconditionError, match="grading"):
            cb_structure(Lattice(3, list(AFFINE_CURVE_GENERATORS)))


def test_criterion_09_transpose_counterexamples():
    with criterion(9, 1, "directed Laplacian and transpose failures"):
        L = IntMatrix(DIRECTED_DEMO_LAPLACIAN)
        r = classify(L)
        assert r.pure_binomial and r.critical and r.generalized_critical
        assert not r.full_support_binomial and not r.generalized_positive
        assert r.right_kernel_witness == (1, 1, 1, 1)
        assert not strongly_connected(underlying_digraph(L))
        t = check_transpose_theorems(L)
        assert t.transpose.pure_binomial
        assert not t.transpose.generalized_critical
        assert t.gcb_connected_transpose_holds is None  # hypothesis fails

        G = IntMatrix(GCB_NO_TRANSPOSE_4X4)
        rg = classify(G)
        assert rg.generalized_critical and not rg.critical
        assert not rg.generalized_positive
        assert rg.right_kernel_witness == (9, 19, 19, 7)
        assert not strongly_connected(underlying_digraph(G))
        tg = check_transpose_theorems(G)
        assert tg.transpose.pure_binomial
        assert not tg.transpose.generalized_critical


def test_criterion_10_property_suites():
    with criterion(10, 30, "nine property suites, 100 instances each"):
        for suite in propsuites.ALL_SUITES:
            assert suite() >= 100, suite.__name__


def test_lattice_ideal_verdicts_match_across_examples():
    # consistency sweep over every fixture used above; not numbered, but
    # cheap and catches cross-module drift
    assert not is_lattice_ideal(matrix_ideal(IntMatrix(DENSE_PCB_4X4)))
    assert not is_lattice_ideal(matrix_ideal(laplacian(demo_graph())))
    assert is_lattice_ideal(matrix_ideal(IntMatrix(KERNEL_211_HULL_MATRIX)))


def test_no_assert_in_library_source():
    # `python -O` strips asserts, so a check written as one would make -O
    # a hidden switch; library checks raise InternalError instead
    src = Path(__file__).resolve().parent.parent / "src" / "latkit"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
