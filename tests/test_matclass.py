import random
from fractions import Fraction
from math import gcd

import pytest

from latkit import (
    Binomial,
    BinomialIdeal,
    IntMatrix,
    Lattice,
    PreconditionError,
    analyze_2x2,
    check_transpose_theorems,
    classify,
    gcb_vanishing_equivalence,
    gpcb_embedded_component,
    gpcb_hull,
    gpcb_syzygy,
    is_lattice_ideal,
    laplacian,
    matrix_ideal,
    pb_not_lattice_check,
    saturate_variables,
    strongly_connected,
    underlying_digraph,
)

from latkit._genpoly import poly_mul

from exampledata import (
    DENSE_PCB_4X4,
    DIRECTED_DEMO_LAPLACIAN,
    GCB_NO_TRANSPOSE_4X4,
    KERNEL_211_3X3,
    KERNEL_211_HULL_MATRIX,
    KERNEL_211_HULL_PAIRS,
    KERNEL_235_3X3,
    KERNEL_235_HULL_MATRIX,
    KERNEL_235_HULL_PAIRS,
    binomials,
    complete_graph,
    demo_graph,
)
from optimized import run_optimized
from ratpoly import colon_by_poly, ideals_equal, intersect, poly_from_binomial


def test_classify_dense_pcb():
    r = classify(IntMatrix(DENSE_PCB_4X4))
    assert r.pure_binomial and r.full_support_binomial and r.critical
    assert r.positive_critical and r.generalized_critical and r.generalized_positive
    assert r.right_kernel_witness == (1, 1, 1, 1)
    assert r.left_kernel_witness == (20, 24, 31, 25)


def test_classify_digraph_laplacian():
    r = classify(IntMatrix(DIRECTED_DEMO_LAPLACIAN))
    assert r.pure_binomial and r.critical and r.generalized_critical
    assert not r.full_support_binomial
    assert not r.positive_critical and not r.generalized_positive
    assert r.right_kernel_witness == (1, 1, 1, 1)
    assert r.left_kernel_witness is None


def test_classify_kernel_witnesses():
    r = classify(IntMatrix(KERNEL_235_3X3))
    assert r.generalized_positive and not r.critical and not r.positive_critical
    assert r.right_kernel_witness == (2, 3, 5)
    r = classify(IntMatrix(KERNEL_211_3X3))
    assert r.generalized_positive and not r.positive_critical
    assert r.right_kernel_witness == (2, 1, 1)
    r = classify(IntMatrix(GCB_NO_TRANSPOSE_4X4))
    assert r.generalized_critical and not r.critical and not r.generalized_positive
    assert r.right_kernel_witness == (9, 19, 19, 7)


def test_classify_rejects_wrong_shapes_and_signs():
    r = classify(IntMatrix([[2, 1], [-1, 1]]))
    assert not r.pure_binomial and not r.generalized_critical
    with pytest.raises(PreconditionError):
        classify(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_classify_rejects_decoupled_column():
    # third column has no off-diagonal entry, so its binomial would be
    # t3^c - 1; the sign pattern alone is not enough
    r = classify(IntMatrix([[1, -1, 0], [-1, 1, 0], [0, -1, 1]]))
    assert not r.pure_binomial
    assert not r.critical and not r.generalized_critical
    # and indeed the column ideal is not homogeneous: it contains t3 - 1
    I = matrix_ideal(IntMatrix([[1, -1, 0], [-1, 1, 0], [0, -1, 1]]))
    assert I.contains(Binomial((0, 0, 1), (0, 0, 0)))


def test_underlying_digraph():
    dg = underlying_digraph(IntMatrix([[2, 0], [0, 3]]))
    assert dg.arcs == ((0, 0, 2), (1, 1, 3))
    assert not strongly_connected(underlying_digraph(IntMatrix(DIRECTED_DEMO_LAPLACIAN)))
    assert strongly_connected(underlying_digraph(laplacian(demo_graph())))


def test_transpose_theorems_dense_pcb():
    rep = check_transpose_theorems(IntMatrix(DENSE_PCB_4X4))
    assert rep.gpcb_transpose_holds
    assert rep.gcb_connected_transpose_holds
    assert rep.rank == 3 and rep.strongly_connected
    assert rep.transpose.generalized_positive
    assert rep.transpose.right_kernel_witness == (20, 24, 31, 25)


def test_transpose_theorems_hypotheses_matter():
    rep = check_transpose_theorems(IntMatrix(DIRECTED_DEMO_LAPLACIAN))
    assert rep.gpcb_transpose_holds is None  # not full support
    assert rep.gcb_connected_transpose_holds is None  # not strongly connected
    assert not rep.transpose.generalized_critical

    rep = check_transpose_theorems(IntMatrix(GCB_NO_TRANSPOSE_4X4))
    assert rep.source.generalized_critical and not rep.strongly_connected
    assert not rep.transpose.generalized_critical
    assert rep.rank == 3


def test_transpose_theorems_3x3():
    rep = check_transpose_theorems(IntMatrix(KERNEL_235_3X3))
    assert rep.gcb_3x3_transpose_holds and rep.rank == 2
    rep = check_transpose_theorems(IntMatrix(KERNEL_211_3X3))
    assert rep.gcb_3x3_transpose_holds and rep.gpcb_transpose_holds


def test_gcb_vanishing_equivalence():
    eq = gcb_vanishing_equivalence(IntMatrix(DENSE_PCB_4X4))
    assert eq.strongly_connected
    assert eq.transpose_vanishing_condition
    assert eq.adjoint_positive

    eq = gcb_vanishing_equivalence(IntMatrix(DIRECTED_DEMO_LAPLACIAN))
    assert not eq.strongly_connected
    assert not eq.transpose_vanishing_condition
    assert not eq.adjoint_positive

    eq = gcb_vanishing_equivalence(IntMatrix([[1, -1], [-1, 1]]))
    assert eq.strongly_connected and eq.adjoint_positive

    with pytest.raises(PreconditionError):
        gcb_vanishing_equivalence(IntMatrix([[2, 1], [-1, 1]]))


def test_syzygy_data_kernel_235():
    data = gpcb_syzygy(IntMatrix(KERNEL_235_3X3))
    assert data.witness == (2, 3, 5)
    assert data.cb_matrix.to_rows() == [[8, -3, -5], [-4, 9, -5], [-2, -3, 5]]
    assert data.shifts == ((0, 0, 3), (5, 0, 0), (0, 4, 0))
    x3, y3 = data.term_pairs[2]
    assert x3 == (0, 0, 1) and y3 == (1, 1, 0)
    assert len(data.cofactors[2]) == 5 and len(data.quotients[2]) == 4


def test_syzygy_degenerates_for_unit_witness():
    data = gpcb_syzygy(IntMatrix(DENSE_PCB_4X4))
    assert data.witness == (1, 1, 1, 1)
    assert data.cb_matrix.to_rows() == DENSE_PCB_4X4
    assert all(c == {(0, 0, 0, 0): Fraction(1)} for c in data.cofactors)
    assert all(q == {} for q in data.quotients)
    assert data.shifts[3] == (0, 1, 2, 0)


def distinguished_element(data):
    """t^shifts[s-1] * cofactors[s-1] of gpcb_syzygy's data: the single
    polynomial whose colon against the column ideal produces the hull."""
    return poly_mul({data.shifts[-1]: Fraction(1)}, data.cofactors[-1])


def colon_hull(L):
    """The hull as the one-step colon of the column ideal by the
    distinguished element, in the rational-polynomial engine."""
    gens = [poly_from_binomial(g) for g in matrix_ideal(L).generators]
    return colon_by_poly(gens, distinguished_element(gpcb_syzygy(L)), L.rows)


def assert_hull_is_colon(L, hull):
    """The hull theorem, I : f == hull; returns the colon I : f."""
    colon = colon_hull(L)
    polys = [poly_from_binomial(g) for g in hull.reduced_groebner()]
    assert ideals_equal(colon, polys, L.rows), L.to_rows()
    return colon


def assert_colon_stabilizes(L, colon):
    """I : f == I : f^2, the condition of the decomposition theorem,
    given colon = I : f."""
    f = distinguished_element(gpcb_syzygy(L))
    assert ideals_equal(colon, colon_by_poly(colon, f, L.rows), L.rows), L.to_rows()


def assert_hull_meets_component(comp):
    """hull ∩ (I + f) == I for the decomposition of the column ideal I."""
    s = comp.column_ideal.ambient_dim
    gens = [poly_from_binomial(g) for g in comp.column_ideal.generators]
    hull = [poly_from_binomial(g) for g in comp.hull.reduced_groebner()]
    assert ideals_equal(intersect(hull, gens + [comp.extra_generator], s), gens, s)


def test_hull_of_kernel_211():
    hull = gpcb_hull(IntMatrix(KERNEL_211_3X3))
    assert_hull_is_colon(IntMatrix(KERNEL_211_3X3), hull)
    assert hull == BinomialIdeal(3, binomials(KERNEL_211_HULL_PAIRS))
    assert hull == matrix_ideal(IntMatrix(KERNEL_211_HULL_MATRIX))
    # already a lattice ideal: taking the hull again is a fixed point
    assert gpcb_hull(IntMatrix(KERNEL_211_HULL_MATRIX)) == hull


def test_hull_of_kernel_235():
    hull = gpcb_hull(IntMatrix(KERNEL_235_3X3))
    assert_hull_is_colon(IntMatrix(KERNEL_235_3X3), hull)
    assert hull == BinomialIdeal(3, binomials(KERNEL_235_HULL_PAIRS))
    assert hull == saturate_variables(matrix_ideal(IntMatrix(KERNEL_235_HULL_MATRIX)))


def test_hull_matrices_span_the_same_lattice():
    for L, M in (
        (KERNEL_211_3X3, KERNEL_211_HULL_MATRIX),
        (KERNEL_235_3X3, KERNEL_235_HULL_MATRIX),
    ):
        a = Lattice(3, [IntMatrix(L).column(j) for j in range(3)])
        b = Lattice(3, [IntMatrix(M).column(j) for j in range(3)])
        assert a.basis() == b.basis()


def test_embedded_component_dense_pcb():
    comp = gpcb_embedded_component(IntMatrix(DENSE_PCB_4X4))
    assert comp.extra_generator == {(0, 1, 2, 0): Fraction(1)}
    assert comp.hull == saturate_variables(matrix_ideal(IntMatrix(DENSE_PCB_4X4)))
    assert_hull_meets_component(comp)
    L = IntMatrix(DENSE_PCB_4X4)
    assert_colon_stabilizes(L, assert_hull_is_colon(L, comp.hull))
    with pytest.raises(PreconditionError):
        gpcb_embedded_component(IntMatrix(KERNEL_235_3X3))  # needs 4 variables


def test_analyze_2x2():
    a = analyze_2x2(IntMatrix([[2, -1], [-2, 1]]))
    assert a.witness == (1, 2) and a.hull_exponents == (1, 1)
    assert a.principal and a.pcb_ideal and a.lattice_ideal
    assert a.hull_generator == Binomial((1, 0), (0, 1))

    a = analyze_2x2(IntMatrix([[3, -2], [-3, 2]]))
    assert a.witness == (2, 3) and a.hull_exponents == (1, 1)
    assert not a.principal and not a.pcb_ideal and not a.lattice_ideal

    a = analyze_2x2(IntMatrix([[1, -1], [-1, 1]]))
    assert a.principal and a.witness == (1, 1)

    a = analyze_2x2(IntMatrix([[6, -4], [-3, 2]]))
    assert a.witness == (2, 3) and a.hull_exponents == (2, 1)
    assert not a.lattice_ideal

    # h generates the hull: the saturation of the column ideal
    for rows in ([[2, -1], [-2, 1]], [[3, -2], [-3, 2]], [[1, -1], [-1, 1]], [[6, -4], [-3, 2]]):
        L = IntMatrix(rows)
        assert saturate_variables(matrix_ideal(L)) == BinomialIdeal(2, [analyze_2x2(L).hull_generator])

    with pytest.raises(PreconditionError):
        analyze_2x2(IntMatrix([[2, 0], [0, 2]]))


def test_pb_support_verdicts():
    assert pb_not_lattice_check(laplacian(complete_graph(5))) is False
    assert pb_not_lattice_check(IntMatrix(DENSE_PCB_4X4)) is False
    with pytest.raises(PreconditionError):
        pb_not_lattice_check(laplacian(demo_graph()))  # supports of size 3


def random_gpcb(rng, s):
    """Full-support matrix with positive kernel vector b, zero column sums
    against b by construction."""
    b = [rng.randint(1, 4) for _ in range(s)]
    g = 0
    for x in b:
        g = gcd(g, x)
    b = [x // g for x in b]
    rows = []
    for i in range(s):
        m = [rng.randint(1, 3) if j != i else 0 for j in range(s)]
        diag = sum(m[j] * b[j] for j in range(s) if j != i)
        rows.append([-m[j] * b[i] if j != i else diag for j in range(s)])
    return IntMatrix(rows), tuple(b)


def test_random_gpcb_transpose_closure():
    rng = random.Random(911)
    for _ in range(25):
        s = rng.randint(2, 4)
        L, b = random_gpcb(rng, s)
        r = classify(L)
        assert r.generalized_positive, (L.to_rows(), b)
        rep = check_transpose_theorems(L)
        assert rep.gpcb_transpose_holds
        gpcb_syzygy(L)  # identities checked internally
        colon = assert_hull_is_colon(L, gpcb_hull(L))
        if s == 4:
            comp = gpcb_embedded_component(L)
            assert comp.extra_generator == distinguished_element(gpcb_syzygy(L))
            assert_hull_meets_component(comp)
            assert_colon_stabilizes(L, colon)


def test_random_gpcb_embedded_component_five_variables():
    rng = random.Random(913)
    for _ in range(4):
        L, b = random_gpcb(rng, 5)
        comp = gpcb_embedded_component(L)
        assert comp.extra_generator == distinguished_element(gpcb_syzygy(L)), b
        assert comp.hull == saturate_variables(matrix_ideal(L))
        assert_colon_stabilizes(L, assert_hull_is_colon(L, comp.hull))


def test_random_gpcb_unmixedness_trichotomy():
    # 4+ variables: never a lattice ideal; positive-critical with <= 3
    # variables: always; 2x2 decided by the witness minimum
    rng = random.Random(912)
    for _ in range(12):
        s = rng.randint(2, 5)
        L, b = random_gpcb(rng, s)
        r = classify(L)
        latt = is_lattice_ideal(matrix_ideal(L))
        if s >= 4:
            assert not latt, L.to_rows()
        elif r.positive_critical:
            assert latt, L.to_rows()
        if s == 2:
            a2 = analyze_2x2(L)
            assert latt == a2.lattice_ideal == (min(r.right_kernel_witness) == 1)
            assert saturate_variables(matrix_ideal(L)) == BinomialIdeal(2, [a2.hull_generator])


def test_proof_checks_fire_under_python_O():
    # plant a fault in front of checks of matclass, cb3 and decomp: each
    # must raise InternalError with asserts stripped
    code = """
import latkit.cb3 as c
import latkit.decomp as d
import latkit.matclass as m
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

k211 = IntMatrix([[4, -5, -3], [-1, 3, -1], [-1, -1, 3]])
no_transpose = IntMatrix([[5, -2, 0, -1], [0, 1, -1, 0], [0, -1, 1, 0], [-1, 0, -1, 4]])
triangle = IntMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
torsion2 = Lattice(3, [(-2, 4, -2), (-2, -3, 4)])
torsion3 = Lattice(3, [(3, -3, 0), (0, 1, -1)])
adjoint, critical_data = m.adjoint, c._critical_data

def doubled(lat, index, cap):
    a, tail = critical_data(lat, index, cap)
    return 2 * a, tuple(2 * x for x in tail)

planted(m, "matrix_rank", lambda L: 0, lambda: m.check_transpose_theorems(k211))
planted(m, "strongly_connected", lambda G: True, lambda: m.check_transpose_theorems(no_transpose))
planted(m, "adjoint", lambda L: IntMatrix([[-x for x in r] for r in adjoint(L).to_rows()]),
        lambda: m.gcb_vanishing_equivalence(k211))
planted(m, "is_lattice_ideal", lambda I: True, lambda: m.analyze_2x2(IntMatrix([[3, -2], [-3, 2]])))
planted(m, "poly_mul", lambda p, q: {(0, 0, 1): 1}, lambda: m.gpcb_syzygy(k211))
planted(c, "poly_mul", lambda p, q: {(0, 0, 1): 1}, lambda: c.cb_properties_check(triangle))
planted(c, "_critical_data", doubled, lambda: c.cb_structure(torsion2))
planted(d, "_totient", lambda n: 1, lambda: d.rational_orbit_report(torsion3))
planted(d, "product", lambda *ranges: [(0,)] * 2, lambda: len(d.symbolic_decomposition(torsion2)))
"""
    assert run_optimized(code).split("\n") == [
        "InternalError GPCB transpose statement failed",
        "InternalError strongly connected GCB transpose statement failed",
        "InternalError the three GCB conditions disagree: True, True, False",
        "InternalError lattice-ideal verdict True, but principal is False",
        "InternalError telescoping relation did not vanish",
        "InternalError the cyclic syzygies must expand to zero",
        "InternalError the assembled matrix must generate the same column lattice",
        "InternalError orbit sizes do not sum to the torsion order 3",
        "InternalError characters must give distinct components, one of them toric",
    ]
