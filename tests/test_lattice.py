import random
from math import gcd

import pytest

from latkit import (
    FiniteAbelianGroup,
    IntMatrix,
    Lattice,
    PreconditionError,
    adjoint,
    critical_group,
    defining_matrix,
    determinant,
    grading_vector,
    hermite_rows,
    homogenize_lattice,
    homogenize_vector,
    integer_kernel,
    p_saturation,
    positive_lattice_vector,
    saturation,
    smith_normal_form,
    torsion_order,
)

from exampledata import (
    AFFINE_CURVE_GENERATORS,
    DENSE_PCB_4X4,
    RANK4_Z8_DEFINING_TORSION,
    RANK4_Z8_GENERATORS,
    RANK4_Z8_TORSION,
    TORSION2_GENERATORS,
    column_lattice,
)


def test_lattice_basics():
    lat = Lattice(3, [(1, 0, -1), (0, 2, -2), (1, 2, -3)])
    assert lat.rank == 2
    assert lat.contains((2, 2, -4))
    assert not lat.contains((0, 1, -1))
    with pytest.raises(ValueError):
        lat.contains((1, 0))
    with pytest.raises(ValueError):
        Lattice(0, [])
    with pytest.raises(ValueError):
        Lattice(2, [(1, 2, 3)])
    # generators are not truncated to integers
    with pytest.raises(TypeError):
        Lattice(2, [(1.5, 2)])
    with pytest.raises(TypeError):
        Lattice(2, [(True, 2)])
    for bad in ((1.7, True), (1.5, 0), (True, 0)):
        with pytest.raises(TypeError):
            homogenize_vector(bad)


def test_basis_is_canonical():
    a = Lattice(2, [(2, 4), (1, 3)])
    b = Lattice(2, [(1, 3), (3, 7)])
    assert a.basis() == b.basis()
    assert a.rank == 2


def test_finite_abelian_group():
    g = FiniteAbelianGroup((2, 6))
    assert g.order == 12
    with pytest.raises(ValueError):
        FiniteAbelianGroup((6, 2))  # factors must divide in order
    assert FiniteAbelianGroup(()).order == 1


def test_critical_group_and_torsion():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    assert critical_group(lat).invariant_factors == (2,)
    assert torsion_order(lat) == 2

    free = Lattice(3, [(1, -1, 0)])
    assert critical_group(free).invariant_factors == ()
    assert torsion_order(free) == 1


def test_rank4_z8_torsion():
    lat = Lattice(8, list(RANK4_Z8_GENERATORS))
    assert lat.rank == 4
    assert torsion_order(lat) == RANK4_Z8_TORSION


def test_saturation():
    lat = Lattice(2, [(2, 0), (0, 2)])
    sat = saturation(lat)
    assert sat.basis() == ((1, 0), (0, 1))
    # saturating twice changes nothing
    assert saturation(sat).basis() == sat.basis()
    # rank is preserved
    assert sat.rank == lat.rank


def test_saturation_index_is_torsion_order():
    rng = random.Random(321)
    for _ in range(40):
        s = rng.randint(2, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(s)) for _ in range(s - 1)]
        lat = Lattice(s, [g for g in gens if any(g)])
        if not lat.generators:
            continue
        sat = saturation(lat)
        assert torsion_order(sat) == 1
        for g in lat.generators:
            assert sat.contains(g)


def test_defining_matrix_rank4_z8():
    lat = Lattice(8, list(RANK4_Z8_GENERATORS))
    A = defining_matrix(lat)
    assert A.rows == 4 and A.cols == 8
    # every generator lies in the integer kernel of A
    for g in lat.generators:
        assert all(
            sum(A.entry(i, j) * g[j] for j in range(8)) == 0 for i in range(4)
        )
    # cokernel torsion of the defining matrix
    snf = smith_normal_form(A)
    prod = 1
    for x in snf.gamma:
        prod *= x
    assert prod == RANK4_Z8_DEFINING_TORSION


def test_defining_matrix_kernel_is_saturation():
    rng = random.Random(77)
    for _ in range(25):
        s = rng.randint(2, 5)
        k = rng.randint(1, s - 1)
        gens = [tuple(rng.randint(-3, 3) for _ in range(s)) for _ in range(k)]
        lat = Lattice(s, [g for g in gens if any(g)])
        if not lat.generators or lat.rank == s:
            continue
        A = defining_matrix(lat)
        from latkit import integer_kernel

        ker = Lattice(s, integer_kernel(A))
        assert ker.basis() == saturation(lat).basis()


def _kernel_defining_matrix(lat):
    """The former construction of defining_matrix, kept as the oracle:
    each hyperplane normal is the integer kernel of the other s - 1
    vectors of the greedy completion."""
    s = lat.ambient_dim
    full = [list(r) for r in lat.basis()]
    r = len(full)
    for j in range(s):
        e = [int(t == j) for t in range(s)]
        if len(full) < s and len(hermite_rows(full + [e], s)) > len(full):
            full.append(e)
    out = []
    for idx in range(r, s):
        others = [full[t] for t in range(s) if t != idx]
        if not others:
            out.append((1,))
            continue
        (w,) = integer_kernel(IntMatrix(others))
        g = gcd(*w)
        w = [x // g for x in w]
        if next(x for x in w if x) < 0:
            w = [-x for x in w]
        out.append(tuple(w))
    return out


def test_defining_matrix_matches_kernel_oracle():
    examples = [
        Lattice(8, list(RANK4_Z8_GENERATORS)),
        Lattice(3, TORSION2_GENERATORS),
        Lattice(3, AFFINE_CURVE_GENERATORS),
        column_lattice(DENSE_PCB_4X4),
        homogenize_lattice(Lattice(3, AFFINE_CURVE_GENERATORS)),
        Lattice(5, [(0, 0, 2, 0, -2)]),
    ]
    for lat in examples:
        assert list(defining_matrix(lat)) == _kernel_defining_matrix(lat), lat.generators
    rng = random.Random(4242)
    ranks = set()
    for case in range(1200):
        s = case % 6 + 1
        scale = rng.choice((1, 1, 2, 3))
        gens = [tuple(scale * rng.randint(-3, 3) for _ in range(s)) for _ in range(rng.randint(0, s - 1))]
        # redundant generators: combinations of earlier ones, multiples when a is b
        for _ in range(rng.randint(0, 2) if gens else 0):
            a, b = rng.choice(gens), rng.choice(gens)
            c = rng.randint(-2, 2)
            gens.append(tuple(x + c * y for x, y in zip(a, b)))
        lat = Lattice(s, gens)
        assert list(defining_matrix(lat)) == _kernel_defining_matrix(lat), gens
        ranks.add((s, lat.rank))
    assert {(s, r) for s in range(1, 7) for r in range(s)} <= ranks


def test_grading_vector_examples():
    L = IntMatrix(DENSE_PCB_4X4)
    assert grading_vector(L) == (20, 24, 31, 25)
    assert grading_vector(L.transpose()) == (1, 1, 1, 1)
    # a matrix with no positive left kernel
    assert grading_vector(IntMatrix([[1, 0], [0, 1]])) is None


def test_grading_vector_of_generator_matrix():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    assert grading_vector(lat.generator_matrix()) == (5, 6, 7)
    bad = Lattice(3, list(AFFINE_CURVE_GENERATORS))
    assert grading_vector(bad.generator_matrix()) is None


def test_positive_lattice_vector():
    assert positive_lattice_vector([(1, 1, 1)], 3) == (1, 1, 1)
    assert positive_lattice_vector([(2, 2)], 2) == (1, 1)
    assert positive_lattice_vector([(1, -1, 0), (0, 1, -1)], 3) is None
    got = positive_lattice_vector([(1, 0, 1), (0, 1, 1)], 3)
    assert got is not None and all(x > 0 for x in got)


def test_positive_lattice_vector_on_mixed_sign_bases():
    # mixed signs give some variable a negative coefficient in a
    # constraint, so back-substitution also takes upper bounds
    from itertools import product

    from latkit import rank

    assert positive_lattice_vector([(1, -1, 2), (0, 1, -1)], 3) == (2, 1, 1)
    rng = random.Random(24)
    cases = found = 0
    while cases < 1000:
        k, length = rng.choice((2, 3)), rng.randint(3, 5)
        basis = [tuple(rng.randint(-3, 3) for _ in range(length)) for _ in range(k)]
        if not all(min(b) < 0 < max(b) for b in basis) or rank(IntMatrix(basis)) < k:
            continue
        cases += 1
        got = positive_lattice_vector(basis, length)
        small = any(
            all(sum(z * b[j] for z, b in zip(zs, basis)) > 0 for j in range(length))
            for zs in product(range(-2, 3), repeat=k)
        )
        if small:
            assert got is not None, basis
        if got is not None:
            found += 1
            assert len(got) == length and all(x > 0 for x in got) and gcd(*got) == 1, basis
            assert rank(IntMatrix(basis + [got])) == k, basis
    assert found >= 200


def test_homogenize_vector():
    assert homogenize_vector((1, 0, 2)) == (1, 0, 2, -3)
    assert homogenize_vector((2, -3)) == (-2, 3, -1)
    assert sum(homogenize_vector((4, -1, -1))) == 0


def test_homogenize_lattice():
    lat = Lattice(3, list(AFFINE_CURVE_GENERATORS))
    h = homogenize_lattice(lat)
    assert h.ambient_dim == 4
    assert all(sum(g) == 0 for g in h.generators)
    assert h.rank == lat.rank


def test_p_saturation():
    lat = Lattice(2, [(2, 0), (0, 12)])
    sat2 = p_saturation(lat, 2)
    assert critical_group(sat2).invariant_factors == (3,)
    # p-saturating at a prime not dividing the torsion changes nothing
    sat5 = p_saturation(lat, 5)
    assert sat5.basis() == lat.basis()
    with pytest.raises(PreconditionError):
        p_saturation(lat, 4)


def test_p_saturation_removes_exactly_p_part():
    rng = random.Random(5150)
    for _ in range(30):
        s = rng.randint(2, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(s)) for _ in range(s)]
        lat = Lattice(s, [g for g in gens if any(g)])
        if not lat.generators:
            continue
        for p in (2, 3):
            sat = p_saturation(lat, p)
            n = torsion_order(sat)
            assert n % p != 0
            m = torsion_order(lat)
            while m % p == 0:
                m //= p
            assert n == m


def _p_saturation_by_inverse(lat, p):
    # oracle: invert P by its adjugate, then scale column i of P^-1 by
    # gamma_i with its p-part stripped
    dec = smith_normal_form(lat.generator_matrix())
    pinv = adjoint(dec.P)
    if determinant(dec.P) < 0:
        pinv = IntMatrix([[-x for x in row] for row in pinv])
    gens = []
    for i, g in enumerate(dec.gamma):
        while g % p == 0:
            g //= p
        gens.append(tuple(g * x for x in pinv.column(i)))
    return tuple(gens)


def test_p_saturation_matches_adjugate_inverse():
    rng = random.Random(8128)
    for _ in range(400):
        s = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(s))
            for _ in range(rng.randint(1, 5))
        ]
        lat = Lattice(s, gens)
        for p in (2, 3, 5):
            assert p_saturation(lat, p).generators == _p_saturation_by_inverse(lat, p)


def test_critical_group_from_generator_matrix_snf():
    # order of the torsion part = product of the invariant factors of
    # the saturation quotient, cross-checked on random column lattices
    rng = random.Random(2024)
    for _ in range(30):
        s = rng.randint(2, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(s)) for _ in range(s)]
        lat = Lattice(s, [g for g in gens if any(g)])
        if not lat.generators:
            continue
        g = critical_group(lat)
        assert g.order == torsion_order(lat)
        snf = smith_normal_form(IntMatrix(list(lat.basis())))
        prod = 1
        for x in snf.gamma:
            prod *= x
        assert g.order == prod
        assert g.invariant_factors == tuple(x for x in snf.gamma if x > 1)
