import random
import time
from itertools import product
from math import gcd, lcm, prod

import pytest

import latkit.decomp
from latkit import (
    IntMatrix,
    InternalError,
    Lattice,
    PreconditionError,
    SnfDecomposition,
    component_count,
    critical_group,
    degree_graded_dim1,
    grading_vector,
    rational_orbit_report,
    symbolic_decomposition,
)

from exampledata import (
    AFFINE_CURVE_GENERATORS,
    TORSION2_GENERATORS,
    WEIGHTED_DEMO_LAPLACIAN,
    column_lattice,
)


def test_torsion2_decomposition():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    comps = symbolic_decomposition(lat)
    assert len(comps) == 2
    assert sum(1 for c in comps if c.is_toric) == 1
    assert {c.residues for c in comps} == {(0, 0), (0, 1)}


def test_torsion2_orbit_report():
    lat = Lattice(3, list(TORSION2_GENERATORS))
    rep = rational_orbit_report(lat)
    assert rep.torsion_order == 2
    assert rep.invariant_factors == (2,)
    assert rep.grading == (5, 6, 7)
    assert sorted((o.size, o.degree) for o in rep.orbits) == [(1, 7), (1, 7)]
    assert rep.total_degree == 14 == degree_graded_dim1(lat, (5, 6, 7))


def test_demo_toppling_orbits():
    lat = column_lattice(WEIGHTED_DEMO_LAPLACIAN)
    assert len(symbolic_decomposition(lat)) == 67
    rep = rational_orbit_report(lat)
    assert rep.grading == (1, 1, 1, 1)
    assert sorted((o.size, o.degree) for o in rep.orbits) == [(1, 1), (66, 66)]
    assert rep.total_degree == 67
    d = rep.to_report()
    assert d["orbit_count"] == 2
    assert d["degree_formula"] == "derived"


def test_monomial_curve_single_component():
    curve = Lattice(2, [(5, -3)])
    comps = symbolic_decomposition(curve)
    assert len(comps) == 1 and comps[0].is_toric
    assert comps[0].residues == (0,)
    rep = rational_orbit_report(curve)
    assert len(rep.orbits) == 1
    assert rep.orbits[0].degree == 5 == degree_graded_dim1(curve, (3, 5))
    # image data of the character: trivial roots, powers from the grading
    roots, power = comps[0].monomial_image(0)
    assert roots == (0,) and power == 3
    assert comps[0].monomial_image(1)[1] == 5


def test_component_identity():
    a, b = symbolic_decomposition(Lattice(3, list(TORSION2_GENERATORS)))
    assert a != b and a == a
    assert len({a, b}) == 2


def test_decomposition_preconditions():
    with pytest.raises(PreconditionError):
        symbolic_decomposition(Lattice(3, [(1, -1, 0)]))  # not corank 1
    with pytest.raises(PreconditionError, match="grading"):
        symbolic_decomposition(Lattice(3, list(AFFINE_CURVE_GENERATORS)))


def _graded_corank1_lattices():
    """The examples and seeded lattices of rank s - 1 spanned by integer
    combinations of d_j e_i - d_i e_j for a positive primitive d, with
    torsion order at most 2000."""
    rng = random.Random(808)
    out = [Lattice(3, list(TORSION2_GENERATORS)), column_lattice(WEIGHTED_DEMO_LAPLACIAN),
           Lattice(2, [(5, -3)]), _chain_lattice((2, 6, 12), (3, 1, 2))]
    while len(out) < 120:
        s = rng.randint(2, 5)
        d = [rng.randint(1, 4) for _ in range(s)]
        d = [x // gcd(*d) for x in d]
        pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
        gens = []
        for _ in range(rng.randint(s - 1, s + 1)):
            v = [0] * s
            for i, j in rng.sample(pairs, min(len(pairs), 2)):
                c = rng.randint(-2, 2)
                v[i] += c * d[j]
                v[j] -= c * d[i]
            gens.append(v)
        lat = Lattice(s, gens)
        if lat.rank == s - 1 and critical_group(lat).order <= 2000:
            out.append(lat)
    return out


def test_decomposition_has_one_component_per_torsion_element():
    # checks symbolic_decomposition leaves to the tests: one component
    # per element of the critical group, and the grading it reads off P
    # is the grading vector
    for lat in _graded_corank1_lattices():
        comps = symbolic_decomposition(lat)
        assert len(comps) == critical_group(lat).order
        assert comps[0].grading == grading_vector(lat.generator_matrix())


def test_a_transform_row_that_is_no_grading_raises(monkeypatch):
    real = latkit.decomp.smith_normal_form

    def doubled_last_row(mat):
        dec = real(mat)
        rows = dec.P.to_rows()
        rows[-1] = [2 * x for x in rows[-1]]
        return SnfDecomposition(IntMatrix(rows), dec.Q, dec.gamma, dec.rank)

    monkeypatch.setattr(latkit.decomp, "smith_normal_form", doubled_last_row)
    with pytest.raises(InternalError, match="primitive grading"):
        symbolic_decomposition(Lattice(3, list(TORSION2_GENERATORS)))


def test_component_count_by_characteristic():
    lat = Lattice(3, [(2, -2, 0), (0, 6, -6)])
    assert component_count(lat) == 12
    assert component_count(lat, 2) == 3
    assert component_count(lat, 3) == 4
    # counts in characteristic p drop exactly the p-part
    assert component_count(lat, 5) == 12


def test_orbit_degrees_sum_to_graded_degree():
    lat = Lattice(3, [(2, -2, 0), (0, 6, -6)])
    rep = rational_orbit_report(lat)
    assert rep.total_degree == degree_graded_dim1(lat, (1, 1, 1))


def _chain_lattice(gammas, grading):
    """Corank-1 lattice in Z^(k+1) with torsion Z/gamma_1 x ... x
    Z/gamma_k, homogeneous for the grading (d_1, ..., d_k, 1)."""
    s = len(gammas) + 1
    return Lattice(s, [
        tuple(g * (int(i == j) - (d if i == s - 1 else 0)) for i in range(s))
        for j, (g, d) in enumerate(zip(gammas, grading))
    ])


def _enumerated_orbits(gammas):
    """Every orbit, sorted, by walking the whole group: the oracle."""
    modulus = lcm(*gammas)
    units = [k for k in range(1, modulus + 1) if gcd(k, modulus) == 1]
    seen = set()
    orbits = []
    for res in product(*(range(g) for g in gammas)):
        if res in seen:
            continue
        orbit = sorted({tuple((k * r) % g for r, g in zip(res, gammas)) for k in units})
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def _cyclic_subgroup_count(factors):
    """Elements of order dividing e number prod gcd(e, f); Moebius
    inversion gives those of order exactly d, and each cyclic subgroup
    of order d has phi(d) generators."""
    exponent = lcm(*factors)
    divs = [e for e in range(1, exponent + 1) if exponent % e == 0]

    def mobius(n):
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    total = 0
    for d in divs:
        exact = sum(mobius(d // e) * prod(gcd(e, f) for f in factors) for e in divs if d % e == 0)
        phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
        assert exact % phi == 0
        total += exact // phi
    return total


def test_orbit_report_matches_enumeration():
    rng = random.Random(1303)
    chains = [(1,), (7,), (2520,), (1, 1, 1, 1), (1, 1, 360), (2, 4, 4, 8), (240, 240)]
    while len(chains) < 40:
        chain, g = [], 1
        for _ in range(rng.randint(1, 4)):
            g *= rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 10))
            chain.append(g)
        if prod(chain) <= 60000:
            chains.append(tuple(chain))
    for chain in chains:
        d = tuple(rng.randint(1, 3) for _ in chain) + (1,)
        rep = rational_orbit_report(_chain_lattice(chain, d))
        want = _enumerated_orbits(chain)
        assert rep.invariant_factors == tuple(g for g in chain if g > 1)
        assert [o.representative for o in rep.orbits] == [m[0] for m in want]
        assert [o.members for o in rep.orbits] == want
        assert [o.size for o in rep.orbits] == [len(m) for m in want]
        assert [o.degree for o in rep.orbits] == [len(m) * max(d) for m in want]
        assert len(want) == _cyclic_subgroup_count(chain)


def test_orbit_report_at_scale():
    lat = _chain_lattice((5040, 5040), (2, 3, 1))
    start = time.perf_counter()
    rep = rational_orbit_report(lat)
    elapsed = time.perf_counter() - start
    assert rep.torsion_order == 5040 * 5040 == 25_401_600
    assert sum(o.size for o in rep.orbits) == rep.torsion_order
    assert rep.to_report()["orbit_count"] == _cyclic_subgroup_count((5040, 5040))
    assert elapsed < 5.0, f"5040 x 5040 orbit report took {elapsed:.2f} s"
