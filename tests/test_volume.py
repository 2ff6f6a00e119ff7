import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit import (
    IntMatrix,
    Lattice,
    LatticePolytope,
    determinant,
    integer_kernel,
    invariant_factors,
    minor_gcd,
    normalized_volume,
    rank,
    saturation,
)

from optimized import run_optimized


def test_known_volumes():
    assert normalized_volume([(3, 4)]) == 1  # a point
    assert normalized_volume([(0, 0), (5, 0)]) == 5
    assert normalized_volume([(0,), (7,), (3,)]) == 7
    assert normalized_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert normalized_volume(cube) == 6
    cross = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert normalized_volume(cross) == 8
    # coordinates are not truncated to integers
    for pts in ([(0.5, 0), (1.9, 0)], [(True, 0), (3, 0)]):
        with pytest.raises(TypeError):
            normalized_volume(pts)


def test_lower_dimensional_embeddings():
    # a segment along a diagonal of Z^3 has lattice length 3
    assert normalized_volume([(0, 0, 0), (3, 3, 3)]) == 3
    # a primitive step has length 1 regardless of entry size
    assert normalized_volume([(0, 0), (17, 13)]) == 1


def test_interior_and_repeated_points_ignored():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (0, 0), (1, 0)]
    assert normalized_volume(pts) == 4


def test_translated_coordinates_shape():
    poly = LatticePolytope([(0, 0, 0), (2, 2, 2), (1, 1, 1)])
    dim, coords = poly.translated_coordinates()
    assert dim == 1
    assert len(coords) == 3 and all(len(c) == 1 for c in coords)


def _hull2d_area2(points):
    # monotone chain + shoelace; independent of the package internals
    pts = sorted(set(points))
    if len(pts) <= 2:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    a2 = 0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        a2 += x1 * y2 - x2 * y1
    return abs(a2)


def test_planar_volume_matches_shoelace():
    rng = random.Random(77)
    checked = 0
    for _ in range(150):
        n = rng.randint(3, 9)
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)]
        expect = _hull2d_area2(pts)
        if expect == 0:
            continue  # degenerate input, handled by the embedding tests
        assert normalized_volume(pts) == expect, pts
        checked += 1
    assert checked >= 80


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=4,
        max_size=8,
    ),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=60, deadline=None)
def test_translation_and_order_invariance(pts, offset):
    v0 = normalized_volume(pts)
    shifted = [tuple(x + o for x, o in zip(p, offset)) for p in pts]
    assert normalized_volume(shifted) == v0
    assert normalized_volume(list(reversed(pts))) == v0


def test_dilation_law():
    rng = random.Random(13)
    for _ in range(40):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, r + 4)
        pts = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(n)]
        v0 = normalized_volume(pts)
        dim = LatticePolytope(pts).translated_coordinates()[0]
        for k in (2, 3):
            scaled = [tuple(k * x for x in p) for p in pts]
            assert normalized_volume(scaled) == v0 * k**dim


def test_unimodular_invariance():
    rng = random.Random(99)
    for _ in range(40):
        r = 3
        pts = [
            tuple(rng.randint(-3, 3) for _ in range(r))
            for _ in range(rng.randint(4, 7))
        ]
        v0 = normalized_volume(pts)
        U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for _ in range(6):
            i, j = rng.sample(range(r), 2)
            c = rng.randint(-2, 2)
            for k in range(r):
                U[i][k] += c * U[j][k]
        image = [
            tuple(sum(U[i][k] * p[k] for k in range(r)) for i in range(r))
            for p in pts
        ]
        assert normalized_volume(image) == v0


# ---------------------------------------------------------------------------
# The former coordinates path, kept as the oracle: a saturated basis of the
# span from lattice.saturation, each point solved for over Fractions, and
# facet normals from integer kernels with a Fraction centroid.


def _solve_exact(basis_rows, target):
    """Coefficients x with sum x_i basis_rows[i] = target, by Gaussian
    elimination over Fractions."""
    r = len(basis_rows)
    m = len(target)
    aug = [[Fraction(basis_rows[i][j]) for i in range(r)] + [Fraction(target[j])] for j in range(m)]
    pivots = []
    row = 0
    for col in range(r):
        sel = next((k for k in range(row, m) if aug[k][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for k in range(m):
            if k != row and aug[k][col]:
                f = aug[k][col]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[row])]
        pivots.append(col)
        row += 1
    assert not any(aug[k][r] for k in range(row, m)), "point outside the span"
    x = [Fraction(0)] * r
    for idx, col in enumerate(pivots):
        x[col] = aug[idx][r]
    return x


def _oracle_coordinates(points):
    points = list(dict.fromkeys(tuple(p) for p in points))
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    if not diffs:
        return 0, [()]
    lat = saturation(Lattice(len(base), diffs))
    coords = [(0,) * lat.rank]
    for d in diffs:
        x = _solve_exact(lat.basis(), d)
        assert all(v.denominator == 1 for v in x)
        coords.append(tuple(int(v) for v in x))
    return lat.rank, coords


def _oracle_facet(vertices, points, interior):
    base = points[vertices[0]]
    diffs = [tuple(a - b for a, b in zip(points[i], base)) for i in vertices[1:]]
    kern = integer_kernel(IntMatrix(diffs))
    assert len(kern) == 1
    n = tuple(kern[0])
    c = sum(a * b for a, b in zip(n, base))
    side = sum(a * b for a, b in zip(n, interior))
    assert side != c
    return (tuple(-x for x in n), -c) if side > c else (n, c)


def _oracle_simplex(vertex_points, apex):
    return abs(determinant(IntMatrix([tuple(a - b for a, b in zip(v, apex)) for v in vertex_points])))


def _greedy_starting_simplex(points):
    """The former starting simplex, kept as the oracle: one rank test
    per candidate point."""
    r = len(points[0])
    chosen = [0]
    for idx in range(1, len(points)):
        if len(chosen) == r + 1:
            break
        diffs = [tuple(a - b for a, b in zip(points[i], points[0])) for i in chosen[1:] + [idx]]
        if rank(IntMatrix(diffs)) == len(diffs):
            chosen.append(idx)
    return chosen


def _oracle_full_volume(points):
    r = len(points[0])
    chosen = _greedy_starting_simplex(points)
    assert len(chosen) == r + 1
    interior = tuple(sum(Fraction(points[i][j]) for i in chosen) / (r + 1) for j in range(r))
    volume = _oracle_simplex([points[i] for i in chosen[:-1]], points[chosen[-1]])
    facets = []
    for drop in range(r + 1):
        verts = frozenset(chosen[:drop] + chosen[drop + 1:])
        facets.append((verts,) + _oracle_facet(sorted(verts), points, interior))
    for idx, p in enumerate(points):
        if idx in chosen:
            continue
        visible = [f for f in facets if sum(a * b for a, b in zip(f[1], p)) > f[2]]
        ridges = {}
        for verts, _, _ in visible:
            volume += _oracle_simplex([points[i] for i in sorted(verts)], p)
            for drop in verts:
                ridges[verts - {drop}] = ridges.get(verts - {drop}, 0) + 1
        gone = {f[0] for f in visible}
        facets = [f for f in facets if f[0] not in gone]
        for ridge, count in ridges.items():
            if count == 1:
                verts = ridge | {idx}
                facets.append((verts,) + _oracle_facet(sorted(verts), points, interior))
    return volume


def _oracle_volume(points):
    dim, coords = _oracle_coordinates(points)
    if dim == 0:
        return 1
    if dim == 1:
        return max(c[0] for c in coords) - min(c[0] for c in coords)
    return _oracle_full_volume(coords)


def _coordinate_index(dim, coords):
    """Index in Z^dim of the lattice the coordinate tuples generate."""
    return minor_gcd(IntMatrix(coords), dim) if dim else 1


def _point_sets(rng, count):
    """Seeded point sets in Z^1 .. Z^6: full-dimensional ones, ones inside
    a lower-dimensional sublattice image (some not saturated), single
    points, and lists with repeated points."""
    for case in range(count):
        n = case % 6 + 1
        kind = case // 6 % 4
        if kind == 3:
            yield [tuple(rng.randint(-5, 5) for _ in range(n))] * rng.randint(1, 3)
            continue
        k = n if kind == 0 else rng.randint(1, n)
        # points of Z^k pushed into Z^n by a random integer map and shifted
        embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        shift = [rng.randint(-4, 4) for _ in range(n)]
        m = rng.randint(1, k + 3 if n <= 4 else k + 2)
        pts = []
        for _ in range(m):
            y = [rng.randint(-2, 2) for _ in range(k)]
            pts.append(tuple(sum(a * b for a, b in zip(row, y)) + s for row, s in zip(embed, shift)))
        if kind == 2:
            pts += rng.sample(pts, rng.randint(1, len(pts)))
            rng.shuffle(pts)
        yield pts


def test_coordinates_match_the_saturation_oracle():
    rng = random.Random(2024)
    dims = set()
    for pts in _point_sets(rng, 600):
        poly = LatticePolytope(pts)
        dim, coords = poly.translated_coordinates()
        odim, ocoords = _oracle_coordinates(pts)
        assert dim == odim, pts
        assert len(coords) == len(ocoords) == len(poly.points)
        assert coords[0] == (0,) * dim
        assert _coordinate_index(dim, coords) == _coordinate_index(odim, ocoords), pts
        assert poly.normalized_volume() == _oracle_volume(pts), pts
        dims.add((len(pts[0]), dim))
    # every ambient dimension, with both full and lower-dimensional spans
    assert {n for n, _ in dims} == set(range(1, 7))
    assert all((n, n) in dims and (n, 0) in dims for n in range(1, 7))
    assert all(any(0 < d < n for m, d in dims if m == n) for n in range(2, 7))


def test_one_dimensional_volume_is_the_length():
    # one-dimensional polytopes take the general incremental path; the
    # oracle is the former special case, max - min of the coordinates
    from latkit.volume import _incremental_volume

    rng = random.Random(2027)
    for _ in range(1000):
        values = [rng.randint(-20, 20) for _ in range(rng.randint(2, 8))]
        if len(set(values)) < 2:
            values.append(values[0] + rng.choice((-1, 1)) * rng.randint(1, 9))
        coords = [(v,) for v in dict.fromkeys(values)]
        assert _incremental_volume(coords) == max(values) - min(values), values
    for _ in range(300):
        # lattice points on a line through Z^3
        step = [rng.randint(-3, 3) for _ in range(3)]
        step[rng.randrange(3)] = rng.randint(1, 3)
        base = [rng.randint(-5, 5) for _ in range(3)]
        ts = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))]
        if len(set(ts)) < 2:
            ts.append(ts[0] + 1)
        pts = [tuple(b + t * d for b, d in zip(base, step)) for t in ts]
        poly = LatticePolytope(pts)
        dim, coords = poly.translated_coordinates()
        assert dim == 1
        lengths = [c[0] for c in coords]
        assert poly.normalized_volume() == max(lengths) - min(lengths), pts


def test_starting_simplex_matches_the_greedy_oracle():
    from latkit.volume import _starting_simplex

    rng = random.Random(2025)
    short = 0
    for pts in _point_sets(rng, 1200):
        chosen = _starting_simplex(pts)
        assert chosen == _greedy_starting_simplex(pts), pts
        short += len(chosen) <= len(pts[0])
    # lower-dimensional sets, where the greedy pass runs out of points
    assert short >= 300


def test_lattice_index_is_the_saturation_index():
    rng = random.Random(2026)
    indices = set()
    for pts in _point_sets(rng, 300):
        poly = LatticePolytope(pts)
        base = poly.points[0]
        diffs = [tuple(a - b for a, b in zip(p, base)) for p in poly.points[1:]]
        want = prod(invariant_factors(diffs))
        assert poly.lattice_index == want, pts
        indices.add(want)
    assert LatticePolytope([(2, 2, 2)]).lattice_index == 1
    assert LatticePolytope([(0, 0), (2, 0), (0, 3)]).lattice_index == 6
    assert len(indices) >= 5


def test_degenerate_facet_raises_internal_error_under_optimize():
    code = (
        "from latkit.errors import InternalError\n"
        "from latkit.volume import _facet_normal\n"
        "points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]\n"
        "interior = (2, 1, 1)\n"
        "print(_facet_normal([0, 1, 2], points, interior))\n"
        "for facet in ([0, 1, 4], [1, 2, 3]):\n"
        "    try:\n"
        "        _facet_normal(facet, points, interior)\n"
        "    except InternalError as e:\n"
        "        print(e)\n"
    )
    # (0, 0, 0), (1, 0, 0) and (2, 0, 0) are collinear; interior is 4 times
    # (1/2, 1/4, 1/4), which lies on the plane x + y + z = 1
    assert run_optimized(code).split("\n") == [
        "((0, 0, -1), 0)",
        "facet vertices do not span a hyperplane",
        "interior reference point lies on a facet plane",
    ]
