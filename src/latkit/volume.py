"""Exact normalized volumes of lattice polytopes.

The points are translated by the first one, and one Smith normal form
P * M * Q = D of the matrix M whose columns are the differences gives
their coordinates: P is unimodular and P * M = D * Q^-1 vanishes below
row r = rank(M), so the first r rows of P map the saturated lattice of
the span onto Z^r. In those coordinates the polytope is
full-dimensional; an incremental triangulation sums simplex
determinants, with each facet normal the signed maximal minors of its
edge vectors. All arithmetic is on integers; nothing is approximated.

The returned quantity is the lattice-normalized volume: dim! times the
Euclidean volume in the chosen coordinates. A single point counts 1.
"""

from __future__ import annotations

from math import prod

from .errors import InternalError, PreconditionError
from .exactmat import IntMatrix, _check_int, _echelon, _signed_minors, determinant, smith_normal_form

__all__ = ["LatticePolytope", "normalized_volume"]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _facet_normal(vertices, points, interior):
    """Integer normal (n, c) with n.x <= c on the polytope's side, for
    the facet spanned by the given vertex indices. interior is the sum
    of the r + 1 vertices of a full simplex in Z^r, so interior / (r + 1)
    lies strictly inside."""
    vs = [points[i] for i in vertices]
    base = vs[0]
    r = len(base)
    n = _signed_minors([tuple(a - b for a, b in zip(v, base)) for v in vs[1:]], r)
    if not any(n):
        raise InternalError("facet vertices do not span a hyperplane")
    c = _dot(n, base)
    side = _dot(n, interior) - (r + 1) * c
    if side == 0:
        raise InternalError("interior reference point lies on a facet plane")
    if side > 0:
        n = tuple(-x for x in n)
        c = -c
    return n, c


def _simplex_volume(vertex_points, apex):
    r = len(apex)
    rows = [tuple(v[j] - apex[j] for j in range(r)) for v in vertex_points]
    return abs(determinant(IntMatrix(rows)))


def _starting_simplex(points):
    """Indices of the greedy (leftmost) affinely independent points,
    starting at 0: the pivot columns of one echelon form whose columns
    are the differences p_i - p_0."""
    base = points[0]
    pivots, _ = _echelon([[p[j] - base[j] for p in points[1:]] for j in range(len(base))])
    return [0] + [i + 1 for i in pivots]


def _incremental_volume(points):
    """Normalized volume of full-dimensional conv(points) in Z^r."""
    r = len(points[0])
    chosen = _starting_simplex(points)
    if len(chosen) != r + 1:
        raise InternalError("points are not full-dimensional")

    interior = tuple(sum(points[i][j] for i in chosen) for j in range(r))
    volume = _simplex_volume([points[i] for i in chosen[:-1]], points[chosen[-1]])
    if volume <= 0:
        raise InternalError("starting simplex has no volume")

    facets = []
    for drop in range(r + 1):
        verts = frozenset(chosen[:drop] + chosen[drop + 1:])
        n, c = _facet_normal(sorted(verts), points, interior)
        facets.append((verts, n, c))

    for idx in range(len(points)):
        if idx in chosen:
            continue
        p = points[idx]
        visible = []
        for f in facets:
            verts, n, c = f
            if _dot(n, p) > c:
                visible.append(f)
        if not visible:
            continue
        for verts, _, _ in visible:
            volume += _simplex_volume([points[i] for i in sorted(verts)], p)
        # horizon ridges: (r-1)-subsets appearing in exactly one visible facet
        ridge_count = {}
        for verts, _, _ in visible:
            for drop in verts:
                ridge = verts - {drop}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        visible_set = {f[0] for f in visible}
        facets = [f for f in facets if f[0] not in visible_set]
        for ridge, count in ridge_count.items():
            if count != 1:
                continue
            verts = ridge | {idx}
            n, c = _facet_normal(sorted(verts), points, interior)
            facets.append((verts, n, c))
    return volume


class LatticePolytope:
    """Convex hull of finitely many integer points, with exact volume."""

    __slots__ = ("points", "_volume", "_index")

    def __init__(self, points):
        # distinct points, in the order of their first occurrence
        pts = tuple(dict.fromkeys(tuple(map(_check_int, p)) for p in points))
        if not pts:
            raise PreconditionError("a polytope needs at least one point")
        if len({len(p) for p in pts}) != 1:
            raise PreconditionError("points must share one ambient dimension")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_volume", None)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("LatticePolytope is immutable")

    @property
    def ambient_dim(self):
        return len(self.points[0])

    def translated_coordinates(self):
        """Points rewritten in a basis of the saturated lattice of their
        affine span.

        Returns (dimension, coordinate tuples); the originals are first
        translated by points[0]. Coordinate i of a point is row i of P
        times its difference, for P of the Smith form of the differences.
        The same Smith form gives lattice_index.
        """
        base = self.points[0]
        diffs = [tuple(a - b for a, b in zip(p, base)) for p in self.points[1:]]
        if not diffs:
            object.__setattr__(self, "_index", 1)
            return 0, [()]
        dec = smith_normal_form(IntMatrix(diffs).transpose())
        object.__setattr__(self, "_index", prod(dec.gamma))
        r = dec.rank
        coords = [(0,) * r]
        for d in diffs:
            x = dec.P.apply(d)
            if any(x[r:]):
                raise InternalError("a point difference leaves the span of the first rank rows of P")
            coords.append(x[:r])
        return r, coords

    @property
    def lattice_index(self):
        """Index of the lattice spanned by the point differences in its
        saturation, the product of their invariant factors; 1 for a
        single point. Free after normalized_volume()."""
        if self._index is None:
            self.translated_coordinates()
        return self._index

    def normalized_volume(self):
        """dim! times the Euclidean volume in saturated-lattice
        coordinates; 1 for a single point."""
        if self._volume is not None:
            return self._volume
        dim, coords = self.translated_coordinates()
        # the general path cannot take the empty coordinates of one point
        vol = 1 if dim == 0 else _incremental_volume(coords)
        object.__setattr__(self, "_volume", vol)
        return vol


def normalized_volume(points):
    return LatticePolytope(points).normalized_volume()
