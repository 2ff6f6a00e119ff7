"""Closed-form degree computations for lattice and matrix ideals.

Each routine implements an exact arithmetic formula (group orders,
normalized volumes, gcds of minors); the Groebner-based
`ideal.affine_degree` serves as the independent oracle in the test
suite. Every division checks exactness first and raises InternalError
when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InternalError, PreconditionError
from .exactmat import IntMatrix, _check_int, _signed_minors, minor_gcd
from .ideal import matrix_ideal, vanishing_condition
from .lattice import Lattice, defining_matrix, grading_vector, torsion_order
from .volume import LatticePolytope

__all__ = [
    "degree_toric",
    "degree_lattice",
    "degree_lattice_breakdown",
    "DegreeBreakdown",
    "degree_graded_dim1",
    "degree_dim1_from_basis",
    "Dim1BasisResult",
    "degree_matrix_ideal",
]


def _volume_and_torsion(mat: IntMatrix) -> tuple:
    """(normalized volume of conv(0, columns), |T(Z^rows / column
    lattice)|) from one Smith form: the torsion is the polytope's
    lattice_index, since the differences from 0 are the distinct
    nonzero columns and span the column lattice."""
    poly = LatticePolytope([(0,) * mat.rows] + [mat.column(j) for j in range(mat.cols)])
    return poly.normalized_volume(), poly.lattice_index


def degree_toric(V: IntMatrix) -> int:
    """Degree of the toric ideal of the point configuration given by the
    columns of V: normalized volume of conv(0, columns) divided by the
    torsion of the column group."""
    vol, tor = _volume_and_torsion(V)
    if vol % tor:
        raise InternalError(f"normalized volume {vol} is not divisible by the column torsion {tor}")
    return vol // tor


@dataclass(frozen=True)
class DegreeBreakdown:
    """Degree of a lattice ideal together with the formula's factors.

    For a full-rank lattice the degree is the whole group order and the
    volume factors do not apply (None)."""

    degree: int
    torsion_order: int
    normalized_volume: int | None
    defining_torsion: int | None


def degree_lattice_breakdown(lat: Lattice) -> DegreeBreakdown:
    s = lat.ambient_dim
    r = lat.rank
    tor = torsion_order(lat)
    if r == s:
        return DegreeBreakdown(tor, tor, None, None)
    vol, dtor = _volume_and_torsion(defining_matrix(lat))
    if (tor * vol) % dtor:
        raise InternalError(f"defining torsion {dtor} does not divide {tor} * {vol}")
    return DegreeBreakdown(tor * vol // dtor, tor, vol, dtor)


def degree_lattice(lat: Lattice) -> int:
    return degree_lattice_breakdown(lat).degree


def degree_graded_dim1(lat: Lattice, d) -> int:
    """Degree of a graded dimension-1 lattice ideal:
    max(d) * torsion / gcd(d)."""
    d = tuple(map(_check_int, d))
    s = lat.ambient_dim
    if len(d) != s or any(x <= 0 for x in d):
        raise PreconditionError("grading must be a strictly positive vector")
    for g in lat.generators:
        if sum(a * b for a, b in zip(d, g)) != 0:
            raise PreconditionError("lattice is not homogeneous for the grading")
    if lat.rank != s - 1:
        raise PreconditionError(f"rank {lat.rank}, expected {s - 1}")
    num = max(d) * torsion_order(lat)
    den = gcd(*d)
    if num % den:
        raise InternalError(f"degree formula {num} / {den} is not integral")
    return num // den


@dataclass(frozen=True)
class Dim1BasisResult:
    """Signed maximal minors of a rank s-1 basis and the degree they
    determine: max over {v_i, 0} minus min over {v_i, 0}."""

    minors: tuple
    degree: int


def degree_dim1_from_basis(basis) -> Dim1BasisResult:
    vectors = [tuple(map(_check_int, v)) for v in basis]
    if not vectors:
        raise PreconditionError("empty basis")
    s = len(vectors[0])
    if len(vectors) != s - 1 or any(len(v) != s for v in vectors):
        raise PreconditionError(f"need {s - 1} vectors of length {s}")
    # minor i carries the sign (-1)^(i+1)
    minors = [-m if s % 2 else m for m in _signed_minors(vectors, s)]
    if not any(minors):
        raise PreconditionError("basis is rank deficient")
    hi = max(max(minors), 0)
    lo = min(min(minors), 0)
    return Dim1BasisResult(tuple(minors), hi - lo)


def degree_matrix_ideal(L: IntMatrix) -> int:
    """Degree of a graded matrix ideal satisfying the vanishing
    condition: max(d) times the gcd of the (s-1)-minors."""
    if not L.is_square:
        raise PreconditionError("matrix ideal degree needs a square matrix")
    s = L.rows
    d = grading_vector(L)
    if d is None:
        raise PreconditionError("no positive grading for the columns")
    if gcd(*d) != 1:
        raise InternalError(f"grading vector {d} is not primitive")
    if not vanishing_condition(matrix_ideal(L)):
        raise PreconditionError("vanishing condition fails")
    return max(d) * minor_gcd(L, s - 1)
