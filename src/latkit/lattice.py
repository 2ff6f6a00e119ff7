"""Integer lattices in Z^s and their finite quotient invariants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import InternalError, PreconditionError
from .exactmat import (
    IntMatrix,
    _check_int,
    _echelon,
    _signed_minors,
    hermite_rows,
    integer_kernel,
    invariant_factors,
    smith_normal_form,
)

__all__ = [
    "Lattice",
    "FiniteAbelianGroup",
    "critical_group",
    "torsion_order",
    "saturation",
    "defining_matrix",
    "grading_vector",
    "positive_lattice_vector",
    "homogenize_vector",
    "homogenize_lattice",
    "p_saturation",
]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form: each factor >= 2 and divides the next."""

    invariant_factors: tuple

    def __post_init__(self):
        f = self.invariant_factors
        if any(x < 2 for x in f):
            raise ValueError("invariant factors must be >= 2")
        if any(b % a for a, b in zip(f, f[1:])):
            raise ValueError("factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors


class Lattice:
    """Subgroup of Z^s given by a finite (possibly redundant) generator list."""

    __slots__ = ("ambient_dim", "generators", "_hnf")

    def __init__(self, ambient_dim, generators):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        gens = tuple(tuple(map(_check_int, g)) for g in generators)
        if any(len(g) != ambient_dim for g in gens):
            raise ValueError("generator length must equal the ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_hnf", None)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def basis(self) -> tuple:
        """Hermite-form basis rows; canonical for the lattice."""
        if self._hnf is None:
            object.__setattr__(
                self, "_hnf", hermite_rows(self.generators, self.ambient_dim)
            )
        return self._hnf

    @property
    def rank(self) -> int:
        return len(self.basis())

    def generator_matrix(self) -> IntMatrix:
        """s x m matrix whose columns are the generators (needs m >= 1)."""
        if not self.generators:
            raise PreconditionError("lattice has no generators")
        return IntMatrix(
            [[g[i] for g in self.generators] for i in range(self.ambient_dim)]
        )

    def contains(self, vector) -> bool:
        v = list(vector)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row in self.basis():
            j = next(t for t in range(self.ambient_dim) if row[t] != 0)
            if v[j] % row[j]:
                return False
            c = v[j] // row[j]
            if c:
                for t in range(j, self.ambient_dim):
                    v[t] -= c * row[t]
        return not any(v)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self.basis() == other.basis()
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis()))

    def __repr__(self):
        return f"Lattice(Z^{self.ambient_dim}, {len(self.generators)} generators, rank {self.rank})"


def critical_group(lat: Lattice) -> FiniteAbelianGroup:
    """Torsion subgroup of Z^s / lat in invariant-factor form."""
    if not lat.generators:
        return FiniteAbelianGroup(())
    # the generators as rows: generator_matrix() transposed, same factors
    gamma = invariant_factors(IntMatrix._trusted(lat.generators))
    return FiniteAbelianGroup(tuple(g for g in gamma if g > 1))


def torsion_order(lat: Lattice) -> int:
    return critical_group(lat).order


def defining_matrix(lat: Lattice) -> IntMatrix:
    """(s-r) x s matrix A of rank s-r with lat inside ker_Z(A).

    Construction: complete a lattice basis to a Q-basis of Q^s by
    greedily appending standard basis vectors (the pivot columns of one
    echelon form of [basis^T | I_s] are the greedy choice), then take,
    for each appended vector, the primitive integer normal of the hyperplane
    spanned by the remaining s-1 basis vectors: their signed maximal
    minors divided by their gcd, sign fixed by making the first nonzero
    entry positive. The result depends only on the
    lattice, not on the generator list, since the greedy completion and
    each hyperplane are determined by the span. ker_Z(A) is exactly the
    saturation of lat. Requires rank(lat) < s.
    """
    s = lat.ambient_dim
    if lat.rank == s:
        raise PreconditionError("lattice has full rank; no defining matrix")
    base = lat.basis()
    r = len(base)
    # one row per coordinate: the basis vectors, then e_1, ..., e_s, as columns
    pivots, _ = _echelon([[b[i] for b in base] + [int(i == j) for j in range(s)] for i in range(s)])
    full = list(base) + [tuple(int(p - r == j) for j in range(s)) for p in pivots[r:]]
    out = []
    for idx in range(r, s):
        w = _signed_minors([full[t] for t in range(s) if t != idx], s)
        if not any(w):
            raise InternalError("basis completion does not span Q^s")
        g = gcd(*w)
        w = [x // g for x in w]
        first = next(x for x in w if x != 0)
        if first < 0:
            w = [-x for x in w]
        out.append(w)
    return IntMatrix(out)


def saturation(lat: Lattice) -> Lattice:
    """Smallest saturated lattice containing lat (same rank, torsion-free
    quotient)."""
    s = lat.ambient_dim
    if lat.rank == s:
        return Lattice(s, [tuple(r) for r in IntMatrix.identity(s)])
    a = defining_matrix(lat)
    return Lattice(s, integer_kernel(a))


def positive_lattice_vector(basis, length):
    """Strictly positive integer vector in the span of `basis`, primitive,
    or None. Exact Fourier-Motzkin feasibility; intended for saturated
    spans (the basis of an integer kernel), where primitivity is safe.
    """
    basis = [tuple(b) for b in basis]
    if not basis:
        return None
    k = len(basis)
    if k == 1:
        v = basis[0]
        if all(x > 0 for x in v):
            pass
        elif all(x < 0 for x in v):
            v = tuple(-x for x in v)
        else:
            return None
        g = gcd(*v)
        return tuple(x // g for x in v)
    # constraints: sum_i basis_i[j] * z_i >= 1 for each coordinate j
    constraints = [
        (tuple(basis[i][j] for i in range(k)), 1) for j in range(length)
    ]
    stages = []
    for var in range(k):
        pos = [c for c in constraints if c[0][var] > 0]
        neg = [c for c in constraints if c[0][var] < 0]
        zero = [c for c in constraints if c[0][var] == 0]
        stages.append((var, pos, neg))
        nxt = list(zero)
        for pa, pb in pos:
            for na, nb in neg:
                f1, f2 = -na[var], pa[var]
                coeffs = tuple(f1 * a + f2 * b for a, b in zip(pa, na))
                nxt.append((coeffs, f1 * pb + f2 * nb))
        constraints = nxt
    if any(rhs > 0 for _, rhs in constraints):
        return None
    # back-substitute a rational point
    z = [Fraction(0)] * k
    for var, pos, neg in reversed(stages):
        lo, hi = None, None
        for coeffs, rhs in pos:
            rest = sum(Fraction(coeffs[i]) * z[i] for i in range(k) if i != var)
            bound = (Fraction(rhs) - rest) / coeffs[var]
            lo = bound if lo is None or bound > lo else lo
        for coeffs, rhs in neg:
            rest = sum(Fraction(coeffs[i]) * z[i] for i in range(k) if i != var)
            bound = (Fraction(rhs) - rest) / coeffs[var]
            hi = bound if hi is None or bound < hi else hi
        if lo is not None:
            z[var] = lo
        elif hi is not None:
            z[var] = hi
    scale = lcm(*(q.denominator for q in z))
    zi = [int(q * scale) for q in z]
    vec = [sum(zi[i] * basis[i][j] for i in range(k)) for j in range(length)]
    if not all(x > 0 for x in vec):
        raise InternalError(f"back substitution gave {vec}, not a positive vector")
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def grading_vector(mat: IntMatrix):
    """Primitive d in N_+^s with d*mat = 0, or None when no strictly
    positive left-kernel vector exists. Unique when rank(mat) = s-1."""
    left = integer_kernel(mat.transpose())
    return positive_lattice_vector(left, mat.rows)


def homogenize_vector(a):
    """Append a balancing coordinate so the total sum is zero.

    Vectors with negative coordinate sum are negated first, so the
    appended entry is always <= 0.
    """
    a = tuple(map(_check_int, a))
    total = sum(a)
    if total < 0:
        a = tuple(-x for x in a)
        total = -total
    return a + (-total,)


def homogenize_lattice(lat: Lattice) -> Lattice:
    return Lattice(
        lat.ambient_dim + 1, [homogenize_vector(g) for g in lat.generators]
    )


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def p_saturation(lat: Lattice, p: int) -> Lattice:
    """Lattice of all vectors with some p-power multiple in lat.

    Strips the p-part from every invariant factor; the index of lat in
    the result is a power of p.
    """
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if not lat.generators:
        return lat
    mat = lat.generator_matrix()
    dec = smith_normal_form(mat)
    # P*mat*Q = diag(gamma), so column i of mat*Q is gamma_i times
    # column i of P^-1; dividing by the p-part of gamma_i strips it
    cols = mat * dec.Q
    gens = []
    for i, g in enumerate(dec.gamma):
        q = 1
        while g % p == 0:
            g //= p
            q *= p
        col = cols.column(i)
        if any(x % q for x in col):
            raise InternalError(f"p-part {q} does not divide column {col}")
        gens.append(tuple(x // q for x in col))
    return Lattice(lat.ambient_dim, gens)
