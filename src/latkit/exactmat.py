"""Exact integer matrices and normal forms.

Everything here is arbitrary-precision integer arithmetic: Smith and
Hermite normal forms, determinants, adjoints, minor gcds, and saturated
integer kernels. No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InternalError, PreconditionError

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "determinant",
    "smith_normal_form",
    "invariant_factors",
    "hermite_rows",
    "minor_gcd",
    "adjoint",
    "integer_kernel",
    "rank",
]


def _check_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an int, got {type(x).__name__}")
    return x


class IntMatrix:
    """Immutable integer matrix with at least one row and one column."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(_check_int(x) for x in row) for row in rows_of_entries)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", w)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def _trusted(cls, rows_of_entries):
        """Matrix of equal-length non-empty rows of ints, built without
        the entry and shape checks of IntMatrix(...); for results
        computed from already checked matrices."""
        data = tuple(map(tuple, rows_of_entries))
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        object.__setattr__(m, "_data", data)
        return m

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix needs at least one row and one column")
        return cls._trusted([int(i == j) for j in range(n)] for i in range(n))

    def entry(self, i, j):
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def to_rows(self):
        return [list(r) for r in self._data]

    @property
    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return IntMatrix._trusted(zip(*self._data))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose()._data
        return IntMatrix._trusted(
            [sum(a * b for a, b in zip(row, col)) for col in bt] for row in self._data
        )

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._data)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __iter__(self):
        return iter(self._data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self._data)
        return f"IntMatrix({self.rows}x{self.cols}: {body})"


def _echelon(a):
    """Bring the integer rows a, in place, to row echelon form by
    fraction-free (Bareiss) elimination with row pivoting, and return
    (pivot columns, sign of the row permutation). No rows, or rows of
    length 0, give ([], 1).

    Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968. With the rows in
    their swapped order, after k pivots entry (i, j) of a row not yet
    pivoted is the (k + 1) x (k + 1) minor on the k pivot rows and row
    i, the k pivot columns and column j, and prev is the k x k minor on
    the pivot rows and columns. By Sylvester's identity each division
    by prev is exact. Pivot r is the minor on rows 0..r and the first
    r + 1 pivot columns; for a square matrix of full rank the last one
    is sign * determinant.
    """
    height = len(a)
    width = len(a[0]) if a else 0
    pivots, sign, prev = [], 1, 1
    r = 0
    for col in range(width):
        if r == height:
            break
        if not a[r][col]:
            piv = next((i for i in range(r + 1, height) if a[i][col]), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for row in a[r + 1:]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
        r += 1
    return pivots, sign


def determinant(mat: IntMatrix) -> int:
    """Exact determinant: the last pivot of one Bareiss elimination."""
    if not mat.is_square:
        raise PreconditionError("determinant requires a square matrix")
    a = mat.to_rows()
    pivots, sign = _echelon(a)
    return sign * a[-1][-1] if len(pivots) == mat.rows else 0


@dataclass(frozen=True)
class SnfDecomposition:
    """Unimodular P, Q with P*L*Q diagonal (None when not asked for),
    and the invariant factors gamma_1 | gamma_2 | ..., the positive
    diagonal entries in divisibility order; rank == len(gamma).
    """

    P: IntMatrix
    Q: IntMatrix
    gamma: tuple
    rank: int

    def diagonal_matrix(self, rows, cols):
        d = [[0] * cols for _ in range(rows)]
        for i, g in enumerate(self.gamma):
            d[i][i] = g
        return IntMatrix._trusted(d)


def _min_pivot(a, k, s, m):
    """(i, j) of the first entry of least absolute value in rows
    k..s-1, columns k..m-1 of a, row by row; None when all are zero."""
    best, at = 0, None
    for i in range(k, s):
        row = a[i]
        for j in range(k, m):
            v = abs(row[j])
            if v and (v < best or not best):
                if v == 1:
                    return i, j
                best, at = v, (i, j)
    return at


def _diagonalize(a, s, m) -> tuple:
    """Bring the top-left s x m block of the integer rows a, in place,
    to diag(gamma_1, ..., gamma_r, 0, ...), gamma_1 | gamma_2 | ... all
    positive, and return (gamma_1, ..., gamma_r). Each pivot is the
    first entry of least absolute value left in the block; 2 x 2
    gcd/lcm fixes then enforce the divisibility chain. Row operations
    span the full width of a and column operations its full height, so
    a bordered [[M, I_s], [I_m, 0]] ends as [[D, P], [Q, 0]] with
    P*M*Q = D. Raises InternalError when a fix breaks Bezout or the
    block does not end as such a diagonal.
    """
    limit = min(s, m)
    k = 0
    while k < limit:
        found = _min_pivot(a, k, s, m)
        if found is None:
            break
        i0, j0 = found
        if i0 != k:
            a[k], a[i0] = a[i0], a[k]
        if j0 != k:
            for row in a:
                row[k], row[j0] = row[j0], row[k]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
        top = a[k]
        piv = top[k]
        dirty = False
        for i in range(k + 1, s):
            c = a[i][k] // piv
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], top)]
                dirty = dirty or a[i][k] != 0
        # column ops change only the rows that are nonzero in column k
        live = [row for row in a if row[k]]
        for j in range(k + 1, m):
            c = top[j] // piv
            if c:
                for row in live:
                    row[j] -= c * row[k]
                dirty = dirty or top[j] != 0
        if not dirty:
            k += 1  # else smaller remainders appeared: reselect the pivot

    for i in range(k):
        for j in range(i + 1, k):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            g, x, y = _ext_gcd(di, dj)
            if x * di + y * dj != g or di % g or dj % g:
                raise InternalError(f"no Bezout pair for gcd({di}, {dj}) in the Smith elimination")
            bi, bj = di // g, dj // g
            # U = [[x, y], [-bj, bi]] on rows i,j; V = [[1, -y*bj], [1, x*bi]] on cols i,j
            _apply_2x2_rows(a, i, j, x, y, -bj, bi)
            _apply_2x2_cols(a, i, j, 1, -y * bj, 1, x * bi)

    gamma = tuple(a[i][i] for i in range(k))
    if any(v for i in range(s) for j, v in enumerate(a[i][:m]) if i != j or i >= k):
        raise InternalError("the Smith elimination left an entry off the diagonal")
    if any(g <= 0 for g in gamma) or any(v % u for u, v in zip(gamma, gamma[1:])):
        raise InternalError(f"Smith invariant factors {gamma} are not a positive divisibility chain")
    return gamma


def invariant_factors(rows) -> tuple:
    """smith_normal_form(..., transforms=False).gamma of the matrix with
    these rows (no rows, or rows of length 0, give ()): its rank is
    len(gamma), Z^s / (column span) has torsion Z/gamma_1 + ... +
    Z/gamma_r, and its transpose has the same invariant factors."""
    if not isinstance(rows, IntMatrix):
        rows = [tuple(r) for r in rows]
        if not any(rows):
            return ()
        rows = IntMatrix(rows)
    return smith_normal_form(rows, transforms=False).gamma


def smith_normal_form(mat: IntMatrix, transforms: bool = True) -> SnfDecomposition:
    """Smith normal form with unimodular transforms: P*mat*Q == D.

    One elimination of the bordered matrix [[mat, I_s], [I_m, 0]]:
    the row operations build P in its top-right block and the column
    operations Q in its bottom-left block. transforms=False eliminates
    mat alone, with the same pivots, and leaves P and Q None.
    """
    s, m = mat.rows, mat.cols
    if not transforms:
        gamma = _diagonalize(mat.to_rows(), s, m)
        return SnfDecomposition(P=None, Q=None, gamma=gamma, rank=len(gamma))
    a = [list(row) + [int(i == t) for t in range(s)] for i, row in enumerate(mat)]
    a += [[int(i == t) for t in range(m)] + [0] * s for i in range(m)]
    gamma = _diagonalize(a, s, m)
    P = IntMatrix._trusted(row[m:] for row in a[:s])
    Q = IntMatrix._trusted(row[:m] for row in a[s:])
    return SnfDecomposition(P=P, Q=Q, gamma=gamma, rank=len(gamma))


def _ext_gcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _apply_2x2_rows(m, i, j, a11, a12, a21, a22):
    ri, rj = m[i], m[j]
    m[i] = [a11 * u + a12 * v for u, v in zip(ri, rj)]
    m[j] = [a21 * u + a22 * v for u, v in zip(ri, rj)]


def _apply_2x2_cols(m, i, j, a11, a12, a21, a22):
    # right multiplication by [[a11, a12], [a21, a22]] restricted to cols i, j
    for row in m:
        u, v = row[i], row[j]
        row[i] = u * a11 + v * a21
        row[j] = u * a12 + v * a22


def rank(mat: IntMatrix) -> int:
    return len(_echelon(mat.to_rows())[0])


def minor_gcd(mat: IntMatrix, i: int) -> int:
    """gcd of all i x i minors; 0 when every such minor vanishes."""
    if i < 1 or i > min(mat.rows, mat.cols):
        raise PreconditionError(f"minor size {i} out of range")
    gamma = invariant_factors(mat)
    if i > len(gamma):
        return 0
    return prod(gamma[:i])


def adjoint(mat: IntMatrix) -> IntMatrix:
    """Adjugate: mat * adjoint(mat) == determinant(mat) * identity.

    Column j is (-1)^(n-1+j) times the signed maximal minors of the rows
    other than row j: n eliminations, not n^2 cofactor determinants."""
    if not mat.is_square:
        raise PreconditionError("adjoint requires a square matrix")
    n = mat.rows
    rows = mat.to_rows()
    cols = []
    for j in range(n):
        w = _signed_minors(rows[:j] + rows[j + 1:], n)
        cols.append([-x for x in w] if (n - 1 + j) % 2 else w)
    return IntMatrix._trusted(zip(*cols))


def _signed_minors(rows, n) -> tuple:
    """Normal of n - 1 integer rows of length n: entry i is
    (-1)^(n-1+i) times the maximal minor without column i, the last
    column of adjoint(M) for M the rows with any row appended. It is
    orthogonal to every row and zero exactly when the rows are
    dependent; n = 1 (no rows) gives (1,).

    One Bareiss elimination, O(n^3), brings the rows to echelon form
    with n - 1 pivot columns and one free column c, or finds them
    dependent. The last pivot is +-det(B), B the rows without column c,
    so with w_c set to it the integer kernel vector w follows by back
    substitution, each division exact because w is +-the normal.
    """
    a = [list(r) for r in rows]
    if len(a) != n - 1 or any(len(r) != n for r in a):
        raise PreconditionError(f"need {n - 1} rows of length {n}")
    if n == 1:
        return (1,)
    pivots, sign = _echelon(a)
    if len(pivots) < n - 1:
        return (0,) * n
    free = next(c for c in range(n) if c not in pivots)
    w = [0] * n
    w[free] = a[-1][pivots[-1]]
    for k in range(n - 2, -1, -1):
        row, p = a[k], pivots[k]
        w[p] = -sum(row[j] * w[j] for j in range(p + 1, n)) // row[p]
    if sign * (-1) ** (n - 1 + free) < 0:
        w = [-x for x in w]
    return tuple(w)


def integer_kernel(mat: IntMatrix) -> list:
    """Basis of {x in Z^cols : mat @ x = 0}.

    The kernel of an integer matrix is a saturated subgroup, so the
    returned basis spans it exactly; full column rank gives [].
    """
    dec = smith_normal_form(mat)
    return [dec.Q.column(j) for j in range(dec.rank, mat.cols)]


def hermite_rows(rows, width) -> tuple:
    """Canonical row Hermite form of the integer row span.

    Returns the nonzero rows as tuples: pivots positive and strictly to
    the right as you go down, entries above each pivot reduced into
    [0, pivot). Two row sets span the same lattice iff their forms are
    equal. An empty span gives ().
    """
    work = []
    for r in rows:
        r = list(r)
        if len(r) != width:
            raise ValueError("row width mismatch")
        if any(r):
            work.append(r)
    result = []
    for col in range(width):
        if not work:
            break
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                c = r[col] // piv[col]
                if c:
                    for t in range(col, width):
                        r[t] -= c * piv[t]
            live = [r for r in live if r[col] != 0]
        piv = live[0]
        if piv[col] < 0:
            for t in range(col, width):
                piv[t] = -piv[t]
        result.append(piv)
        work = [r for r in work if r is not piv and any(r)]
    # reduce entries above each pivot
    pivots = []
    for r in result:
        j = next(t for t in range(width) if r[t] != 0)
        pivots.append(j)
    # sweep pivots left to right: reducing at a pivot column only touches
    # columns to its right, so earlier normalizations stay intact
    for idx in range(len(result)):
        j = pivots[idx]
        piv = result[idx]
        for upper in range(idx):
            c = result[upper][j] // piv[j]
            if c:
                for t in range(j, width):
                    result[upper][t] -= c * piv[t]
    return tuple(tuple(r) for r in result)
