"""Critical binomials in three variables: finding them, assembling a
zero-row-sum matrix generating a graded rank-2 lattice, hulls of 3x3
matrices with a positive kernel, and the structural checks that come
with zero row sums."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._genpoly import poly_add, poly_mul, poly_sub
from .errors import InternalError, IterationLimitError, PreconditionError
from .exactmat import IntMatrix, _ext_gcd
from .ideal import (
    Binomial,
    MonomialOrder,
    is_lattice_ideal,
    matrix_ideal,
    minimal_generator_count,
)
from .lattice import Lattice, grading_vector
from .matclass import _column_term_pair, classify

__all__ = [
    "CriticalBinomialSet",
    "critical_binomial",
    "cb_structure",
    "find_hull_gcb3",
    "CbPropertiesReport",
    "cb_properties_check",
]

DEFAULT_EXPONENT_CAP = 10**6


@dataclass(frozen=True)
class CriticalBinomialSet:
    """Full critical set of a graded rank-2 lattice in three variables.

    binomials[i] is the t_{i+1}-critical binomial in canonical form;
    pure_exponents[i] and tails[i] carry its oriented reading: one term
    is t_{i+1}^pure_exponents[i], the other is the monomial tails[i]
    supported off variable i. case is "a" (some critical binomial uses
    only two variables) or "b" (all three tails are full, with the
    bordering relations making the assembled matrix rows sum to zero).
    permutation maps assembled-matrix positions to original variables
    and is the identity in case "b".
    """

    binomials: tuple
    pure_exponents: tuple
    tails: tuple
    case: str
    permutation: tuple

    def __post_init__(self):
        if self.case not in ("a", "b") or sorted(self.permutation) != [0, 1, 2]:
            raise InternalError(f"critical set of case {self.case!r}, permutation {self.permutation}")
        for i in range(3):
            a, tail = self.pure_exponents[i], self.tails[i]
            pure = tuple(a if k == i else 0 for k in range(3))
            pair = {self.binomials[i].plus, self.binomials[i].minus}
            if a <= 0 or tail[i] != 0 or pair != {pure, tail}:
                raise InternalError(f"critical binomial {i + 1} is not t_{i + 1}^{a} minus {tail}")


def _graded_rank2(lat: Lattice):
    if lat.ambient_dim != 3:
        raise PreconditionError("critical binomials live in three variables")
    if lat.rank != 2:
        raise PreconditionError(f"lattice rank is {lat.rank}, need 2")
    d = grading_vector(lat.generator_matrix()) if lat.generators else None
    if d is None:
        raise PreconditionError("lattice admits no positive grading")
    return d


def _critical_data(lat: Lattice, index: int, max_exponent: int):
    """Minimal a with a*e_index - tail in lat (tail nonnegative off
    index), plus the GRevLex-smallest such tail. Searches a upward in
    steps of the index-coordinate gcd; for each a the solution set is
    a segment x0 + t*w0 and only its endpoints can carry the minimum."""
    row1, row2 = lat.basis()
    g, u, v = _ext_gcd(row1[index], row2[index])
    if g == 0:
        raise PreconditionError(
            "lattice touches the coordinate only trivially; no pure binomial"
        )
    # direction of the slice {x in lat : x_index = 0}
    w0 = tuple(
        (row2[index] // g) * x - (row1[index] // g) * y
        for x, y in zip(row1, row2)
    )
    if not any(w0):
        raise InternalError("a rank-2 lattice must meet the coordinate hyperplane")
    others = [c for c in range(3) if c != index]
    cmp = MonomialOrder.grevlex(3).compare

    for a in range(g, max_exponent + 1, g):
        m = a // g
        x0 = tuple(m * u * x + m * v * y for x, y in zip(row1, row2))
        lo = hi = None
        feasible = True
        for c in others:
            wc, xc = w0[c], x0[c]
            if wc == 0:
                if xc > 0:
                    feasible = False
                    break
            elif wc > 0:
                bound = (-xc) // wc
                hi = bound if hi is None else min(hi, bound)
            else:
                bound = -((-xc) // (-wc))  # ceil(xc / -wc)
                lo = bound if lo is None else max(lo, bound)
        if not feasible:
            continue
        if lo is None or hi is None:
            raise InternalError("a grading forces opposite slice signs, so both bounds exist")
        if lo > hi:
            continue

        def tail_at(t):
            x = tuple(a + t * b for a, b in zip(x0, w0))
            return tuple(-e if k != index else 0 for k, e in enumerate(x))

        best = tail_at(lo)
        if hi != lo:
            other = tail_at(hi)
            if cmp(other, best) < 0:
                best = other
        return a, best
    raise IterationLimitError(
        f"no critical binomial with exponent at most {max_exponent}"
    )


def critical_binomial(
    lat: Lattice, index: int, max_exponent: int = DEFAULT_EXPONENT_CAP
) -> Binomial:
    """The pure binomial of the lattice ideal whose plus term is the
    smallest possible positive power of the chosen variable."""
    _graded_rank2(lat)
    if index not in (0, 1, 2):
        raise PreconditionError("variable index must be 0, 1, or 2")
    a, tail = _critical_data(lat, index, max_exponent)
    pure = tuple(a if k == index else 0 for k in range(3))
    return Binomial(pure, tail)


def cb_structure(lat: Lattice, max_exponent: int = DEFAULT_EXPONENT_CAP):
    """Full critical set of the lattice plus an assembled matrix with
    positive diagonal, nonpositive off-diagonal, zero row sums, and
    column lattice equal to the input."""
    d = _graded_rank2(lat)
    data = [_critical_data(lat, i, max_exponent) for i in range(3)]
    binomials = tuple(
        Binomial(tuple(a if k == i else 0 for k in range(3)), tail)
        for i, (a, tail) in enumerate(data)
    )
    doubly = [i for i, (_, tail) in enumerate(data) if sum(1 for e in tail if e) == 1]

    if not doubly:
        # all tails full: columns are the critical vectors themselves
        cols = [
            tuple((a if k == i else 0) - tail[k] for k in range(3))
            for i, (a, tail) in enumerate(data)
        ]
        M = IntMatrix([[cols[j][i] for j in range(3)] for i in range(3)])
        case, perm = "b", (0, 1, 2)
    else:
        # some critical binomial uses two variables: build the matrix
        # from it and the critical binomial of the remaining variable
        def degree_of(i):
            return data[i][0] * d[i]

        p = min(doubly, key=lambda i: (degree_of(i), i))
        q = next(c for c in range(3) if data[p][1][c])
        r = next(c for c in range(3) if c not in (p, q))
        a1 = data[p][0]
        c3 = data[p][1][q]
        b2 = data[r][0]
        b1, b3 = data[r][1][p], data[r][1][q]
        k, b1 = divmod(b1, a1)
        b3 += k * c3
        new = [
            [a1, -b1, b1 - a1],
            [0, b2, -b2],
            [-c3, -b3, b3 + c3],
        ]
        pos = {p: 0, r: 1, q: 2}
        M = IntMatrix(
            [[new[pos[i]][pos[j]] for j in range(3)] for i in range(3)]
        )
        case, perm = "a", (p, r, q)

    if not (
        all(M.entry(i, i) > 0 for i in range(3))
        and all(M.entry(i, j) <= 0 for i in range(3) for j in range(3) if i != j)
        and all(sum(M.row(i)) == 0 for i in range(3))
    ):
        raise InternalError(f"assembled matrix {M.to_rows()} breaks the CB signs or zero row sums")
    if Lattice(3, [M.column(j) for j in range(3)]) != lat:
        raise InternalError("the assembled matrix must generate the same column lattice")

    cbset = CriticalBinomialSet(
        binomials=binomials,
        pure_exponents=tuple(a for a, _ in data),
        tails=tuple(tail for _, tail in data),
        case=case,
        permutation=perm,
    )
    return cbset, M


def find_hull_gcb3(L: IntMatrix, max_exponent: int = DEFAULT_EXPONENT_CAP):
    """Matrix with zero row sums generating the column lattice of a
    3x3 matrix with a positive kernel, together with the hull of its
    column ideal. By the structure theorem the hull is the matrix ideal
    of the new matrix, so no saturation runs; the tests compare it with
    the saturation of the column ideal."""
    if L.rows != 3 or L.cols != 3:
        raise PreconditionError("matrix must be 3x3")
    rep = classify(L)
    if not rep.generalized_critical:
        raise PreconditionError("matrix is not GCB")
    lat = Lattice(3, [L.column(j) for j in range(3)])
    if lat.rank != 2:
        raise InternalError(f"a 3x3 GCB matrix has rank 2, not {lat.rank}")
    _, M = cb_structure(lat, max_exponent)
    return M, matrix_ideal(M)


@dataclass(frozen=True)
class CbPropertiesReport:
    """Verified structural facts about a 3x3 zero-row-sum matrix ideal."""

    syzygies_hold: bool
    lattice_ideal: bool
    unmixed: bool
    minimal_generators: int
    complete_intersection: bool


def cb_properties_check(L: IntMatrix) -> CbPropertiesReport:
    """Expand the two cyclic syzygies of the column binomials exactly,
    then settle lattice-ideal status and the generator count (2 means
    complete intersection, 3 almost complete intersection)."""
    if L.rows != 3 or L.cols != 3:
        raise PreconditionError("matrix must be 3x3")
    rep = classify(L)
    if not rep.critical:
        raise PreconditionError("matrix rows must sum to zero with CB sign pattern")

    def mag(i, j):
        return abs(L.entry(i, j))

    # column binomials oriented with the diagonal power positive
    fs = [
        poly_sub({x: Fraction(1)}, {y: Fraction(1)})
        for x, y in (_column_term_pair(L, j) for j in range(3))
    ]

    def tmon(var, e):
        return {tuple(e if k == var else 0 for k in range(3)): Fraction(1)}

    first = poly_add(
        poly_add(
            poly_mul(tmon(1, mag(1, 2)), fs[0]),
            poly_mul(tmon(2, mag(2, 0)), fs[1]),
        ),
        poly_mul(tmon(0, mag(0, 1)), fs[2]),
    )
    second = poly_add(
        poly_add(
            poly_mul(tmon(2, mag(2, 1)), fs[0]),
            poly_mul(tmon(0, mag(0, 2)), fs[1]),
        ),
        poly_mul(tmon(1, mag(1, 0)), fs[2]),
    )
    if first or second:
        raise InternalError("the cyclic syzygies must expand to zero")

    I = matrix_ideal(L)
    d = rep.left_kernel_witness
    if d is None:
        raise InternalError("a zero-row-sum 3x3 matrix always admits a grading")
    # before is_lattice_ideal, whose GRevLex basis of I this run caches
    mu = minimal_generator_count(I, d)
    latt = is_lattice_ideal(I)
    if mu not in (2, 3):
        raise InternalError(f"a 3x3 CB ideal has 2 or 3 minimal generators, not {mu}")
    return CbPropertiesReport(
        syzygies_hold=True,
        lattice_ideal=latt,
        unmixed=latt,
        minimal_generators=mu,
        complete_intersection=(mu == 2),
    )
