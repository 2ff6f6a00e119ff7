"""Classification of square matrices whose columns define pure-power
binomials, with the transpose theorems, explicit syzygies, hulls, and
embedded components that come with the positive-kernel classes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._genpoly import _add_term, poly_add, poly_mul, poly_scale, poly_sub
from .errors import InternalError, PreconditionError
from .exactmat import IntMatrix, adjoint, rank as matrix_rank
from .graphs import WeightedDigraph
from .ideal import (
    Binomial,
    BinomialIdeal,
    is_lattice_ideal,
    matrix_ideal,
    saturate_variables,
    vanishing_condition,
)
from .lattice import grading_vector

__all__ = [
    "MatrixClassReport",
    "classify",
    "TransposeTheoremReport",
    "check_transpose_theorems",
    "underlying_digraph",
    "strongly_connected",
    "GcbEquivalenceReport",
    "gcb_vanishing_equivalence",
    "GpcbSyzygyData",
    "gpcb_syzygy",
    "gpcb_hull",
    "EmbeddedComponentData",
    "gpcb_embedded_component",
    "TwoVariableAnalysis",
    "analyze_2x2",
    "pb_not_lattice_check",
]


def _require_square(L: IntMatrix):
    if L.rows != L.cols:
        raise PreconditionError("matrix is not square")


@dataclass(frozen=True)
class MatrixClassReport:
    """Membership flags for the six matrix classes, plus the positive
    kernel witnesses that define the generalized classes.

    pure_binomial: positive diagonal, nonpositive off-diagonal, and no
        zero column off the diagonal, so each column j encodes
        t_j^{L_jj} minus a nonconstant monomial in the other variables.
    full_support: pure binomial with every off-diagonal entry nonzero.
    row_balanced: pure binomial with zero row sums (kernel contains 1).
    critical / generalized flags follow from those two axes.
    """

    pure_binomial: bool          # PB
    full_support_binomial: bool  # PPB
    critical: bool               # CB
    positive_critical: bool      # PCB
    generalized_critical: bool   # GCB
    generalized_positive: bool   # GPCB
    right_kernel_witness: tuple | None  # positive b with L b = 0, gcd 1
    left_kernel_witness: tuple | None   # positive c with c L = 0, gcd 1

    def __post_init__(self):
        # class inclusions are structural; a violation is a bug
        if (
            (self.positive_critical and not (self.critical and self.generalized_positive))
            or (self.generalized_positive
                and not (self.generalized_critical and self.full_support_binomial))
            or (self.critical and not self.generalized_critical)
            or (self.generalized_critical and not self.pure_binomial)
            or (self.full_support_binomial and not self.pure_binomial)
        ):
            raise InternalError(f"class flags break an inclusion: {self}")


def classify(L: IntMatrix) -> MatrixClassReport:
    """Decide all six class memberships of a square integer matrix.

    The positive-kernel searches are exact: a rank s-1 kernel is scaled
    to its primitive vector and checked for positivity, and lower-rank
    kernels go through Fourier-Motzkin elimination over the kernel
    basis. No floating point, no linear programming.
    """
    _require_square(L)
    return _class_flags(L, grading_vector(L.transpose()), grading_vector(L))


def _class_flags(L: IntMatrix, b, c) -> MatrixClassReport:
    """classify(L) given its right and left kernel witnesses b and c."""
    s = L.rows
    pb = (
        all(L.entry(i, i) >= 1 for i in range(s))
        and all(L.entry(i, j) <= 0 for i in range(s) for j in range(s) if i != j)
        # degenerate columns t_j^a - 1 are excluded: every column must
        # couple its variable to at least one other
        and all(
            any(L.entry(i, j) != 0 for i in range(s) if i != j) for j in range(s)
        )
    )
    full = all(L.entry(i, j) != 0 for i in range(s) for j in range(s) if i != j)
    cb = pb and all(sum(L.row(i)) == 0 for i in range(s))
    gcb = pb and b is not None
    return MatrixClassReport(
        pure_binomial=pb,
        full_support_binomial=pb and full,
        critical=cb,
        positive_critical=cb and full,
        generalized_critical=gcb,
        generalized_positive=gcb and full,
        right_kernel_witness=b,
        left_kernel_witness=c,
    )


def underlying_digraph(L: IntMatrix) -> WeightedDigraph:
    """Digraph with an arc i -> j for every nonzero entry L_ij; loops
    stay in (diagonal entries are nonzero for the PB classes)."""
    _require_square(L)
    s = L.rows
    arcs = [
        (i, j, abs(L.entry(i, j)))
        for i in range(s)
        for j in range(s)
        if L.entry(i, j) != 0
    ]
    return WeightedDigraph(s, arcs, allow_loops=True)


def strongly_connected(G: WeightedDigraph) -> bool:
    return G.is_strongly_connected()


@dataclass(frozen=True)
class TransposeTheoremReport:
    """Outcome of the transpose theorems on one matrix.

    Each *_holds field is None when its hypothesis does not apply,
    True when the predicted conclusion was verified. A False never
    escapes: a failed verification raises InternalError, with or
    without `python -O`, since it would contradict a proved statement.
    """

    source: MatrixClassReport
    transpose: MatrixClassReport
    rank: int
    strongly_connected: bool
    gpcb_transpose_holds: bool | None
    gcb_connected_transpose_holds: bool | None
    gcb_3x3_transpose_holds: bool | None


def check_transpose_theorems(L: IntMatrix) -> TransposeTheoremReport:
    """Verify the transpose statements that apply to L.

    GPCB matrices must have rank s-1 and a GPCB transpose; GCB matrices
    with strongly connected digraph must have a GCB transpose; 3x3 GCB
    matrices must have rank 2 and a GCB transpose.
    """
    _require_square(L)
    s = L.rows
    rep = classify(L)
    # L^T's witnesses are L's swapped: its right kernel is L's left kernel
    trep = _class_flags(L.transpose(), rep.left_kernel_witness, rep.right_kernel_witness)
    r = matrix_rank(L)
    sc = strongly_connected(underlying_digraph(L))

    gpcb_holds = None
    if rep.generalized_positive:
        gpcb_holds = r == s - 1 and trep.generalized_positive
        if not gpcb_holds:
            raise InternalError("GPCB transpose statement failed")
    gcb_sc_holds = None
    if rep.generalized_critical and sc:
        gcb_sc_holds = trep.generalized_critical
        if not gcb_sc_holds:
            raise InternalError("strongly connected GCB transpose statement failed")
    gcb3_holds = None
    if rep.generalized_critical and s == 3:
        gcb3_holds = r == 2 and trep.generalized_critical
        if not gcb3_holds:
            raise InternalError("3x3 GCB transpose statement failed")

    return TransposeTheoremReport(
        source=rep,
        transpose=trep,
        rank=r,
        strongly_connected=sc,
        gpcb_transpose_holds=gpcb_holds,
        gcb_connected_transpose_holds=gcb_sc_holds,
        gcb_3x3_transpose_holds=gcb3_holds,
    )


@dataclass(frozen=True)
class GcbEquivalenceReport:
    strongly_connected: bool
    transpose_vanishing_condition: bool
    adjoint_positive: bool


def gcb_vanishing_equivalence(L: IntMatrix) -> GcbEquivalenceReport:
    """Evaluate, on a GCB matrix, the three equivalent conditions:
    strong connectivity of the digraph, the vanishing condition of the
    transpose's column ideal, and strict positivity of adj(L)."""
    _require_square(L)
    rep = classify(L)
    if not rep.generalized_critical:
        raise PreconditionError("matrix is not GCB")
    a = strongly_connected(underlying_digraph(L))
    b = vanishing_condition(matrix_ideal(L.transpose()))
    adj = adjoint(L)
    c = all(
        adj.entry(i, j) > 0 for i in range(adj.rows) for j in range(adj.cols)
    )
    if not a == b == c:
        raise InternalError(f"the three GCB conditions disagree: {a}, {b}, {c}")
    return GcbEquivalenceReport(
        strongly_connected=a,
        transpose_vanishing_condition=b,
        adjoint_positive=c,
    )


def _column_term_pair(L: IntMatrix, i: int):
    """Exponent vectors (x_i, y_i) of the i-th column binomial
    f_i = t_i^{L_ii} - prod_{k != i} t_k^{-L_ki}."""
    s = L.rows
    x = tuple(L.entry(i, i) if k == i else 0 for k in range(s))
    y = tuple(0 if k == i else -L.entry(k, i) for k in range(s))
    return x, y


def _term_power_sum(x, y, count, weights=None):
    """Polynomial sum of w_j * x^(count-j) * y^(j-1) for j = 1..count
    (w_j = 1 when weights is None). Empty sum for count = 0."""
    out = {}
    for j in range(1, count + 1):
        e = tuple((count - j) * a + (j - 1) * b for a, b in zip(x, y))
        _add_term(out, e, Fraction(1 if weights is None else weights(j)))
    return out


@dataclass(frozen=True)
class GpcbSyzygyData:
    """Explicit syzygy data of a GPCB matrix with witness b.

    shifts[i] is the monomial exponent multiplying cofactors[i] * f_i
    in the telescoping relation sum_i t^shifts[i] cofactors[i] f_i = 0.
    cofactors[i] has b_i terms (the power-difference quotient
    (x^b - y^b)/(x - y) evaluated at the term pair of f_i) and
    quotients[i] satisfies quotients[i] * f_i =
    cofactors[i] - b_i * y_i^(b_i - 1).
    """

    witness: tuple
    cb_matrix: IntMatrix
    shifts: tuple
    term_pairs: tuple
    cofactors: tuple
    quotients: tuple


def _gpcb_shifts(L: IntMatrix):
    """(witness b, scaled matrix L diag(b), shift vectors) of a GPCB
    matrix. Raises PreconditionError when L is not GPCB; InternalError
    when b is not a primitive kernel vector or a shift coordinate comes
    out negative, which the witness check rules out."""
    _require_square(L)
    rep = classify(L)
    if not rep.generalized_positive:
        raise PreconditionError("matrix is not GPCB")
    s = L.rows
    b = rep.right_kernel_witness
    scaled = IntMatrix(
        [[L.entry(i, j) * b[j] for j in range(s)] for i in range(s)]
    )
    if gcd(*b) != 1 or any(sum(scaled.row(i)) for i in range(s)):
        raise InternalError(f"kernel witness {b} is not a primitive kernel vector")
    mag = [[abs(scaled.entry(i, j)) for j in range(s)] for i in range(s)]

    shifts = []
    for i in range(s):
        vec = []
        for k in range(s):
            if k == i or k == i + 1:
                vec.append(0)
            elif k < i:
                vec.append(mag[k][k] - sum(mag[k][j] for j in range(k + 1, i + 1)))
            else:
                vec.append(
                    mag[k][k]
                    - sum(mag[k][j] for j in range(k + 1, s))
                    - sum(mag[k][j] for j in range(i + 1))
                )
        # row k of L diag(b) sums to 0 with a positive diagonal and a
        # nonpositive rest, so mag[k][k] is the sum of the row's
        # off-diagonal magnitudes; each coordinate subtracts from it a
        # subset of them (columns k+1..i, or k+1..s-1 and 0..i, never k),
        # so none is negative
        if any(x < 0 for x in vec):
            raise InternalError(
                f"shift vector {i + 1} has a negative coordinate: {tuple(vec)}"
            )
        shifts.append(tuple(vec))
    return b, scaled, shifts


def gpcb_syzygy(L: IntMatrix) -> GpcbSyzygyData:
    """Construct the explicit relation data and verify both identities
    by exact polynomial expansion. Raises PreconditionError when L is
    not GPCB. The identities are algebraic, so an expansion that misses
    its predicted value is a bug and raises InternalError; nothing is
    guessed or clamped."""
    b, scaled, shifts = _gpcb_shifts(L)
    s = L.rows
    pairs = [_column_term_pair(L, i) for i in range(s)]
    cof = [_term_power_sum(x, y, b[i]) for i, (x, y) in enumerate(pairs)]
    quo = [
        _term_power_sum(x, y, b[i] - 1, weights=lambda j: j)
        for i, (x, y) in enumerate(pairs)
    ]

    # the identities fix the orientation x_i - y_i (diagonal power
    # positive); the canonical Binomial form may flip it, so build the
    # polynomials straight from the term pairs
    gens = [
        poly_sub({x: Fraction(1)}, {y: Fraction(1)}) for x, y in pairs
    ]
    total = {}
    for i in range(s):
        total = poly_add(total, poly_mul({shifts[i]: Fraction(1)}, poly_mul(cof[i], gens[i])))
    if total:
        raise InternalError("telescoping relation did not vanish")
    for i, (x, y) in enumerate(pairs):
        tail = {tuple((b[i] - 1) * v for v in y): Fraction(b[i])}
        want = poly_sub(cof[i], tail)
        if poly_mul(quo[i], gens[i]) != want:
            raise InternalError(f"reduction identity failed for column {i + 1}")

    return GpcbSyzygyData(
        witness=tuple(b),
        cb_matrix=scaled,
        shifts=tuple(shifts),
        term_pairs=tuple(pairs),
        cofactors=tuple(cof),
        quotients=tuple(quo),
    )


def gpcb_hull(L: IntMatrix) -> BinomialIdeal:
    """Lattice ideal of the column lattice of a GPCB matrix: the
    saturation of the column ideal. By the hull theorem it equals the
    one-step polynomial colon by the distinguished element
    t^shifts[s-1] * cofactors[s-1] of gpcb_syzygy; the tests hold that
    colon as the oracle, so none is computed here. Raises
    PreconditionError when L is not GPCB, as gpcb_syzygy does; the two
    identities are theorems and are expanded by gpcb_syzygy only."""
    _gpcb_shifts(L)
    return saturate_variables(matrix_ideal(L))


@dataclass(frozen=True)
class EmbeddedComponentData:
    """Decomposition I = hull ∩ component, where the component adds a
    single extra generator f (generally not a binomial) to I.

    The decomposition theorem asks that the colon by f stabilize,
    I : f = I : f^2; that always holds. By the hull theorem I : f is
    the hull, a lattice ideal, which over the rationals is radical and
    has no monomial in any of its primes. Every such prime holds the
    column binomial x - y of the last column, and modulo it f is a
    nonzero constant times a monomial, so f lies in none of them. Hence
    hull : f = hull and I : f^2 = hull : f = I : f.
    """

    column_ideal: BinomialIdeal
    hull: BinomialIdeal
    extra_generator: dict  # sparse polynomial t^shifts[s-1] * cofactors[s-1]


def gpcb_embedded_component(L: IntMatrix) -> EmbeddedComponentData:
    """Embedded primary component of the column ideal I of a GPCB matrix
    with at least 4 variables: I + (f), f = t^shifts[s-1] *
    cofactors[s-1]. Then I = hull ∩ (I + (f)) by the decomposition
    theorem, which the tests check by intersecting the two pieces.

    The theorem needs I : f = I : f^2, and no colon is computed for it
    because it always holds. By the hull theorem I : f = hull, the
    lattice ideal of the column lattice. In characteristic 0 a lattice
    ideal is radical and no monomial lies in any of its primes (Eisenbud
    and Sturmfels, "Binomial ideals", Duke Math. J. 84, 1996). Each such
    prime P holds the column binomial f_s = x - y of the last column, so
    modulo P the cofactor sum_j x^(b_s - j) y^(j - 1) is b_s y^(b_s - 1)
    and f is b_s t^shifts[s-1] y^(b_s - 1): a nonzero constant times a
    monomial, so f is not in P. The hull is the intersection of these
    primes, so hull : f = hull, and I : f^2 = (I : f) : f = hull : f =
    hull = I : f. The tests keep the two colons as an oracle.

    Raises PreconditionError, as gpcb_syzygy does, when L is not GPCB or
    has fewer than 4 rows; the syzygy identities are not expanded here.
    """
    _require_square(L)
    s = L.rows
    if s < 4:
        raise PreconditionError("embedded component needs at least 4 variables")
    b, _, shifts = _gpcb_shifts(L)
    x, y = _column_term_pair(L, s - 1)
    f = poly_mul({shifts[-1]: Fraction(1)}, _term_power_sum(x, y, b[-1]))
    I = matrix_ideal(L)
    return EmbeddedComponentData(column_ideal=I, hull=saturate_variables(I), extra_generator=f)


@dataclass(frozen=True)
class TwoVariableAnalysis:
    """Complete description of a 2x2 GPCB column ideal.

    The matrix factors as [[b2 c1, -b1 c1], [-b2 c2, b1 c2]] and the
    column binomials factor through h = t1^c1 - t2^c2, which generates
    the hull. All three verdict flags coincide and are equivalent to
    some b_i being 1.
    """

    witness: tuple
    hull_exponents: tuple
    hull_generator: Binomial
    cofactors: tuple
    principal: bool
    pcb_ideal: bool
    lattice_ideal: bool


def analyze_2x2(L: IntMatrix) -> TwoVariableAnalysis:
    _require_square(L)
    rep = classify(L)
    if L.rows != 2 or not rep.generalized_positive:
        raise PreconditionError("matrix is not a 2x2 GPCB")
    b1, b2 = rep.right_kernel_witness
    c1, r1 = divmod(L.entry(0, 0), b2)
    c2, r2 = divmod(L.entry(1, 1), b1)
    if r1 or r2 or L.to_rows() != [[b2 * c1, -b1 * c1], [-b2 * c2, b1 * c2]]:
        raise InternalError(f"a 2x2 GPCB matrix with witness {(b1, b2)} must factor through it")

    x, y = (c1, 0), (0, c2)
    h = Binomial(x, y)
    g1 = _term_power_sum(x, y, b2)
    g2 = _term_power_sum(x, y, b1)
    hp = poly_sub({x: Fraction(1)}, {y: Fraction(1)})
    cols = [
        poly_sub({xp: Fraction(1)}, {yp: Fraction(1)})
        for xp, yp in (_column_term_pair(L, 0), _column_term_pair(L, 1))
    ]
    if cols[0] != poly_mul(hp, g1) or cols[1] != poly_scale(poly_mul(hp, g2), -1):
        raise InternalError("the column binomials must factor through the hull generator")

    principal = b1 == 1 or b2 == 1
    lattice = is_lattice_ideal(matrix_ideal(L))
    if lattice != principal:
        raise InternalError(f"lattice-ideal verdict {lattice}, but principal is {principal}")
    return TwoVariableAnalysis(
        witness=(b1, b2),
        hull_exponents=(c1, c2),
        hull_generator=h,
        cofactors=(g1, g2),
        principal=principal,
        pcb_ideal=principal,
        lattice_ideal=lattice,
    )


def pb_not_lattice_check(L: IntMatrix) -> bool:
    """For a PB matrix whose column binomials all involve at least 4
    variables, the column ideal is never a lattice ideal. Returns the
    is-lattice verdict (necessarily False) after checking it."""
    _require_square(L)
    rep = classify(L)
    if not rep.pure_binomial:
        raise PreconditionError("matrix is not PB")
    s = L.rows
    for j in range(s):
        support = sum(1 for i in range(s) if L.entry(i, j) != 0)
        if support < 4:
            raise PreconditionError(
                f"column {j + 1} binomial involves {support} variables; need 4"
            )
    verdict = is_lattice_ideal(matrix_ideal(L))
    if verdict:
        raise InternalError("a PB ideal with full supports cannot be a lattice ideal")
    return verdict
