"""Binomial ideals over the rationals with exact Groebner machinery.

All ideal arithmetic stays inside the class of pure-difference
binomials t^a - t^b. Coefficients never leave {1, -1}, so everything is
exact integer arithmetic, and no such ideal is the unit ideal: each
vanishes at (1, ..., 1).

Internally an element is a pair (lead, tail) of exponent tuples with
lead != tail, oriented so lead is the larger monomial in the active
order. None stands only for a binomial that reduced to zero.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator

from ._genpoly import poly_add
from .errors import InternalError, IterationLimitError, PreconditionError
from .exactmat import IntMatrix, _check_int

__all__ = [
    "Monomial",
    "Binomial",
    "BinomialIdeal",
    "MonomialOrder",
    "matrix_ideal",
    "saturate_variables",
    "is_lattice_ideal",
    "colon_saturation",
    "homogenize_ideal",
    "affine_degree",
    "vanishing_condition",
    "minimal_generator_count",
]


def format_monomial(exponents):
    parts = (f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(exponents) if e)
    return "*".join(parts) or "1"


class Monomial:
    """Monomial t^a with a in N^s."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        exps = tuple(map(_check_int, exponents))
        if any(x < 0 for x in exps):
            raise ValueError("monomial exponents must be nonnegative")
        object.__setattr__(self, "exponents", exps)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def degree(self):
        return sum(self.exponents)

    def _same_dim(self, other):
        if len(self.exponents) != len(other.exponents):
            raise ValueError("monomial ambient dimension mismatch")

    def __mul__(self, other):
        self._same_dim(other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other):
        self._same_dim(other)
        return _divides(self.exponents, other.exponents)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return format_monomial(self.exponents)


def _grevlex_cmp(a, b):
    """1 if t^a > t^b, -1 if smaller, 0 if equal."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    if a == b:
        return 0
    # the larger monomial has the smaller last differing exponent
    return 1 if a[::-1] < b[::-1] else -1


def _block_picker(indices):
    """Map an exponent tuple to its entries at the given indices."""
    if len(indices) >= 2:
        return operator.itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda a: (a[i],)
    return lambda a: ()


class MonomialOrder:
    """Graded reverse lexicographic order, or an elimination block order
    (GRevLex inside each block, eliminated block compared first)."""

    __slots__ = ("num_vars", "eliminated", "_key", "compare")

    def __init__(self, num_vars, eliminated=()):
        elim = tuple(sorted(set(eliminated)))
        if any(i < 0 or i >= num_vars for i in elim):
            raise ValueError("eliminated index out of range")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "eliminated", elim)
        object.__setattr__(self, "_key", ("elim", num_vars, elim) if elim else ("grevlex", num_vars))
        if not elim:
            object.__setattr__(self, "compare", _grevlex_cmp)
        else:
            pick_elim = _block_picker(elim)
            pick_rest = _block_picker(tuple(i for i in range(num_vars) if i not in set(elim)))

            def compare(a, b):
                c = _grevlex_cmp(pick_elim(a), pick_elim(b))
                return c or _grevlex_cmp(pick_rest(a), pick_rest(b))

            object.__setattr__(self, "compare", compare)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    @classmethod
    def grevlex(cls, num_vars):
        return cls(num_vars)

    @classmethod
    def elimination(cls, num_vars, eliminated):
        return cls(num_vars, eliminated)

    @property
    def cache_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class Binomial:
    """Pure difference of two monomials, t^plus - t^minus.

    The stored orientation is canonical: plus is the GRevLex-leading
    monomial. Built from a vector v in Z^s, plus and minus have
    disjoint supports (v+, v-).
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        p = tuple(map(_check_int, plus))
        m = tuple(map(_check_int, minus))
        if len(p) != len(m):
            raise ValueError("exponent length mismatch")
        if any(x < 0 for x in p + m):
            raise ValueError("exponents must be nonnegative")
        if p == m:
            raise ValueError("the two monomials of a binomial must differ")
        if _grevlex_cmp(p, m) < 0:
            p, m = m, p
        object.__setattr__(self, "plus", p)
        object.__setattr__(self, "minus", m)

    def __setattr__(self, name, value):
        raise AttributeError("Binomial is immutable")

    @classmethod
    def from_vector(cls, vector):
        v = tuple(map(_check_int, vector))
        if not any(v):
            raise ValueError("zero vector does not define a binomial")
        plus = tuple(x if x > 0 else 0 for x in v)
        minus = tuple(-x if x < 0 else 0 for x in v)
        return cls(plus, minus)

    @property
    def vector(self):
        return tuple(p - m for p, m in zip(self.plus, self.minus))

    @property
    def ambient_dim(self):
        return len(self.plus)

    def degree_under(self, weights):
        return sum(w * e for w, e in zip(weights, self.plus))

    def is_homogeneous(self, weights):
        return self.degree_under(weights) == sum(
            w * e for w, e in zip(weights, self.minus)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Binomial)
            and self.plus == other.plus
            and self.minus == other.minus
        )

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __lt__(self, other):
        c = _grevlex_cmp(self.plus, other.plus)
        if c == 0:
            c = _grevlex_cmp(self.minus, other.minus)
        return c < 0

    def __repr__(self):
        return f"{format_monomial(self.plus)} - {format_monomial(self.minus)}"


# ---------------------------------------------------------------------------
# engine: elements are (lead, tail) binomials; None is zero


def _orient(a, b, cmp):
    c = cmp(a, b)
    if c == 0:
        return None
    return (a, b) if c > 0 else (b, a)


def _divides(a, b):
    return all(map(operator.le, a, b))


def _reduce_element(elem, basis, cmp):
    """Full normal form of elem against basis; None when it reduces to 0."""
    lead, tail = elem
    while True:
        for lb, tb in basis:
            if _divides(lb, lead):
                new = tuple(l - a + b for l, a, b in zip(lead, lb, tb))
                pair = _orient(new, tail, cmp)
                if pair is None:
                    return None
                lead, tail = pair
                break
        else:
            break
    while True:
        for lb, tb in basis:
            if _divides(lb, tail):
                tail = tuple(t - a + b for t, a, b in zip(tail, lb, tb))
                break
        else:
            return (lead, tail)


def _spair(f, g, cmp):
    lf, tf = f
    lg, tg = g
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    a = tuple(t + c - l for t, c, l in zip(tf, lcm, lf))
    b = tuple(t + c - l for t, c, l in zip(tg, lcm, lg))
    return _orient(b, a, cmp)


def _buchberger(gens, cmp, degree=sum):
    """(reduced Groebner basis, surviving inputs) of the given (lead, tail)
    elements under cmp by Buchberger's algorithm: normal selection
    strategy, the Gebauer-Moeller pair update, then minimalization and
    tail reduction. degree(m) is a positive grading.

    An input of degree d is reduced against the basis, and joins it if
    it survives, only after every pair of degree <= d. For an ideal
    homogeneous under the grading, the survivors then number
    sum_d dim I_d / (I_<d)_d, the minimal number of generators by graded
    Nakayama (Kreuzer and Robbiano, "Computational Commutative Algebra
    2", 2005).

    The update (Gebauer and Moeller, "On an installation of Buchberger's
    algorithm", JSC 1988) runs once per element joining the basis, so a
    pair the chain criterion would discard never enters the heap. An
    element is active while no later lead divides its lead; the active
    elements have the same lead ideal as the whole basis, so new pairs
    and reductions use only them.
    """
    elements = []
    for lead, tail in gens:
        e = _orient(lead, tail, cmp)
        if e is not None and e not in elements:
            elements.append(e)
    basis = []
    leads = []
    active = []  # indices into basis, increasing
    live = []  # the active elements, in the same order
    pairs = []

    def update(e):
        n = len(basis)
        ln = e[0]
        # old pairs (i, j) with ln | lcm(i, j) are covered by (i, n) and
        # (j, n) unless one of those has the same lcm (criterion B)
        kept = [
            p for p in pairs
            if not _divides(ln, p[1])
            or p[1] == tuple(map(max, leads[p[2]], ln))
            or p[1] == tuple(map(max, leads[p[3]], ln))
        ]
        if len(kept) < len(pairs):
            heapq.heapify(kept)
            pairs[:] = kept
        # new pairs (k, n), one per lcm (criterion F), in order of degree
        # so that a strictly dividing lcm is seen first (criterion M)
        groups = {}
        for k in active:
            l = tuple(map(max, leads[k], ln))
            coprime = l == tuple(map(operator.add, leads[k], ln))
            if l in groups:
                groups[l][1] |= coprime
            else:
                groups[l] = [k, coprime]
        minimal = []
        for l, (k, coprime) in sorted(groups.items(), key=lambda g: sum(g[0])):
            d = sum(l)
            if any(dm < d and _divides(m, l) for dm, m in minimal):
                continue
            minimal.append((d, l))
            # a group holding a pair with disjoint leading supports is
            # dropped whole (product criterion)
            if not coprime:
                heapq.heappush(pairs, (degree(l), l, k, n))
        keep = [k for k in active if not _divides(ln, leads[k])]
        if len(keep) < len(active):
            active[:] = keep
            live[:] = [basis[k] for k in keep]
        basis.append(e)
        leads.append(ln)
        active.append(n)
        live.append(e)

    def process_pairs(bound):
        while pairs and pairs[0][0] <= bound:
            _, _, i, j = heapq.heappop(pairs)
            s = _spair(basis[i], basis[j], cmp)
            if s is not None:
                s = _reduce_element(s, live, cmp)
                if s is not None:
                    update(s)

    survivors = 0
    for d, e in sorted(((degree(e[0]), e) for e in elements), key=operator.itemgetter(0)):
        process_pairs(d)
        e = _reduce_element(e, live, cmp)
        if e is not None:
            update(e)
            survivors += 1
    process_pairs(math.inf)
    return _interreduce(live, cmp), survivors


def _interreduce(keep, cmp):
    """The reduced Groebner basis from a minimal one (no lead divides
    another): tail reduction and the final sort. _buchberger's active
    elements are minimal already: an element joins only after reduction
    by them, and joining drops those whose lead its own lead divides."""
    reduced = []
    for idx, e in enumerate(keep):
        r = _reduce_element(e, keep[:idx] + keep[idx + 1:], cmp)
        if r is None or r[0] != e[0]:
            raise InternalError("lead of a minimal element must survive")
        reduced.append(r)
    reduced.sort(key=_sort_key)
    return reduced


def _sort_key(elem):
    lead, tail = elem
    return (sum(lead), tuple(-x for x in reversed(lead)), tail)


# ---------------------------------------------------------------------------
# public ideal type


class BinomialIdeal:
    """Ideal generated by pure-difference binomials in s variables.

    Reduced Groebner bases are cached per monomial order, and the
    saturation by the variables once computed; the reduced GRevLex basis
    is the canonical form used for equality tests. Threads may share an
    ideal: the cache is written only through dict.setdefault, so every
    caller gets the first stored value.
    """

    __slots__ = ("ambient_dim", "generators", "_cache")

    def __init__(self, ambient_dim, generators):
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Binomial):
                raise TypeError("generators must be Binomial instances")
            if g.ambient_dim != ambient_dim:
                raise ValueError("generator ambient dimension mismatch")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("BinomialIdeal is immutable")

    def _elements(self):
        return [(g.plus, g.minus) for g in self.generators]

    def _gb_elements(self, order: MonomialOrder):
        hit = self._cache.get(order.cache_key)
        if hit is None:
            basis, _ = _buchberger(self._elements(), order.compare)
            hit = self._prime_cache(order, basis)
        return hit

    def _prime_cache(self, order, basis):
        return self._cache.setdefault(order.cache_key, basis)

    def reduced_groebner(self, order=None):
        if order is None:
            order = MonomialOrder.grevlex(self.ambient_dim)
        elif order.num_vars != self.ambient_dim:
            raise ValueError("monomial order ambient dimension mismatch")
        return tuple(Binomial(l, t) for l, t in self._gb_elements(order))

    def contains(self, binomial: Binomial) -> bool:
        if binomial.ambient_dim != self.ambient_dim:
            raise ValueError("binomial ambient dimension mismatch")
        order = MonomialOrder.grevlex(self.ambient_dim)
        basis = self._gb_elements(order)
        return _reduce_element((binomial.plus, binomial.minus), basis, order.compare) is None

    def __eq__(self, other):
        # Binomial(lead, tail) keeps a GRevLex-oriented pair as it is, so
        # this compares the reduced GRevLex bases
        if not isinstance(other, BinomialIdeal) or self.ambient_dim != other.ambient_dim:
            return False
        order = MonomialOrder.grevlex(self.ambient_dim)
        return self._gb_elements(order) == other._gb_elements(order)

    def __hash__(self):
        return hash((self.ambient_dim, self.reduced_groebner()))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators)
        return f"BinomialIdeal(s={self.ambient_dim}; {gens})"


def matrix_ideal(mat: IntMatrix) -> BinomialIdeal:
    """Ideal generated by one binomial per matrix column (t^{c+} - t^{c-})."""
    gens = []
    for j in range(mat.cols):
        col = mat.column(j)
        if not any(col):
            raise PreconditionError(f"column {j + 1} is zero; no binomial")
        gens.append(Binomial.from_vector(col))
    return BinomialIdeal(mat.rows, gens)


def _eliminate_marker(elems, s):
    """Reduced basis of elems, which live in s + 1 variables, under the
    order that eliminates the last (marker) variable. Returns the
    marker-free elements truncated to the first s variables."""
    order = MonomialOrder.elimination(s + 1, (s,))
    return [
        (lead[:s], tail[:s])
        for lead, tail in _buchberger(elems, order.compare)[0]
        if not lead[s] and not tail[s]
    ]


# cache key of the saturation by the variables; order keys are tuples
_SATURATION = "saturation"
# cached in place of a saturation that is the ideal itself, which would
# otherwise make the ideal reference itself
_ITSELF = "itself"


def saturate_variables(ideal: BinomialIdeal) -> BinomialIdeal:
    """(I : (t_1 ... t_s)^inf), the lattice ideal of the generators' vectors.

    Idempotent; the result equals the input iff the input is already a
    lattice ideal. Computed once per ideal object and cached on it; the
    result is recorded as its own saturation. An ideal homogeneous in
    the standard grading for which the vanishing condition holds is
    saturated by t_s alone, by one division of its cached GRevLex basis;
    any other ideal by one marker elimination. See _saturate_by_monomial.
    """
    hit = ideal._cache.get(_SATURATION)
    if hit is None:
        sat = _saturate_by_monomial(ideal, (1,) * ideal.ambient_dim)
        if sat is ideal:
            sat = _ITSELF
        else:
            sat._cache.setdefault(_SATURATION, _ITSELF)
        hit = ideal._cache.setdefault(_SATURATION, sat)
    return ideal if hit is _ITSELF else hit


def is_lattice_ideal(ideal: BinomialIdeal) -> bool:
    return ideal == saturate_variables(ideal)


def _saturate_by_monomial(ideal: BinomialIdeal, exponent) -> BinomialIdeal:
    """(I : (t^e)^inf), with its reduced GRevLex basis as generators.

    When e involves every variable, the generators have equal total
    degree on both sides and the vanishing condition holds, the
    saturation by t_s alone is enough, and it comes from I's cached
    GRevLex basis. Bayer-Stillman ("A criterion for detecting
    m-regularity", Invent. Math. 87, 1987): in GRevLex, where t_s is
    last, dividing every element of a Groebner basis of a homogeneous I
    by its power of t_s gives a Groebner basis of J = I : t_s^inf. An
    associated prime P of J that contains some t_j has V(P) inside
    V(I + (t_j)) = {0}, so P would be the maximal ideal, which contains
    t_s, a nonzerodivisor modulo J. So no variable lies in an associated
    prime of J, and J = I : (t_1 ... t_s)^inf. Every other ideal takes
    the marker elimination (_saturate_by_marker).
    """
    s = ideal.ambient_dim
    e = tuple(map(_check_int, exponent))
    if len(e) != s or any(x < 0 for x in e) or not any(e):
        raise PreconditionError("saturation divisor must be a nonconstant monomial")
    if not ideal.generators:
        return ideal
    if (
        all(e)
        and all(g.is_homogeneous((1,) * s) for g in ideal.generators)
        and vanishing_condition(ideal)
    ):
        divided = _divide_out_last(ideal._gb_elements(MonomialOrder.grevlex(s)))
        # dividing can make one lead divide another: keep the first
        # element of each minimal lead
        minimal = set(_minimalize(l for l, _ in divided))
        kept = []
        for elem in divided:
            if elem[0] in minimal:
                minimal.remove(elem[0])
                kept.append(elem)
        kept = _interreduce(kept, _grevlex_cmp)
    else:
        kept = _saturate_by_marker(ideal, e)
    return _ideal_of_grevlex_basis(s, kept)


def _ideal_of_grevlex_basis(s, basis):
    """The ideal with the sorted reduced GRevLex basis as generators,
    that basis cached on it."""
    out = BinomialIdeal(s, [Binomial(l, t) for l, t in basis])
    out._prime_cache(MonomialOrder.grevlex(s), basis)
    return out


def _lattice_ideal_of(s, elems):
    """The ideal generated by (plus, minus) exponent pairs in s variables
    that the caller knows to generate a lattice ideal: one GRevLex
    Buchberger run, its reduced basis as generators and cached, and the
    ideal recorded as its own saturation, as saturate_variables records
    its results."""
    out = _ideal_of_grevlex_basis(s, _buchberger(elems, _grevlex_cmp)[0])
    out._cache.setdefault(_SATURATION, _ITSELF)
    return out


def _saturate_by_marker(ideal: BinomialIdeal, e):
    """Reduced GRevLex basis of (I : (t^e)^inf), sorted: adjoins a marker w
    with t^e w - 1 and eliminates it."""
    s = ideal.ambient_dim
    elems = [(g.plus + (0,), g.minus + (0,)) for g in ideal.generators]
    elems.append((e + (1,), (0,) * (s + 1)))
    kept = _eliminate_marker(elems, s)
    # the block order restricted to the surviving variables is GRevLex,
    # so the kept elements are already the reduced GRevLex basis
    return sorted(kept, key=_sort_key)


def _divide_out_last(basis):
    """Each (lead, tail) divided by the power of the last variable in its
    lead. For an element of equal total degrees led in GRevLex, that
    power also divides the tail; an element where it does not is a bug."""
    out = []
    for lead, tail in basis:
        k = lead[-1]
        if k:
            if tail[-1] < k:
                raise InternalError(
                    f"last variable divides the lead {lead} more than the tail {tail}"
                )
            lead = lead[:-1] + (0,)
            tail = tail[:-1] + (tail[-1] - k,)
        out.append((lead, tail))
    return out


def colon_saturation(ideal: BinomialIdeal, h_exponent, max_power=10000):
    """((I : h^inf), a) for a monomial h = t^e: the saturation together
    with the least a such that (I : h^a) equals it, at most max_power.

    I : h^a lies in sat, so it equals sat iff h^a g lies in I for every
    generator g of sat, which stays true as a grows: a is the largest
    least a_g, each test one reduction by I's cached GRevLex basis.
    """
    sat = _saturate_by_monomial(ideal, h_exponent)
    e = tuple(map(_check_int, h_exponent))
    a = 0
    for g in sat.generators:
        # h^a g
        while not ideal.contains(
            Binomial(*(tuple(x + a * y for x, y in zip(m, e)) for m in (g.plus, g.minus)))
        ):
            a += 1
            if a > max_power:
                raise IterationLimitError("colon powers did not stabilize within the cap")
    return sat, a


def homogenize_ideal(ideal: BinomialIdeal) -> BinomialIdeal:
    """Homogenization with one extra last variable, computed by
    homogenizing the reduced GRevLex basis (which stays a reduced basis)."""
    s = ideal.ambient_dim
    if not ideal.generators:
        return BinomialIdeal(s + 1, [])
    order = MonomialOrder.grevlex(s)
    basis = ideal._gb_elements(order)
    gens = []
    elems = []
    for lead, tail in basis:
        delta = sum(lead) - sum(tail)
        if delta < 0:
            raise InternalError(f"GRevLex lead {lead} has lower degree than its tail {tail}")
        l2, t2 = lead + (0,), tail + (delta,)
        gens.append(Binomial(l2, t2))
        elems.append((l2, t2))
    out = BinomialIdeal(s + 1, gens)
    out._prime_cache(MonomialOrder.grevlex(s + 1), sorted(elems, key=_sort_key))
    return out


# ---------------------------------------------------------------------------
# Hilbert series of a monomial ideal, for the degree pipeline


def _add_shifted(p, q, d, c):
    """p + c t^d q, for polynomials as dicts degree -> nonzero coefficient."""
    return poly_add(p, {k + d: c * v for k, v in q.items()})


def _minimalize(gens):
    """The minimal elements of gens under divisibility, in increasing
    lexicographic order. A divisor precedes its multiples in that order."""
    out = []
    for g in sorted(set(gens)):
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def _hilbert_numerator(gens):
    """Numerator N of the Hilbert series N / (1 - t)^n of S/(gens), for
    exponent vectors gens of monomials in n variables, as a dict degree
    -> nonzero coefficient; the unit ideal gives {}.

    Bigatti's pivot ("Computation of Hilbert-Poincare series", JPAA 119,
    1997): for a monomial p = x_i^e outside I,
        N(I) = N(I + (p)) + t^e N(I : p).
    x_i is the variable in the most generators and e the median of its
    exponents among the generators holding it that are not pure powers
    of x_i. When no variable is in two generators, their supports are
    disjoint and N = prod (1 - t^deg g). The recursion runs on an
    explicit stack.
    """
    values = []
    stack = [(_minimalize(gens), 0)]
    while stack:
        node, e = stack.pop()
        if e:
            # both children are done: the colon's numerator is on top
            colon = values.pop()
            values.append(_add_shifted(values.pop(), colon, e, 1))
            continue
        counts = [len(node) - col.count(0) for col in zip(*node)]
        top = max(counts, default=0)
        if top >= 2:
            i = counts.index(top)
            exps = sorted(g[i] for g in node if 0 < g[i] < sum(g))
            e = exps[len(exps) // 2]
            # x_i^e is not in I: a pure power x_i^f among the minimal
            # generators has f above every other exponent of x_i. So
            # I + (x_i^e) is minimally generated by x_i^e and the
            # generators with fewer than e factors x_i.
            plus = [g for g in node if g[i] < e]
            bisect.insort(plus, tuple(e if j == i else 0 for j in range(len(counts))))
            # the generators of I : x_i^e that keep some x_i form an
            # antichain; only those without x_i can divide another
            low, high = [], []
            for g in node:
                if g[i] <= e:
                    low.append(g[:i] + (0,) + g[i + 1:])
                else:
                    high.append(g[:i] + (g[i] - e,) + g[i + 1:])
            low = _minimalize(low)
            high = [h for h in high if not any(_divides(l, h) for l in low)]
            stack.append((None, e))
            stack.append((tuple(sorted(low + tuple(high))), 0))
            stack.append((tuple(plus), 0))
            continue
        out = {0: 1}
        for g in node:
            out = _add_shifted(out, out, sum(g), -1)
        values.append(out)
    return values.pop()


def affine_degree(ideal: BinomialIdeal):
    """(dimension, degree) of the quotient by the ideal, computed through
    the graded data of the homogenized initial ideal.

    The Hilbert series numerator of the initial ideal (the GRevLex
    leads; `_hilbert_numerator`, Bigatti's pivot on an explicit stack)
    is divided by (1 - t) until it no longer vanishes at 1; what remains
    evaluates to the degree, and the number of cancellations fixes the
    dimension.
    This is the oracle the closed-form degree routines are checked
    against.
    """
    s = ideal.ambient_dim
    order = MonomialOrder.grevlex(s)
    leads = tuple(lead for lead, _ in ideal._gb_elements(order))
    num = _hilbert_numerator(leads)
    # divide by (1 - t) while the numerator vanishes at t = 1
    cancels = 0
    while num and sum(num.values()) == 0:
        num = _divide_one_minus_t(num)
        cancels += 1
    degree = sum(num.values())
    if degree <= 0:
        raise InternalError(f"Hilbert numerator gives degree {degree}")
    # the homogenized ring has s + 1 variables; its Krull dimension is
    # s + 1 - cancels, and the affine dimension is one less
    return (s - cancels, degree)


def _divide_one_minus_t(num):
    """Exact division of a polynomial (dict degree -> coeff) by (1 - t)."""
    if not num:
        return {}
    deg = max(num)
    # p_d = q_d - q_{d-1} with q_deg = 0, so q_{d-1} = q_d - p_d
    q = {}
    qd = 0
    for d in range(deg, 0, -1):
        qd -= num.get(d, 0)
        if qd:
            q[d - 1] = qd
    if qd != num.get(0, 0):
        raise InternalError("polynomial not divisible by (1 - t)")
    return q


def vanishing_condition(ideal: BinomialIdeal) -> bool:
    """True iff every variable vanishes on the zero set of I + (t_i) for
    every i, that is, iff every zero of I with a zero coordinate is the
    origin.

    Decided from supports (Eisenbud and Sturmfels, "Binomial ideals",
    Duke Math. J. 84, 1996): I has a zero with support exactly sigma iff
    for every generator t^a - t^b, supp(a) lies in sigma exactly when
    supp(b) does (set the coordinates in sigma to 1). Such sets are
    closed under intersection, so the condition fails iff the least one
    holding some variable j is nonempty and proper. That least set grows
    from {j}: a generator with one side's support inside it forces the
    other side's support in.
    """
    s = ideal.ambient_dim
    everything = (1 << s) - 1
    sides = [
        tuple(sum(1 << k for k, x in enumerate(m) if x) for m in (g.plus, g.minus))
        for g in ideal.generators
    ]
    for j in range(s):
        sigma = 1 << j
        grown = True
        while grown:
            grown = False
            for a, b in sides:
                if (a & sigma == a) != (b & sigma == b):
                    sigma |= a | b
                    grown = True
        if sigma != everything:
            return False
    return True


def minimal_generator_count(ideal: BinomialIdeal, weights) -> int:
    """Number of minimal generators, for an ideal homogeneous under the
    given positive integer grading: the inputs that survive one GRevLex
    Buchberger run under that grading (see _buchberger), whose basis fills
    the ideal's GRevLex cache.
    """
    d = tuple(map(_check_int, weights))
    if len(d) != ideal.ambient_dim or any(x <= 0 for x in d):
        raise PreconditionError("grading must be strictly positive")
    for g in ideal.generators:
        if not g.is_homogeneous(d):
            raise PreconditionError("ideal is not homogeneous under the grading")
    basis, count = _buchberger(
        ideal._elements(), _grevlex_cmp, lambda m: sum(map(operator.mul, d, m)))
    ideal._prime_cache(MonomialOrder.grevlex(ideal.ambient_dim), basis)
    return count
