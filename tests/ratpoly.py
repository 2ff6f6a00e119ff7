"""The rational-polynomial Groebner engine, kept as a test oracle.

Sparse polynomials over the rationals (dicts mapping exponent tuples to
nonzero Fractions): reduced bases, normal forms, intersections and
colons by a polynomial through a tag variable. The library computes
with binomial ideals only; the tests use this engine to cross-check
results that the theorems settle, such as the GPCB hull as the colon
I : f by the distinguished element, its stabilization I : f = I : f^2,
and the decomposition I = hull ∩ (I + (f)).

_groebner and _interreduce are a Buchberger driver with the same pair
update as ideal._buchberger that takes the engine's element operations
as callables.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction

from latkit._genpoly import poly_scale, poly_sub
from latkit.errors import InternalError
from latkit.ideal import Binomial, MonomialOrder, _divides


def poly_from_terms(terms):
    out = {}
    for coeff, exp in terms:
        c = Fraction(coeff)
        if not c:
            continue
        e = tuple(int(x) for x in exp)
        nc = out.get(e, Fraction(0)) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def poly_from_binomial(b: Binomial):
    return {b.plus: Fraction(1), b.minus: Fraction(-1)}


def _groebner(elements, lead, s_reduce, reduce, sort_key, degree=sum):
    """(reduced Groebner basis, surviving inputs) by Buchberger's
    algorithm: normal selection strategy, the Gebauer-Moeller pair
    update, then minimalization and tail reduction.

    Elements are opaque to the driver. lead(e) is the leading exponent
    tuple of e; s_reduce(f, g) is the S-element of f and g, or None when
    it vanishes outright; reduce(e, basis) is the normalized normal form
    of e modulo basis, or None when that is zero; sort_key orders the
    result; degree(m) is a positive grading. The input must be
    normalized and free of duplicates.

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
    basis = []
    leads = []
    active = []  # indices into basis, increasing
    live = []  # the active elements, in the same order
    pairs = []

    def update(e):
        n = len(basis)
        ln = lead(e)
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
            s = s_reduce(basis[i], basis[j])
            if s is not None:
                s = reduce(s, live)
                if s is not None:
                    update(s)

    survivors = 0
    for d, e in sorted(((degree(lead(e)), e) for e in elements), key=operator.itemgetter(0)):
        process_pairs(d)
        e = reduce(e, live)
        if e is not None:
            update(e)
            survivors += 1
    process_pairs(math.inf)
    return _interreduce(live, lead, reduce, sort_key), survivors


def _interreduce(keep, lead, reduce, sort_key):
    """The reduced Groebner basis from a minimal one (no lead divides
    another): tail reduction and the final sort, with _groebner's
    element operations. _groebner's active elements are minimal already:
    an element joins only after reduction by them, and joining drops
    those whose lead its own lead divides."""
    reduced = []
    for idx, e in enumerate(keep):
        r = reduce(e, keep[:idx] + keep[idx + 1:])
        if r is None or lead(r) != lead(e):
            raise InternalError("lead of a minimal element must survive")
        reduced.append(r)
    reduced.sort(key=sort_key)
    return reduced


def _leading(p, cmp):
    best = None
    for e in p:
        if best is None or cmp(e, best) > 0:
            best = e
    return best


def normal_form(p, basis, order: MonomialOrder):
    """Full division remainder of p modulo the basis polynomials."""
    cmp = order.compare
    return _remainder(p, [(_leading(g, cmp), g) for g in basis if g], cmp)


def _remainder(p, pairs, cmp):
    """normal_form against (lead, polynomial) pairs whose leads are known."""
    rem = {}
    work = dict(p)
    while work:
        lt = _leading(work, cmp)
        lc = work[lt]
        for lg, g in pairs:
            if _divides(lg, lt):
                shift = tuple(a - b for a, b in zip(lt, lg))
                factor = lc / g[lg]
                for e, c in g.items():
                    e2 = tuple(a + b for a, b in zip(e, shift))
                    nc = work.get(e2, Fraction(0)) - factor * c
                    if nc:
                        work[e2] = nc
                    else:
                        work.pop(e2, None)
                break
        else:
            rem[lt] = lc
            del work[lt]
    return rem


def _spoly(fe, ge):
    """S-polynomial of two (lead, polynomial) pairs."""
    lf, f = fe
    lg, g = ge
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    out = {}
    cf = Fraction(1) / f[lf]
    for e, c in f.items():
        e2 = tuple(a + b for a, b in zip(e, sf))
        out[e2] = out.get(e2, Fraction(0)) + c * cf
    cg = Fraction(1) / g[lg]
    for e, c in g.items():
        e2 = tuple(a + b for a, b in zip(e, sg))
        nc = out.get(e2, Fraction(0)) - c * cg
        if nc:
            out[e2] = nc
        else:
            out.pop(e2, None)
    return out


def reduced_basis(gens, order: MonomialOrder):
    """Reduced (monic, auto-reduced) Groebner basis; deterministic."""
    cmp = order.compare

    def monic(p):
        """(lead, p scaled to lead coefficient 1), or None for p = 0."""
        if not p:
            return None
        lead = _leading(p, cmp)
        return lead, poly_scale(p, Fraction(1) / p[lead])

    basis = []
    for g in gens:
        g = monic(g)
        if g is not None and g not in basis:
            basis.append(g)
    reduced, _ = _groebner(
        basis,
        operator.itemgetter(0),
        lambda f, g: monic(_spoly(f, g)),
        lambda e, others: monic(_remainder(e[1], others, cmp)),
        lambda e: _poly_key(e[1]),
    )
    return [p for _, p in reduced]


def _poly_key(p):
    return sorted(p.items())


def ideals_equal(gens_a, gens_b, num_vars):
    order = MonomialOrder.grevlex(num_vars)
    return reduced_basis(gens_a, order) == reduced_basis(gens_b, order)


def _tag_eliminate(tagged, num_vars):
    """Eliminate the last variable from the tagged system, return the
    y-free polynomials truncated back to num_vars variables."""
    order = MonomialOrder.elimination(num_vars + 1, (num_vars,))
    basis = reduced_basis(tagged, order)
    out = []
    for g in basis:
        if all(e[num_vars] == 0 for e in g):
            out.append({e[:num_vars]: c for e, c in g.items()})
    return out


def intersect(gens_a, gens_b, num_vars):
    """Generators of (gens_a) intersected with (gens_b), via a tag
    variable: y A + (1 - y) B, then eliminate y."""
    tagged = []
    y = (0,) * num_vars + (1,)
    for f in gens_a:
        tagged.append({e + (1,): c for e, c in f.items()})
    for g in gens_b:
        t = {e + (0,): c for e, c in g.items()}
        t = poly_sub(t, {e + (1,): c for e, c in g.items()})
        tagged.append(t)
    return _tag_eliminate(tagged, num_vars)


def exact_divide(f, g, order: MonomialOrder):
    """Quotient f / g when g divides f; raises if the division fails."""
    cmp = order.compare
    if not f:
        return {}
    q = {}
    work = dict(f)
    lg = _leading(g, cmp)
    cg = g[lg]
    while work:
        lt = _leading(work, cmp)
        if not _divides(lg, lt):
            raise ArithmeticError("polynomial division is not exact")
        shift = tuple(a - b for a, b in zip(lt, lg))
        factor = work[lt] / cg
        q[shift] = q.get(shift, Fraction(0)) + factor
        for e, c in g.items():
            e2 = tuple(a + b for a, b in zip(e, shift))
            nc = work.get(e2, Fraction(0)) - factor * c
            if nc:
                work[e2] = nc
            else:
                work.pop(e2, None)
    return {e: c for e, c in q.items() if c}


def colon_by_poly(gens, divisor, num_vars):
    """Generators of ((gens) : divisor) for a single polynomial divisor."""
    if not divisor:
        raise ValueError("colon by the zero polynomial")
    order = MonomialOrder.grevlex(num_vars)
    inter = intersect(gens, [divisor], num_vars)
    return [exact_divide(f, divisor, order) for f in inter]
