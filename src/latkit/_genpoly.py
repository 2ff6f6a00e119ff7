"""Sparse multivariate polynomials with rational coefficients.

Supporting engine for the few operations that leave the binomial
world: colon by a polynomial divisor, intersections with non-binomial
ideals, and expanding syzygy identities. Polynomials are dicts mapping
exponent tuples to nonzero Fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .ideal import Binomial, MonomialOrder, _divides, _groebner

__all__ = [
    "poly_from_terms",
    "poly_from_binomial",
    "poly_add",
    "poly_sub",
    "poly_mul",
    "poly_scale",
    "reduced_basis",
    "normal_form",
    "ideals_equal",
    "intersect",
    "colon_by_poly",
    "exact_divide",
]


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


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        nc = out.get(e, Fraction(0)) + c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def poly_sub(p, q):
    out = dict(p)
    for e, c in q.items():
        nc = out.get(e, Fraction(0)) - c
        if nc:
            out[e] = nc
        else:
            out.pop(e, None)
    return out


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            nc = out.get(e, Fraction(0)) + c1 * c2
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
    return out


def poly_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


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
