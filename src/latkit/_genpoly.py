"""Sparse multivariate polynomial arithmetic with rational coefficients.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.
`cb3` and `matclass` expand their syzygy and factorization identities
with these four operations; `ideal` sums Hilbert numerators with
`poly_add`. The only Groebner engine is the binomial one in `ideal`.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["poly_add", "poly_sub", "poly_mul", "poly_scale"]


def _add_term(out, e, c):
    """out[e] += c in place, dropping a cancelled term; ints stay ints."""
    c += out.get(e, 0)
    if c:
        out[e] = c
    else:
        out.pop(e, None)


def poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        _add_term(out, e, c)
    return out


def poly_sub(p, q):
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def poly_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}
