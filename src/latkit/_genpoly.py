"""Sparse multivariate polynomial arithmetic with rational coefficients.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.
`cb3` and `matclass` expand their syzygy and factorization identities
with these four operations. The library's only Groebner engine is the
binomial one in `ideal`; no ideal arithmetic happens here.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["poly_add", "poly_sub", "poly_mul", "poly_scale"]


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
