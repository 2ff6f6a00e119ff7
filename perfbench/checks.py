"""Exact oracles the benchmark checks latkit's outputs against.

Everything here is written independently of latkit, so a defect in the
library cannot hide in its own check: integer determinants by Bareiss
elimination, linear solves over the rationals, and the number of cyclic
subgroups of a finite abelian group by Moebius inversion.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, prod


class CheckFailed(Exception):
    """A job's output broke an exact identity or its reference digest."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(plain) -> str:
    """sha256 of the canonical JSON form of a plain-data output."""
    text = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cli_canonical(code, stdout, stderr):
    """Canonical form of one CLI call: exit code, the JSON payload
    without its run-dependent `elapsed_ms`, and the stderr text."""
    payload = None
    if stdout.strip():
        payload = json.loads(stdout)
        payload.pop("elapsed_ms", None)
    return {"code": code, "payload": payload, "stderr": stderr}


def determinant(rows) -> int:
    """Bareiss fraction-free elimination over the integers."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def laplacian_rows(n, edges):
    a = [[0] * n for _ in range(n)]
    for i, j, w in edges:
        a[i][j] -= w
        a[j][i] -= w
        a[i][i] += w
        a[j][j] += w
    return a


def tree_count(n, edges) -> int:
    """Weighted spanning-tree count by the matrix-tree theorem."""
    lap = laplacian_rows(n, edges)
    return determinant([row[:-1] for row in lap[:-1]])


def solve(rows, rhs):
    """Unique rational solution of a nonsingular square system."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


def in_laplacian_lattice(n, edges, vector) -> bool:
    """Is `vector` an integer combination of the Laplacian columns of a
    connected graph? The columns span the zero-sum vectors of their
    lattice, and dropping the last row and column leaves a nonsingular
    system whose solution must be integral."""
    if sum(vector) != 0:
        return False
    lap = laplacian_rows(n, edges)
    x = solve([row[:-1] for row in lap[:-1]], vector[:-1])
    return all(v.denominator == 1 for v in x)


def _divisors(n):
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _phi(n):
    out, p, m = n, 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def cyclic_subgroup_count(factors) -> int:
    """Number of cyclic subgroups of Z/f_1 x ... x Z/f_k, which is the
    number of orbits of the unit group acting on the characters.

    Elements of order dividing e number prod gcd(e, f_i); Moebius
    inversion gives those of order exactly d, and each cyclic subgroup
    of order d has phi(d) generators."""
    exponent = 1
    for f in factors:
        exponent = exponent * f // gcd(exponent, f)
    divs = _divisors(exponent)
    total = 0
    for d in divs:
        exact = sum(
            _mobius(d // e) * prod(gcd(e, f) for f in factors)
            for e in divs
            if d % e == 0
        )
        total += exact // _phi(d)
    return total
