"""Symbolic primary decomposition of graded dimension-1 lattice ideals.

Components are indexed by characters of the torsion group rather than
materialized over cyclotomic fields: each component is the kernel of
the monomial map t_i -> zeta_1^{lambda_1 p_1i} ... x^{d_i}, and the
residue tuple lambda determines it completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, isqrt, lcm, prod

from .errors import InternalError, PreconditionError
from .exactmat import smith_normal_form
from .lattice import Lattice, p_saturation, torsion_order

__all__ = [
    "CharacterComponent",
    "GaloisOrbit",
    "GaloisOrbitReport",
    "symbolic_decomposition",
    "rational_orbit_report",
    "component_count",
]


@dataclass(frozen=True, eq=False)
class CharacterComponent:
    """One primary component of a graded dimension-1 lattice ideal.

    residues: (lambda_1 mod gamma_1, ..., lambda_{s-1} mod gamma_{s-1})
    character_rows: the first s-1 rows of the unimodular row transform
        of the Smith normal form; row k and residue k together give the
        root-of-unity exponent lambda_k * p_ki of the variable t_i
    grading: the positive primitive vector d orthogonal to the lattice

    Two components of the same decomposition are equal exactly when
    their residue tuples are equal.
    """

    residues: tuple
    torsion_factors: tuple
    character_rows: tuple
    grading: tuple

    def __eq__(self, other):
        if not isinstance(other, CharacterComponent):
            return NotImplemented
        return self.residues == other.residues

    def __hash__(self):
        return hash(self.residues)

    def monomial_image(self, i):
        """Exponent data of the image of t_i: a tuple of root-of-unity
        exponents (lambda_k p_ki mod gamma_k) and the power d_i."""
        roots = tuple(
            (self.residues[k] * self.character_rows[k][i]) % self.torsion_factors[k]
            for k in range(len(self.residues))
        )
        return roots, self.grading[i]

    @property
    def is_toric(self):
        """The trivial character cuts out the toric component."""
        return not any(self.residues)


def _snf_character_data(lat: Lattice):
    """Shared setup: invariant factors gamma_1..gamma_{s-1}, the first
    s-1 rows of P, and the positive grading read off the last row."""
    s = lat.ambient_dim
    # no generators is rank 0; generator_matrix() rejects it when s = 1
    dec = smith_normal_form(lat.generator_matrix()) if lat.generators or s == 1 else None
    if dec is None or dec.rank != s - 1:
        raise PreconditionError(
            f"lattice rank is {dec.rank if dec else 0}, need {s - 1} for a dimension-1 decomposition"
        )
    gammas = dec.gamma
    rows = tuple(dec.P.row(k) for k in range(s - 1))
    last = dec.P.row(s - 1)
    if all(x > 0 for x in last):
        d = last
    elif all(x < 0 for x in last):
        d = tuple(-x for x in last)
    else:
        raise PreconditionError("lattice admits no positive grading")
    # with rank s - 1 a positive primitive d orthogonal to the lattice
    # is the unique grading vector
    if gcd(*d) != 1 or any(sum(x * y for x, y in zip(d, g)) for g in lat.generators):
        raise InternalError(f"last transform row {d} is not a primitive grading of the lattice")
    return gammas, rows, d


def symbolic_decomposition(lat: Lattice):
    """All primary components of the lattice ideal, one per character
    of the torsion group; the count is exactly the torsion order."""
    gammas, rows, d = _snf_character_data(lat)
    comps = [
        CharacterComponent(
            residues=res,
            torsion_factors=gammas,
            character_rows=rows,
            grading=d,
        )
        for res in product(*(range(g) for g in gammas))
    ]
    if len(set(comps)) != len(comps) or sum(1 for c in comps if c.is_toric) != 1:
        raise InternalError("characters must give distinct components, one of them toric")
    return comps


@dataclass(frozen=True)
class GaloisOrbit:
    representative: tuple  # least residue tuple of the orbit
    size: int
    degree: int
    torsion_factors: tuple = field(repr=False)  # moduli of the residues

    @property
    def members(self):
        """All residue tuples of the orbit, sorted, computed on demand:
        the multiples of the representative by the units modulo its
        order."""
        order = lcm(*(g // gcd(r, g) for r, g in zip(self.representative, self.torsion_factors)))
        return tuple(sorted(
            tuple((k * r) % g for r, g in zip(self.representative, self.torsion_factors))
            for k in range(1, order + 1)
            if gcd(k, order) == 1
        ))


@dataclass(frozen=True)
class GaloisOrbitReport:
    """Rational primary structure: conjugate components grouped into
    orbits of the unit-group action on the character group.

    Per-orbit degrees use orbit size times max(d)/gcd(d); that formula
    is derived from the examples and the total-degree identity, not
    stated in general, and reports carry that caveat.
    """

    torsion_order: int
    invariant_factors: tuple
    grading: tuple
    orbits: tuple
    degree_formula: str = field(default="derived", repr=False)

    @property
    def total_degree(self):
        return sum(o.degree for o in self.orbits)

    def to_report(self):
        """Plain-type report dict (JSON assembly happens at the CLI)."""
        return {
            "torsion_order": self.torsion_order,
            "invariant_factors": list(self.invariant_factors),
            "grading": list(self.grading),
            "component_count": self.torsion_order,
            "orbit_count": len(self.orbits),
            "total_degree": self.total_degree,
            "degree_formula": self.degree_formula,
            "orbits": [
                {
                    "representative": list(o.representative),
                    "size": o.size,
                    "degree": o.degree,
                }
                for o in self.orbits
            ],
        }


def _divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _totient(n):
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _least_residues(gamma, m):
    """The residues r mod gamma that are least in their orbit under the
    units v with v = 1 mod m, ascending, each paired with its additive
    order n = gamma / gcd(r, gamma).

    Write r = (gamma / n) * a with a a unit mod n. The orbit of r is
    (gamma / n) * {b unit mod n : b = a mod gcd(m, n)}, so r is least
    exactly when a is the least unit mod n in its class mod gcd(m, n);
    each of the phi(gcd(m, n)) unit classes has one such a."""
    out = []
    for n in _divisors(gamma):
        c = gcd(m, n)
        want = _totient(c)
        classes = set()
        for b in range(n):  # for n = 1, b = 0 is the unit
            if gcd(b, n) == 1 and b % c not in classes:
                classes.add(b % c)
                out.append(((gamma // n) * b, n))
                if len(classes) == want:
                    break
    out.sort()
    return out


def _orbit_representatives(gammas):
    """Least member of every unit-group orbit on Z/gamma_1 x ... x
    Z/gamma_k, in lexicographic order, each paired with its order.

    A tuple is least in its orbit only if each prefix is least in its
    own orbit, and a least prefix p of order m extends by r exactly when
    r is least under the units that fix p, which are those = 1 mod m.
    So the walk grows least prefixes one coordinate at a time; the
    children depend only on (gamma_j, gcd(m, gamma_j)), so each child
    list is computed once."""
    children = {}
    level = [((), 1)]
    for g in gammas:
        nxt = []
        for prefix, m in level:
            key = (g, gcd(m, g))
            kids = children.get(key)
            if kids is None:
                kids = children[key] = _least_residues(*key)
            nxt.extend((prefix + (r,), lcm(m, n)) for r, n in kids)
        level = nxt
    return level


def rational_orbit_report(lat: Lattice) -> GaloisOrbitReport:
    """Group the symbolic components into Galois orbits: two characters
    are conjugate when a unit k mod lcm(gamma) rescales one to the
    other, so the orbits are the cyclic subgroups of the torsion group
    and an orbit's size is phi of its order. Representatives come from
    the divisor structure without enumerating the group. Orbit degrees
    sum to the graded dimension-1 degree."""
    gammas, rows, d = _snf_character_data(lat)
    per_comp = max(d) // gcd(*d)
    sizes = {n: _totient(n) for n in _divisors(lcm(*gammas))}
    orbits = []
    for rep, order in _orbit_representatives(gammas):
        size = sizes[order]
        orbits.append(
            GaloisOrbit(
                representative=rep,
                size=size,
                degree=size * per_comp,
                torsion_factors=gammas,
            )
        )

    gamma = prod(gammas)
    if sum(o.size for o in orbits) != gamma:
        raise InternalError(f"orbit sizes do not sum to the torsion order {gamma}")
    report = GaloisOrbitReport(
        torsion_order=gamma,
        invariant_factors=tuple(g for g in gammas if g > 1),
        grading=d,
        orbits=tuple(orbits),
    )
    if report.total_degree != gamma * per_comp:
        raise InternalError(f"orbit degrees do not sum to {gamma} * {per_comp}")
    return report


def component_count(lat: Lattice, characteristic: int = 0) -> int:
    """Number of primary components over an algebraically closed field
    of the given characteristic. Positive characteristic removes the
    p-part of every invariant factor; no modular ideal arithmetic is
    involved."""
    if lat.rank != lat.ambient_dim - 1:
        raise PreconditionError("component count needs a corank-1 lattice")
    if characteristic == 0:
        return torsion_order(lat)
    return torsion_order(p_saturation(lat, characteristic))
