import random
from fractions import Fraction

from latkit import Binomial, BinomialIdeal, MonomialOrder
from ratpoly import (
    colon_by_poly,
    intersect,
    poly_from_binomial,
    poly_from_terms,
    reduced_basis,
)


def P(*terms):
    return poly_from_terms(terms)


def test_reduced_basis_textbook_ideal():
    # (x^3 - 2xy, x^2 y - 2y^2 + x) in GRevLex with x > y has reduced
    # basis {x^2, xy, y^2 - x/2}
    f1 = P((1, (3, 0)), (-2, (1, 1)))
    f2 = P((1, (2, 1)), (-2, (0, 2)), (1, (1, 0)))
    basis = reduced_basis([f1, f2], MonomialOrder.grevlex(2))
    assert basis == [
        {(0, 2): Fraction(1), (1, 0): Fraction(-1, 2)},
        {(1, 1): Fraction(1)},
        {(2, 0): Fraction(1)},
    ]


def test_reduced_basis_is_monic_and_ignores_scaling_and_repeats():
    f1 = P((3, (3, 0)), (-6, (1, 1)))
    f2 = P((-1, (2, 1)), (2, (0, 2)), (-1, (1, 0)))
    order = MonomialOrder.grevlex(2)
    assert reduced_basis([f1, f2, f1, {}], order) == reduced_basis(
        [P((1, (3, 0)), (-2, (1, 1))), P((1, (2, 1)), (-2, (0, 2)), (1, (1, 0)))],
        order,
    )


def test_intersect_small_cases():
    x, y = P((1, (1, 0))), P((1, (0, 1)))
    assert intersect([x], [y], 2) == [{(1, 1): Fraction(1)}]
    # (x^2, y) and (x) meet in (x^2, xy)
    x2 = P((1, (2, 0)))
    assert intersect([x2, y], [x], 2) == [{(1, 1): Fraction(1)}, {(2, 0): Fraction(1)}]


def test_colon_by_poly_small_cases():
    x_minus_y = P((1, (1, 0)), (-1, (0, 1)))
    x2_minus_y2 = P((1, (2, 0)), (-1, (0, 2)))
    # (x^2 - y^2) : (x - y) = (x + y)
    assert colon_by_poly([x2_minus_y2], x_minus_y, 2) == [
        {(0, 1): Fraction(1), (1, 0): Fraction(1)}
    ]
    # (xy) : x = (y)
    assert colon_by_poly([P((1, (1, 1)))], P((1, (1, 0))), 2) == [{(0, 1): Fraction(1)}]


def test_rational_engine_agrees_with_binomial_engine():
    rng = random.Random(606)
    for _ in range(25):
        s = rng.randint(2, 4)
        vectors = [[rng.randint(-3, 3) for _ in range(s)] for _ in range(rng.randint(1, 3))]
        gens = [Binomial.from_vector(v) for v in vectors if any(v)]
        if not gens:
            continue
        ideal = BinomialIdeal(s, gens)
        for order in (MonomialOrder.grevlex(s), MonomialOrder.elimination(s, (0,))):
            rational = reduced_basis([poly_from_binomial(g) for g in gens], order)
            # the rational basis is monic, so its polynomials are
            # +-(t^plus - t^minus); compare the unordered term pairs
            assert sorted(sorted(p) for p in rational) == sorted(
                sorted((b.plus, b.minus)) for b in ideal.reduced_groebner(order)
            )
            assert all(sorted(p.values()) == [-1, 1] for p in rational)
