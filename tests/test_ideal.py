import random

import pytest

from latkit import (
    Binomial,
    BinomialIdeal,
    IntMatrix,
    IterationLimitError,
    Lattice,
    Monomial,
    MonomialOrder,
    PreconditionError,
    affine_degree,
    colon_saturation,
    homogenize_ideal,
    is_lattice_ideal,
    matrix_ideal,
    minimal_generator_count,
    saturate_variables,
    torsion_order,
    vanishing_condition,
)

from exampledata import (
    AFFINE_CURVE_GENERATORS,
    AFFINE_CURVE_SATURATION_PAIRS,
    DENSE_PCB_4X4,
    TORSION2_CRITICAL_PAIRS,
    TORSION2_GENERATORS,
    WEIGHTED_DEMO_HULL_PAIRS,
    WEIGHTED_DEMO_LAPLACIAN,
    binomials,
    toppling_pool,
)
from optimized import run_optimized


def B(v):
    return Binomial.from_vector(v)


def _vector_ideal(gens):
    return BinomialIdeal(len(gens[0]), [B(v) for v in gens])


def test_monomial_arithmetic():
    m = Monomial((1, 2, 0))
    assert m.degree == 3
    assert (m * Monomial((0, 1, 1))).exponents == (1, 3, 1)
    with pytest.raises(ValueError):
        Monomial((-1, 0))


def test_ambient_dimension_mismatches_raise():
    I = BinomialIdeal(2, [Binomial((1, 0), (0, 1))])
    with pytest.raises(ValueError, match="ambient dimension"):
        I.contains(Binomial((1, 0, 7), (0, 1, 0)))
    with pytest.raises(ValueError, match="ambient dimension"):
        I.contains(Binomial((1,), (0,)))
    with pytest.raises(ValueError, match="ambient dimension"):
        I.reduced_groebner(MonomialOrder.grevlex(3))
    assert MonomialOrder.grevlex(3).cache_key not in I._cache
    assert I.contains(Binomial((2, 0), (0, 2)))
    assert I.reduced_groebner(MonomialOrder.elimination(2, (0,))) == (Binomial((1, 0), (0, 1)),)
    with pytest.raises(ValueError, match="ambient dimension"):
        Monomial((1, 2)) * Monomial((3,))
    with pytest.raises(ValueError, match="ambient dimension"):
        Monomial((1, 2)).divides(Monomial((1,)))
    assert Monomial((1, 2)).divides(Monomial((1, 3)))
    assert not Monomial((1, 2)).divides(Monomial((2, 1)))


def test_exponents_and_weights_must_be_ints():
    # floats and bools raise instead of being truncated by int()
    from latkit.ideal import _saturate_by_monomial

    I = _vector_ideal(list(TORSION2_GENERATORS))
    # the message names no matrix: the check serves every integer input
    with pytest.raises(TypeError, match="^expected an int, got float$"):
        Binomial((1.5, 0), (0, 1))
    for bad in (1.7, True):
        with pytest.raises(TypeError):
            Monomial((bad, 0))
        with pytest.raises(TypeError):
            Binomial((bad, 0), (0, 1))
        with pytest.raises(TypeError):
            Binomial((0, 1), (bad, 0))
        with pytest.raises(TypeError):
            Binomial.from_vector((bad, -1))
        with pytest.raises(TypeError):
            minimal_generator_count(I, (5, 6, bad))
        with pytest.raises(TypeError):
            colon_saturation(I, (bad, 0, 0))
        with pytest.raises(TypeError):
            _saturate_by_monomial(I, (1, 1, bad))


def test_binomial_canonical_orientation():
    # the stored plus-side is the larger monomial in graded reverse
    # lexicographic order
    b = Binomial((1, 0, 2), (0, 3, 0))
    assert b.plus == (0, 3, 0) and b.minus == (1, 0, 2)
    assert repr(b) == "t2^3 - t1*t3^2"
    assert B((-1, 2, 0)) == Binomial((0, 2, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        Binomial.from_vector((0, 0))
    with pytest.raises(ValueError):
        Binomial((1, 0), (1, 0))  # equal sides


def test_grevlex_order():
    cmp = MonomialOrder.grevlex(3).compare
    assert cmp((2, 0, 0), (1, 1, 0)) == 1  # ties break on the last variable
    assert cmp((0, 0, 3), (2, 1, 0)) == -1
    assert cmp((1, 1, 1), (1, 1, 1)) == 0
    # total degree dominates
    assert cmp((0, 0, 4), (3, 0, 0)) == 1


def test_grevlex_is_monomial_order():
    rng = random.Random(11)
    cmp = MonomialOrder.grevlex(4).compare
    for _ in range(200):
        a = tuple(rng.randint(0, 5) for _ in range(4))
        b = tuple(rng.randint(0, 5) for _ in range(4))
        c = tuple(rng.randint(0, 4) for _ in range(4))
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) == 1:
            # multiplicative: a > b implies a+c > b+c
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert cmp(ac, bc) == 1
        if any(a):
            assert cmp(a, (0, 0, 0, 0)) == 1  # 1 is the least monomial


def _index_loop_grevlex_cmp(a, b):
    """The GRevLex comparison as an index loop from the last variable,
    the engine's former code; the oracle for `_grevlex_cmp`."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in range(len(a) - 1, -1, -1):
        d = a[i] - b[i]
        if d:
            return 1 if d < 0 else -1
    return 0


def _index_loop_elimination_cmp(num_vars, elim):
    """The former elimination closure: degree and reverse index loop on
    the eliminated block, then on the rest."""
    rest = tuple(i for i in range(num_vars) if i not in set(elim))

    def compare(a, b, _elim=elim, _rest=rest):
        da = sum(a[i] for i in _elim)
        db = sum(b[i] for i in _elim)
        if da != db:
            return 1 if da > db else -1
        for i in reversed(_elim):
            d = a[i] - b[i]
            if d:
                return 1 if d < 0 else -1
        da = sum(a[i] for i in _rest)
        db = sum(b[i] for i in _rest)
        if da != db:
            return 1 if da > db else -1
        for i in reversed(_rest):
            d = a[i] - b[i]
            if d:
                return 1 if d < 0 else -1
        return 0

    return compare


def test_orders_match_the_index_loop_oracle():
    from itertools import combinations

    from latkit.ideal import _grevlex_cmp

    rng = random.Random(24)
    subsets = 0
    for n in range(1, 7):
        for k in range(n + 1):
            for elim in combinations(range(n), k):
                subsets += 1
                cmp = MonomialOrder(n, elim).compare
                assert (cmp is _grevlex_cmp) == (k == 0)
                oracle = _index_loop_elimination_cmp(n, elim)
                for _ in range(300):
                    # small exponents, so degree ties and equal pairs are common
                    a = tuple(rng.randint(0, 2) for _ in range(n))
                    b = a if rng.random() < 0.1 else tuple(rng.randint(0, 2) for _ in range(n))
                    assert cmp(a, b) == oracle(a, b), (n, elim, a, b)
                    assert _grevlex_cmp(a, b) == _index_loop_grevlex_cmp(a, b), (a, b)
    # every subset of every n <= 6, including none and all
    assert subsets == sum(2**n for n in range(1, 7))


def test_matrix_ideal_generators():
    L = IntMatrix([[2, -1], [-1, 2]])
    I = matrix_ideal(L)
    assert I.ambient_dim == 2
    assert set(I.generators) == {B((2, -1)), B((-1, 2))}
    # zero columns are not allowed
    with pytest.raises(PreconditionError):
        matrix_ideal(IntMatrix([[0, 1], [0, -1]]))


def test_ideal_equality_and_membership():
    I = _vector_ideal([(1, -1, 0), (0, 1, -1)])
    J = _vector_ideal([(1, 0, -1), (0, 1, -1)])
    assert I == J
    assert I.contains(B((2, -1, -1)))
    assert not I.contains(Binomial((1, 0, 0), (0, 0, 0)))


def test_reduced_groebner_is_stable():
    I = _vector_ideal(list(TORSION2_GENERATORS))
    gb = I.reduced_groebner()
    assert gb == I.reduced_groebner()
    assert all(isinstance(g, Binomial) for g in gb)
    # a permuted generating set gives the same reduced basis
    J = _vector_ideal(list(reversed(TORSION2_GENERATORS)))
    assert J.reduced_groebner() == gb


def test_saturation_of_ungraded_curve_ideal():
    I = _vector_ideal(list(AFFINE_CURVE_GENERATORS))
    S = saturate_variables(I)
    assert S == BinomialIdeal(3, binomials(AFFINE_CURVE_SATURATION_PAIRS))
    assert not is_lattice_ideal(I)
    assert is_lattice_ideal(S)
    assert affine_degree(S) == (1, 6)


def test_saturation_of_graded_torsion2_ideal():
    I = _vector_ideal(list(TORSION2_GENERATORS))
    S = saturate_variables(I)
    assert S == BinomialIdeal(3, binomials(TORSION2_CRITICAL_PAIRS))
    assert affine_degree(S) == (1, 14)


def test_toppling_hull_of_demo_laplacian():
    I = matrix_ideal(IntMatrix(WEIGHTED_DEMO_LAPLACIAN))
    assert affine_degree(I) == (1, 67)
    H = saturate_variables(I)
    assert H == BinomialIdeal(4, binomials(WEIGHTED_DEMO_HULL_PAIRS))
    assert affine_degree(H) == (1, 67)
    assert not is_lattice_ideal(I)


def test_dense_pcb_degrees_and_generator_count():
    L = IntMatrix(DENSE_PCB_4X4)
    I = matrix_ideal(L)
    assert affine_degree(I) == (1, 31)
    assert affine_degree(matrix_ideal(L.transpose())) == (1, 1)
    assert minimal_generator_count(I, (20, 24, 31, 25)) == 4


def test_colon_saturation_stabilizes():
    L = IntMatrix(DENSE_PCB_4X4)
    I = matrix_ideal(L)
    hull, power = colon_saturation(I, (0, 1, 2, 0))
    assert power == 1
    assert hull == saturate_variables(I)
    # saturating a lattice ideal is a fixed point at power zero
    sat, power = colon_saturation(hull, (1, 0, 0, 0))
    assert power == 0 and sat == hull


def test_colon_saturation_respects_cap():
    I = _vector_ideal([(2, -1, -1), (-3, 1, -1)])
    with pytest.raises(PreconditionError):
        colon_saturation(I, (1, 0, 0), max_power=0)


def test_colon_saturation_cap_raises_iteration_limit():
    I = _vector_ideal([(2, -1, -1), (-3, 1, -1)])
    with pytest.raises(PreconditionError) as caught:
        colon_saturation(I, (1, 0, 0), max_power=0)
    assert caught.type is IterationLimitError


def test_homogenize_ideal():
    I = BinomialIdeal(2, [B((1, -3))])
    H = homogenize_ideal(I)
    assert H.reduced_groebner() == (Binomial((0, 3, 0), (1, 0, 2)),)
    # already homogeneous input only gains a variable
    J = homogenize_ideal(_vector_ideal([(1, -1)]))
    assert J.ambient_dim == 3
    assert J.contains(B((1, -1, 0)))


def test_affine_degree_simple_cases():
    assert affine_degree(_vector_ideal([(1, -1)])) == (1, 1)
    # full-rank lattice: dimension 0, degree = group order
    I = saturate_variables(_vector_ideal([(2, 0), (0, 3)]))
    assert affine_degree(I) == (0, 6)
    # the zero ideal: the quotient is the whole polynomial ring
    for s in range(1, 5):
        assert affine_degree(BinomialIdeal(s, [])) == (s, 1)


def test_vanishing_condition():
    assert vanishing_condition(matrix_ideal(IntMatrix(DENSE_PCB_4X4)))
    # an ideal leaving an axis free fails
    J = BinomialIdeal(2, [Binomial((2, 0), (1, 1))])
    assert vanishing_condition(J) is False


def test_membership_tracks_lattice_random():
    rng = random.Random(20240817)
    for _ in range(25):
        s = rng.randint(2, 4)
        k = rng.randint(1, s)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-3, 3) for _ in range(s))
            if any(v):
                gens.append(v)
        lat = Lattice(s, gens)
        I = saturate_variables(BinomialIdeal(s, [B(v) for v in gens]))
        assert is_lattice_ideal(I)
        assert saturate_variables(I) == I
        for _ in range(4):
            w = tuple(rng.randint(-4, 4) for _ in range(s))
            if not any(w):
                continue
            assert I.contains(B(w)) == lat.contains(w), (gens, w)


def test_full_rank_degree_equals_group_order_random():
    from latkit import determinant

    rng = random.Random(55)
    done = 0
    while done < 15:
        s = rng.randint(2, 3)
        m = IntMatrix([[rng.randint(-4, 4) for _ in range(s)] for _ in range(s)])
        if determinant(m) == 0:
            continue
        lat = Lattice(s, m.to_rows())
        I = saturate_variables(BinomialIdeal(s, [B(v) for v in m.to_rows()]))
        assert affine_degree(I) == (0, torsion_order(lat))
        done += 1


def test_minimal_generator_count_requires_grading():
    I = _vector_ideal(list(TORSION2_GENERATORS))
    assert minimal_generator_count(saturate_variables(I), (5, 6, 7)) == 3
    with pytest.raises(PreconditionError):
        minimal_generator_count(I, (1, 1))  # wrong length


# ---------------------------------------------------------------------------
# an oracle for reduced Groebner bases that shares no code with the engine:
# its own order keys, integer polynomials as dicts, and naive division


def _grevlex_key(a):
    return (sum(a), tuple(-x for x in reversed(a)))


def _elimination_key(eliminated):
    # eliminated block compared first, GRevLex inside each block
    def key(a):
        elim = [a[i] for i in eliminated]
        rest = [a[i] for i in range(len(a)) if i not in eliminated]
        return (_grevlex_key(elim), _grevlex_key(rest))

    return key


def _naive_remainder(poly, basis, key):
    """Remainder of poly under division by basis; each basis entry is
    (lead, polynomial) with lead coefficient +-1."""
    work = dict(poly)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lead, g in basis:
            if all(x <= y for x, y in zip(lead, m)):
                factor = c * g[lead]  # g[lead] is +-1, its own inverse
                shift = [x - y for x, y in zip(m, lead)]
                for e, ce in g.items():
                    if e == lead:
                        continue
                    e2 = tuple(x + y for x, y in zip(e, shift))
                    v = work.get(e2, 0) - factor * ce
                    if v:
                        work[e2] = v
                    else:
                        work.pop(e2, None)
                break
        else:
            rem[m] = c
    return rem


def _random_binomial_ideal(rng):
    s = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(1, 4)):
        v = [rng.randint(-3, 3) for _ in range(s)]
        if any(v):
            gens.append(B(v))
    return BinomialIdeal(s, gens)


def _random_ideals(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ideal = _random_binomial_ideal(rng)
        if ideal.generators:
            out.append(ideal)
    return out


def test_reduced_groebner_passes_naive_oracle():
    for ideal in _random_ideals(2718, 40):
        s = ideal.ambient_dim
        for order, key in (
            (MonomialOrder.grevlex(s), _grevlex_key),
            (MonomialOrder.elimination(s, (0,)), _elimination_key((0,))),
            (MonomialOrder.elimination(s, (s - 1,)), _elimination_key((s - 1,))),
        ):
            basis = []
            for b in ideal.reduced_groebner(order):
                lead = max(b.plus, b.minus, key=key)
                basis.append((lead, {lead: 1, min(b.plus, b.minus, key=key): -1}))
            # reduced: no lead divides any term of another element
            for i, (lead, _) in enumerate(basis):
                for j, (_, g) in enumerate(basis):
                    if i != j:
                        assert not any(
                            all(x <= y for x, y in zip(lead, e)) for e in g
                        ), (ideal, order.cache_key)
            # a Groebner basis: every S-polynomial reduces to 0
            for i, (li, gi) in enumerate(basis):
                for lj, gj in basis[:i]:
                    lcm = tuple(map(max, li, lj))
                    spoly = {}
                    for lead, g, sign in ((li, gi, gj[lj]), (lj, gj, -gi[li])):
                        for e, c in g.items():
                            e2 = tuple(x + y - z for x, y, z in zip(e, lcm, lead))
                            spoly[e2] = spoly.get(e2, 0) + sign * c
                    spoly = {e: c for e, c in spoly.items() if c}
                    assert _naive_remainder(spoly, basis, key) == {}
            # of an ideal containing every input generator
            for g in ideal.generators:
                assert _naive_remainder({g.plus: 1, g.minus: -1}, basis, key) == {}


def test_saturate_variables_is_saturation_by_the_variable_product():
    from latkit.ideal import _saturate_by_monomial

    for ideal in _random_ideals(1618, 25):
        s = ideal.ambient_dim
        sat = saturate_variables(ideal)
        assert sat == _saturate_by_monomial(ideal, (1,) * s)
        # independent route: saturate by one variable at a time
        seq = ideal
        for i in range(s):
            seq = _saturate_by_monomial(seq, tuple(int(k == i) for k in range(s)))
        assert sat == seq


def test_equality_and_lattice_test_match_reduced_basis_comparison():
    # the oracle compares the rebuilt Binomial tuples of the two reduced
    # GRevLex bases; __eq__ compares the cached (lead, tail) lists
    def same(a, b):
        return a.ambient_dim == b.ambient_dim and a.reduced_groebner() == b.reduced_groebner()

    ideals = _random_ideals(1618, 25)
    sats = [saturate_variables(ideal) for ideal in ideals]
    copies = [BinomialIdeal(i.ambient_dim, i.reduced_groebner()) for i in ideals]
    pool = ideals + sats + copies
    for a in pool:
        for b in pool:
            assert (a == b) == same(a, b), (a, b)
    flags = [is_lattice_ideal(i) for i in ideals]
    assert flags == [same(i, sat) for i, sat in zip(ideals, sats)]
    assert any(flags) and not all(flags)


# ---------------------------------------------------------------------------
# Buchberger's loop with the chain criterion in place of the
# Gebauer-Moeller pair update: every pair enters the heap, and the chain
# criterion scans the basis on each pop. The oracle for ideal._buchberger
# and for the generic driver of the rational engine in ratpoly.


def _groebner_chain_criterion(elements, lead, s_reduce, reduce, sort_key):
    import heapq
    import operator

    from latkit.ideal import _divides

    basis = list(elements)
    leads = [lead(e) for e in basis]
    pairs = []
    treated = set()

    def push_pairs(n):
        ln = leads[n]
        for k in range(n):
            l = tuple(map(max, leads[k], ln))
            heapq.heappush(pairs, (sum(l), l, k, n))

    for n in range(len(basis)):
        push_pairs(n)
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        treated.add((i, j))
        # product criterion: disjoint leading supports
        if lcm == tuple(map(operator.add, leads[i], leads[j])):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in treated and p2 in treated:
                    skip = True
                    break
        if skip:
            continue
        s = s_reduce(basis[i], basis[j])
        if s is None:
            continue
        s = reduce(s, basis)
        if s is None:
            continue
        basis.append(s)
        leads.append(lead(s))
        push_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another kept lead
    keep = []
    for i, li in enumerate(leads):
        if not any(
            _divides(lj, li) and (lj != li or j < i)
            for j, lj in enumerate(leads)
            if j != i
        ):
            keep.append(basis[i])
    # tail-reduce against the kept set for the reduced form
    reduced = []
    for idx, e in enumerate(keep):
        r = reduce(e, keep[:idx] + keep[idx + 1:])
        assert r is not None and lead(r) == lead(e), "lead of a minimal element must survive"
        reduced.append(r)
    reduced.sort(key=sort_key)
    return reduced


def _binomial_oracle(elems, order):
    import operator

    from latkit.ideal import _orient, _reduce_element, _sort_key, _spair

    cmp = order.compare
    basis = []
    for lead, tail in elems:
        e = _orient(lead, tail, cmp)
        if e is not None and e not in basis:
            basis.append(e)
    return _groebner_chain_criterion(
        basis,
        operator.itemgetter(0),
        lambda f, g: _spair(f, g, cmp),
        lambda e, others: _reduce_element(e, others, cmp),
        _sort_key,
    )


def test_pair_update_matches_chain_criterion_binomial():
    from latkit.ideal import _buchberger

    for ideal in _random_ideals(4242, 60):
        s = ideal.ambient_dim
        elems = ideal._elements()
        for order in (
            MonomialOrder.grevlex(s),
            MonomialOrder.elimination(s, (0,)),
            MonomialOrder.elimination(s, (s - 1,)),
        ):
            assert _buchberger(elems, order.compare)[0] == _binomial_oracle(elems, order), (
                ideal, order.cache_key)


def test_pair_update_matches_chain_criterion_rational():
    from fractions import Fraction

    from ratpoly import _leading, _poly_key, _spoly, normal_form, reduced_basis

    rng = random.Random(9090)
    for _ in range(25):
        s = rng.randint(2, 3)
        gens = []
        for _ in range(rng.randint(2, 3)):
            poly = {}
            for _ in range(rng.randint(2, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(s))
                poly[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            gens.append(poly)
        order = MonomialOrder.grevlex(s)
        cmp = order.compare

        def monic(p):
            if not p:
                return None
            lc = p[_leading(p, cmp)]
            return {e: c / lc for e, c in p.items()}

        basis = []
        for g in map(monic, gens):
            if g is not None and g not in basis:
                basis.append(g)
        want = _groebner_chain_criterion(
            basis,
            lambda p: _leading(p, cmp),
            lambda f, g: _spoly((_leading(f, cmp), f), (_leading(g, cmp), g)),
            lambda p, others: monic(normal_form(p, others, order)),
            _poly_key,
        )
        assert reduced_basis(gens, order) == want, gens


def test_pair_update_matches_chain_criterion_laplacian_saturation():
    from latkit import WeightedGraph, laplacian
    from latkit.ideal import _buchberger

    rng = random.Random(7007)
    for n in (6, 6, 6, 7, 7):
        edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
        while len(edges) < n + 2:
            i, j = sorted(rng.sample(range(n), 2))
            edges.setdefault((i, j), rng.randint(1, 3))
        ideal = matrix_ideal(laplacian(WeightedGraph(n, [(i, j, w) for (i, j), w in edges.items()])))
        # the marker-variable system that saturate_variables eliminates
        elems = [(g.plus + (0,), g.minus + (0,)) for g in ideal.generators]
        elems.append(((1,) * (n + 1), (0,) * (n + 1)))
        order = MonomialOrder.elimination(n + 1, (n,))
        assert _buchberger(elems, order.compare)[0] == _binomial_oracle(elems, order), edges


def test_saturation_is_cached_on_the_ideal():
    I = matrix_ideal(IntMatrix(WEIGHTED_DEMO_LAPLACIAN))
    S = saturate_variables(I)
    assert saturate_variables(I) is S
    assert saturate_variables(S) is S  # idempotent, recorded on the result
    # a fresh ideal has no cache and computes its saturation again
    fresh = BinomialIdeal(4, S.generators)
    again = saturate_variables(fresh)
    assert again is not S and again == S == BinomialIdeal(4, binomials(WEIGHTED_DEMO_HULL_PAIRS))
    empty = BinomialIdeal(3, [])
    assert saturate_variables(empty) is empty


def test_threads_share_one_cached_basis_and_saturation():
    import sys
    import threading

    I = _vector_ideal(list(TORSION2_GENERATORS))
    start = threading.Barrier(8)
    results = [None] * 8

    def work(k):
        start.wait()
        results[k] = (I.reduced_groebner(), saturate_variables(I))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    basis, sat = results[0]
    assert all(r[0] == basis for r in results)
    assert all(r[1] is sat for r in results)
    assert saturate_variables(I) is sat
    assert sat == BinomialIdeal(3, binomials(TORSION2_CRITICAL_PAIRS))


# ---------------------------------------------------------------------------
# the vanishing condition by radical membership: t_j lies in the radical of
# I + (t_i) iff adjoining t_j w - 1 and eliminating w gives the unit ideal,
# s(s - 1) marker eliminations. The oracle for the support test.
#
# I + (t_i) is not a pure-difference ideal, so these eliminations use
# element operations that also take a bare monomial t^lead, an element
# (lead, tail) with tail None. They drive ratpoly's copy of the Buchberger
# loop.


def _reduce_with_monomials(elem, basis, cmp):
    """Full normal form of elem against basis; None when it reduces to 0."""
    from latkit.ideal import _divides, _orient

    lead, tail = elem
    while True:
        for lb, tb in basis:
            if _divides(lb, lead):
                if tb is None:
                    if tail is None:
                        return None
                    lead, tail = tail, None
                else:
                    new = tuple(l - a + b for l, a, b in zip(lead, lb, tb))
                    if tail is None:
                        lead = new
                    else:
                        pair = _orient(new, tail, cmp)
                        if pair is None:
                            return None
                        lead, tail = pair
                break
        else:
            break
    if tail is not None:
        while True:
            for lb, tb in basis:
                if _divides(lb, tail):
                    if tb is None:
                        tail = None
                    else:
                        tail = tuple(t - a + b for t, a, b in zip(tail, lb, tb))
                    break
            else:
                break
            if tail is None:
                break
    return (lead, tail)


def _spair_with_monomials(f, g, cmp):
    from latkit.ideal import _orient

    lf, tf = f
    lg, tg = g
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    a = None if tf is None else tuple(t + c - l for t, c, l in zip(tf, lcm, lf))
    b = None if tg is None else tuple(t + c - l for t, c, l in zip(tg, lcm, lg))
    if a is None and b is None:
        return None
    if a is None:
        return (b, None)
    if b is None:
        return (a, None)
    return _orient(b, a, cmp)


def _sort_key_with_monomials(elem):
    lead, tail = elem
    return (sum(lead), tuple(-x for x in reversed(lead)), tail is None, tail or ())


def _eliminate_marker_with_monomials(elems, s):
    """The marker-free part of the reduced basis of elems (binomials and
    monomials in s + 1 variables) under the order eliminating the last
    variable, truncated to the first s variables."""
    import operator

    from latkit.ideal import _orient
    from ratpoly import _groebner

    cmp = MonomialOrder.elimination(s + 1, (s,)).compare
    basis = []
    for lead, tail in elems:
        e = (lead, tail) if tail is None else _orient(lead, tail, cmp)
        if e is not None and e not in basis:
            basis.append(e)
    reduced, _ = _groebner(
        basis,
        operator.itemgetter(0),
        lambda f, g: _spair_with_monomials(f, g, cmp),
        lambda e, others: _reduce_with_monomials(e, others, cmp),
        _sort_key_with_monomials,
    )
    return [
        (lead[:s], None if tail is None else tail[:s])
        for lead, tail in reduced
        if not lead[s] and (tail is None or not tail[s])
    ]


def _vanishing_condition_by_elimination(ideal):
    s = ideal.ambient_dim
    base = [(g.plus + (0,), g.minus + (0,)) for g in ideal.generators]
    unit = [tuple(int(k == i) for k in range(s + 1)) for i in range(s)]
    for i in range(s):
        for j in range(s):
            if j == i:
                continue
            marker = unit[j][:s] + (1,)
            elems = base + [(unit[i], None), (marker, (0,) * (s + 1))]
            # the unit ideal: the constant monomial 1 is in the basis
            if ((0,) * s, None) not in _eliminate_marker_with_monomials(elems, s):
                return False
    return True


def _random_generator(rng, s):
    """A binomial of one of four shapes: from a vector (disjoint
    supports), two random monomials (overlapping supports), t^a - 1, or
    a vector with zero sum (equal total degrees)."""
    kind = rng.randrange(4 if s > 1 else 3)
    while True:
        if kind == 0:
            v = [rng.randint(-2, 2) for _ in range(s)]
            if any(v):
                return B(v)
        elif kind == 1:
            p = tuple(rng.randint(0, 2) for _ in range(s))
            q = tuple(rng.randint(0, 2) for _ in range(s))
            if p != q:
                return Binomial(p, q)
        elif kind == 2:
            p = tuple(rng.randint(0, 2) for _ in range(s))
            if any(p):
                return Binomial(p, (0,) * s)
        else:
            return _zero_sum_binomial(rng, s)


def _zero_sum_binomial(rng, s):
    while True:
        v = [rng.randint(-2, 2) for _ in range(s)]
        v[rng.randrange(s)] -= sum(v)
        if any(v):
            return B(v)


def test_vanishing_condition_matches_elimination_oracle():
    rng = random.Random(6060)
    verdicts = []
    for n in range(600):
        s = 1 + n % 6
        # up to s + 1 generators; none at all for about one in s + 2
        ideal = BinomialIdeal(s, [_random_generator(rng, s) for _ in range(rng.randint(0, s + 1))])
        want = _vanishing_condition_by_elimination(ideal)
        assert vanishing_condition(ideal) is want, ideal
        verdicts.append(want)
    for s in range(1, 7):
        empty = BinomialIdeal(s, [])
        assert vanishing_condition(empty) is _vanishing_condition_by_elimination(empty) is (s == 1)
    assert verdicts.count(True) >= 150 and verdicts.count(False) >= 150


def test_vanishing_condition_on_square_matrix_ideals():
    rng = random.Random(6161)
    verdicts = []
    for _ in range(60):
        s = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)]
        for j in range(s):
            if not any(r[j] for r in rows):
                rows[rng.randrange(s)][j] = 1
        ideal = matrix_ideal(IntMatrix(rows))
        want = _vanishing_condition_by_elimination(ideal)
        assert vanishing_condition(ideal) is want, rows
        verdicts.append(want)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# the t_s shortcut (graded ideal, vanishing condition) against the marker
# elimination; the other cases run the marker path against itself


def _graded_generator(rng, s):
    """A binomial with equal total degrees on its two sides."""
    if rng.random() < 0.5:
        return _zero_sum_binomial(rng, s)
    d = rng.randint(1, 3)
    while True:
        p, q = [0] * s, [0] * s
        for _ in range(d):
            p[rng.randrange(s)] += 1
            q[rng.randrange(s)] += 1
        if p != q:
            return Binomial(p, q)


def _marker_basis(ideal, e):
    from latkit.ideal import _saturate_by_marker

    return tuple(Binomial(l, t) for l, t in _saturate_by_marker(ideal, e))


def test_graded_saturation_matches_marker_path():
    from latkit.ideal import _saturate_by_monomial

    rng = random.Random(3141)
    verdicts = []
    for _ in range(120):
        s = rng.randint(2, 5)
        gens = [_graded_generator(rng, s) for _ in range(rng.randint(1, s + 1))]
        ideal = BinomialIdeal(s, gens)
        verdicts.append(vanishing_condition(ideal))
        e = tuple(rng.randint(0, 2) for _ in range(s))
        for exponent in ((1,) * s, e) if any(e) else ((1,) * s,):
            want = _marker_basis(ideal, exponent)
            got = _saturate_by_monomial(BinomialIdeal(s, gens), exponent)
            assert got.generators == want, (ideal, exponent)
            assert got.reduced_groebner() == want
        assert saturate_variables(ideal).generators == _marker_basis(ideal, (1,) * s)
    # both the shortcut (saturate by t_s alone) and the marker path ran
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_graded_saturation_matches_marker_path_laplacians():
    from latkit import WeightedGraph, laplacian

    rng = random.Random(8008)
    for n in (6, 6, 7, 7):
        edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
        while len(edges) < n + 2:
            i, j = sorted(rng.sample(range(n), 2))
            edges.setdefault((i, j), rng.randint(1, 3))
        ideal = matrix_ideal(laplacian(WeightedGraph(n, [(i, j, w) for (i, j), w in edges.items()])))
        assert vanishing_condition(ideal)
        assert saturate_variables(ideal).generators == _marker_basis(ideal, (1,) * n), edges


def test_ungraded_ideal_takes_the_marker_path(monkeypatch):
    import latkit.ideal as ideal_module

    calls = []
    marker = ideal_module._saturate_by_marker

    def counted(ideal, e):
        calls.append(e)
        return marker(ideal, e)

    monkeypatch.setattr(ideal_module, "_saturate_by_marker", counted)
    I = _vector_ideal(list(AFFINE_CURVE_GENERATORS))
    assert saturate_variables(I) == BinomialIdeal(3, binomials(AFFINE_CURVE_SATURATION_PAIRS))
    assert calls == [(1, 1, 1)]
    # a graded ideal with the vanishing condition, saturated by every
    # variable, does not
    graded = _vector_ideal([(1, -1, 0), (2, 0, -2)])
    assert vanishing_condition(graded)
    saturate_variables(graded)
    assert calls == [(1, 1, 1)]
    # a divisor missing a variable does, and so does a graded ideal without
    # the condition
    from latkit.ideal import _saturate_by_monomial

    _saturate_by_monomial(graded, (1, 0, 1))
    assert calls == [(1, 1, 1), (1, 0, 1)]
    partial = _vector_ideal([(1, -1, 0)])
    assert not vanishing_condition(partial)
    saturate_variables(partial)
    assert calls == [(1, 1, 1), (1, 0, 1), (1, 1, 1)]


def test_divide_out_last_raises_internal_error_under_optimize():
    code = (
        "import sys\n"
        "from latkit.errors import InternalError\n"
        "from latkit.ideal import _divide_out_last\n"
        "assert sys.flags.optimize\n"
        "assert _divide_out_last([((1, 1), (0, 2))]) == [((1, 0), (0, 1))]\n"
        "try:\n"
        "    _divide_out_last([((0, 2), (1, 0))])\n"
        "except InternalError:\n"
        "    print('InternalError')\n"
    )
    assert run_optimized(code) == "InternalError"


def test_divide_one_minus_t_raises_internal_error_under_optimize():
    # 1 + t does not vanish at t = 1, so (1 - t) does not divide it
    code = (
        "from latkit.errors import InternalError\n"
        "from latkit.ideal import _divide_one_minus_t\n"
        "print(sorted(_divide_one_minus_t({0: 1, 2: -1}).items()))\n"
        "try:\n"
        "    _divide_one_minus_t({0: 1, 1: 1})\n"
        "except InternalError:\n"
        "    print('InternalError')\n"
    )
    # 1 - t^2 = (1 - t)(1 + t)
    assert run_optimized(code).split("\n") == ["[(0, 1), (1, 1)]", "InternalError"]


# ---------------------------------------------------------------------------
# colon exponents by tag-variable colons: I : t^e is (I cap (t^e)) / t^e,
# the intersection by a tag variable y on I y + (1 - y) t^e, and the least
# a with I : h^a equal to the saturation is searched one power at a time.
# The oracle for colon_saturation's membership tests.


def _colon_by_tag_variable(ideal, e):
    from latkit.ideal import _divides, _eliminate_marker

    s = ideal.ambient_dim
    if not ideal.generators:
        return ideal
    elems = [(g.plus + (1,), g.minus + (1,)) for g in ideal.generators]
    elems.append((e + (1,), e + (0,)))  # y t^e and t^e, i.e. (1 - y) t^e
    gens = []
    for lead, tail in _eliminate_marker(elems, s):
        assert tail is not None
        assert _divides(e, lead) and _divides(e, tail), "intersection not in (t^e)"
        gens.append(Binomial(tuple(a - b for a, b in zip(lead, e)), tuple(a - b for a, b in zip(tail, e))))
    return BinomialIdeal(s, gens)


def _colon_saturation_by_tag_variable(ideal, h):
    from latkit.ideal import _saturate_by_monomial

    sat = _saturate_by_monomial(ideal, h)
    if ideal == sat:
        return sat, 0
    for a in range(1, 10001):
        if _colon_by_tag_variable(ideal, tuple(a * x for x in h)) == sat:
            return sat, a
    raise IterationLimitError("colon powers did not stabilize within the cap")


def _random_divisor(rng, s):
    """A nonconstant monomial exponent: half involve every variable, the
    others may miss some."""
    while True:
        if rng.random() < 0.5:
            e = tuple(rng.randint(1, 2) for _ in range(s))
        else:
            e = tuple(rng.randint(0, 2) for _ in range(s))
        if any(e):
            return e


def test_colon_saturation_matches_tag_variable_oracle():
    rng = random.Random(5150)
    powers = []
    partial = 0
    for n in range(420):
        s = rng.randint(2, 4)
        k = rng.randint(1, s + 1)
        if n % 2:
            gens = [_graded_generator(rng, s) for _ in range(k)]
        else:
            gens = [_random_generator(rng, s) for _ in range(k)]
        h = _random_divisor(rng, s)
        partial += not all(h)
        want_sat, want_a = _colon_saturation_by_tag_variable(BinomialIdeal(s, gens), h)
        sat, a = colon_saturation(BinomialIdeal(s, gens), h)
        assert (sat.generators, a) == (want_sat.generators, want_a), (gens, h)
        powers.append(a)
    # both answers, several exponents, and divisors of both kinds occurred
    assert powers.count(0) >= 50 and len(set(powers)) >= 3 and partial >= 100


def test_colon_saturation_matches_tag_variable_oracle_toppling_inputs():
    from latkit import WeightedGraph, laplacian

    graphs = [data for kind, data in toppling_pool() if kind == "colon"]
    assert len(graphs) == 20
    for n, edges in graphs:
        ideal = matrix_ideal(laplacian(WeightedGraph(n, edges)))
        want_sat, want_a = _colon_saturation_by_tag_variable(ideal, (1,) * n)
        sat, a = colon_saturation(matrix_ideal(laplacian(WeightedGraph(n, edges))), (1,) * n)
        assert (sat.generators, a) == (want_sat.generators, want_a), edges


def test_colon_saturation_cap_boundary():
    I = _vector_ideal([(2, -1, -1), (-3, 1, -1)])
    h = (1, 0, 0)
    sat, a = colon_saturation(I, h)
    assert a == _colon_saturation_by_tag_variable(I, h)[1] >= 2
    # the least power equal to the cap is returned; one past it raises
    assert colon_saturation(I, h, max_power=a) == (sat, a)
    with pytest.raises(IterationLimitError):
        colon_saturation(I, h, max_power=a - 1)


# ---------------------------------------------------------------------------
# minimal generator counts by greedy elimination: drop a generator lying in
# the ideal of the others, with a fresh Buchberger run for each test, and
# restart the scan after every drop. The oracle for the one-pass count.


def _minimal_generator_count_by_restarts(ideal, weights):
    survivors = sorted(ideal.generators, key=lambda g: (g.degree_under(weights), g.plus, g.minus))
    changed = True
    while changed:
        changed = False
        for idx in range(len(survivors)):
            others = survivors[:idx] + survivors[idx + 1:]
            if not others:
                continue
            if BinomialIdeal(ideal.ambient_dim, others).contains(survivors[idx]):
                survivors.pop(idx)
                changed = True
                break
    return len(survivors)


def _weighted_generator(rng, w):
    """A binomial homogeneous under the weights w: a random vector of
    their kernel, with a random common factor on both sides."""
    s = len(w)
    while True:
        v = [0] * s
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(s), 2)
            c = rng.choice((-1, 1))
            v[i] += c * w[j]
            v[j] -= c * w[i]
        if any(v):
            break
    common = [rng.choice((0, 0, 0, 1)) for _ in range(s)]
    return Binomial(
        [max(x, 0) + c for x, c in zip(v, common)], [max(-x, 0) + c for x, c in zip(v, common)]
    )


def test_minimal_generator_count_matches_restart_oracle():
    rng = random.Random(7117)
    counts = []
    for n in range(320):
        s = rng.randint(2, 5)
        w = (1,) * s if n % 2 else tuple(rng.randint(1, 3) for _ in range(s))
        gens = [_weighted_generator(rng, w) for _ in range(rng.randint(1, s + 2))]
        want = _minimal_generator_count_by_restarts(BinomialIdeal(s, gens), w)
        ideal = BinomialIdeal(s, gens)
        assert minimal_generator_count(ideal, w) == want, (gens, w)
        counts.append((want, len(gens)))
        # the run filled the GRevLex cache with the ideal's basis
        assert ideal.reduced_groebner() == BinomialIdeal(s, gens).reduced_groebner()
    # redundant generators were present in many ideals, and absent in many
    assert sum(m < k for m, k in counts) >= 60 and sum(m == k for m, k in counts) >= 60


def test_minimal_generator_count_matches_restart_oracle_cb3():
    from latkit import grading_vector
    from propsuites import random_cb3

    rng = random.Random(3003)
    seen = set()
    for _ in range(100):
        L = random_cb3(rng)
        d = grading_vector(L)
        for ideal in (matrix_ideal(L), saturate_variables(matrix_ideal(L))):
            want = _minimal_generator_count_by_restarts(ideal, d)
            assert minimal_generator_count(BinomialIdeal(3, ideal.generators), d) == want, L.to_rows()
            seen.add(want)
    assert {2, 3} <= seen


def test_minimal_generator_count_matches_restart_oracle_laplacians():
    from latkit import WeightedGraph, laplacian

    rng = random.Random(9119)
    for n in (6, 6, 7):
        edges = {(rng.randrange(v), v): rng.randint(1, 3) for v in range(1, n)}
        while len(edges) < n + 2:
            i, j = sorted(rng.sample(range(n), 2))
            edges.setdefault((i, j), rng.randint(1, 3))
        L = laplacian(WeightedGraph(n, [(i, j, w) for (i, j), w in edges.items()]))
        want = _minimal_generator_count_by_restarts(matrix_ideal(L), (1,) * n)
        assert minimal_generator_count(matrix_ideal(L), (1,) * n) == want == n, edges
        # the saturation, generated by its reduced basis
        top = saturate_variables(matrix_ideal(L))
        want = _minimal_generator_count_by_restarts(top, (1,) * n)
        assert minimal_generator_count(BinomialIdeal(n, top.generators), (1,) * n) == want, edges


# ---------------------------------------------------------------------------
# Hilbert numerators by the former generator pivot: split off the generator
# whose support meets the most others, N(I) = N(J) - t^deg g N(J : g) for
# I = J + (g), recursing in Python. The oracle for Bigatti's pivot.


def _oracle_poly_sub(p, q):
    out = dict(p)
    for k, v in q.items():
        nv = out.get(k, 0) - v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _oracle_minimalize(gens):
    gens = sorted(set(gens), key=lambda g: (sum(g), g))
    out = []
    for g in gens:
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return tuple(out)


def _hilbert_numerator_by_generator_pivot(gens, memo):
    """The former recursion. Its single-generator case is the literal
    {0: 1, deg: -1}, which reads {0: -1} for the unit ideal (deg 0)."""
    gens = _oracle_minimalize(gens)
    if not gens:
        return {0: 1}
    hit = memo.get(gens)
    if hit is not None:
        return hit
    if len(gens) > 1:
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        if all(not (supports[i] & supports[j]) for i in range(len(gens)) for j in range(i)):
            out = {0: 1}
            for g in gens:
                out = _oracle_poly_sub(out, {k + sum(g): v for k, v in out.items()})
            memo[gens] = out
            return out
    if len(gens) == 1:
        out = {0: 1, sum(gens[0]): -1}
        memo[gens] = out
        return out

    def overlap(g):
        sg = set(i for i, e in enumerate(g) if e)
        return sum(1 for h in gens if h is not g and sg & set(i for i, e in enumerate(h) if e))

    pivot = max(gens, key=lambda g: (overlap(g), sum(g)))
    rest = tuple(g for g in gens if g != pivot)
    colon = tuple(tuple(max(h[i] - pivot[i], 0) for i in range(len(h))) for h in rest)
    n_rest = _hilbert_numerator_by_generator_pivot(rest, memo)
    n_colon = _hilbert_numerator_by_generator_pivot(colon, memo)
    out = _oracle_poly_sub(n_rest, {k + sum(pivot): v for k, v in n_colon.items()})
    memo[gens] = out
    return out


def test_hilbert_numerator_of_the_unit_ideal_is_zero():
    from latkit.ideal import _hilbert_numerator

    # the Hilbert series of S/S is 0
    assert _hilbert_numerator(((0, 0),)) == {}
    assert _hilbert_numerator(((0, 0), (1, 0))) == {}
    assert _hilbert_numerator_by_generator_pivot(((0, 0),), {}) == {0: -1}


def _random_monomial_ideal(rng, s):
    """Exponent vectors with pure powers, repeats, multiples of earlier
    generators and, now and then, the zero vector."""
    gens = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.15:
            g = [0] * s
            g[rng.randrange(s)] = rng.randint(2, 8)
        elif roll < 0.25 and gens:
            g = list(rng.choice(gens))
        elif roll < 0.4 and gens:
            g = [x + rng.choice((0, 0, 1, 2)) for x in rng.choice(gens)]
        else:
            g = [0] * s
            while not any(g):
                g = [rng.choice((1, 1, 2, 3, 4)) if rng.random() < 2.5 / s else 0 for _ in range(s)]
        gens.append(tuple(g))
    if rng.random() < 0.04:
        gens.insert(rng.randrange(len(gens) + 1), (0,) * s)
    return tuple(gens)


def test_hilbert_numerator_matches_generator_pivot_oracle_random():
    from latkit.ideal import _hilbert_numerator

    rng = random.Random(2024)
    units = 0
    for n in range(240):
        s = n % 7 + 1
        gens = _random_monomial_ideal(rng, s)
        got = _hilbert_numerator(gens)
        if (0,) * s in gens:
            # the unit ideal, where the oracle reads {0: -1}
            assert got == {}, gens
            units += 1
        else:
            assert got == _hilbert_numerator_by_generator_pivot(gens, {}), gens
    assert units >= 3


def test_hilbert_numerator_matches_generator_pivot_oracle_tier1(monkeypatch):
    import latkit.ideal as ideal_module
    from latkit import WeightedGraph, laplacian, laplacian_report
    from exampledata import complete_graph, demo_graph
    from propsuites import suite_degree_oracle

    seen = []
    pivot = ideal_module._hilbert_numerator

    def recorded(gens):
        seen.append(gens)
        return pivot(gens)

    monkeypatch.setattr(ideal_module, "_hilbert_numerator", recorded)
    # the degree computations of the tier-1 tests
    suite_degree_oracle()
    for G in (demo_graph(), complete_graph(3), complete_graph(4), complete_graph(5)):
        laplacian_report(G)
        # the report takes deg I from the sandpile order; the numerator of
        # I's leads is still checked here
        affine_degree(matrix_ideal(laplacian(G)))
    # the graphs of test_graphs.test_sandpile_degree_matches_tree_count_random
    rng = random.Random(31415)
    for _ in range(8):
        n = rng.randint(3, 4)
        W = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                W[i][j] = W[j][i] = rng.randint(0, 3)
        for i in range(n - 1):
            if W[i][i + 1] == 0:
                W[i][i + 1] = W[i + 1][i] = 1
        edges = [(i, j, W[i][j]) for i in range(n) for j in range(i + 1, n) if W[i][j]]
        affine_degree(saturate_variables(matrix_ideal(laplacian(WeightedGraph(n, edges)))))
    affine_degree(saturate_variables(matrix_ideal(IntMatrix(DENSE_PCB_4X4))))
    affine_degree(_vector_ideal([(1, -1)]))
    affine_degree(saturate_variables(_vector_ideal([(2, 0), (0, 3)])))
    assert len(seen) >= 110 and max(map(len, seen)) >= 10
    for gens in seen:
        assert pivot(gens) == _hilbert_numerator_by_generator_pivot(gens, {}), gens


def _staircase(rng, k):
    """x^a y^b z^h(a, b) for a + b <= k, with h(a, b) = 2 (k - a - b) + r
    and r in {0, 1}: h falls strictly as (a, b) grows, so no generator
    divides another. r is 0 at (k, 0) and (0, k), so x^k, y^k and
    z^(2k + r) are among the generators."""
    gens = []
    for a in range(k + 1):
        for b in range(k + 1 - a):
            r = 0 if a + b == k and 0 in (a, b) else rng.randint(0, 1)
            gens.append((a, b, 2 * (k - a - b) + r))
    return gens


def _numerator_by_enumeration(gens, k):
    """(1 - t)^3 times the count of standard monomials in each degree:
    x^a y^b z^c lies outside the ideal iff c is below every h of a
    generator x^a' y^b' z^h with a' <= a and b' <= b."""
    counts = {}
    for a in range(k):
        for b in range(k):
            height = min(h for a2, b2, h in gens if a2 <= a and b2 <= b)
            for c in range(height):
                counts[a + b + c] = counts.get(a + b + c, 0) + 1
    out = counts
    for _ in range(3):
        shifted = {}
        for d, v in out.items():
            shifted[d] = shifted.get(d, 0) + v
            shifted[d + 1] = shifted.get(d + 1, 0) - v
        out = {d: v for d, v in shifted.items() if v}
    return out


def test_hilbert_numerator_of_a_600_generator_staircase():
    import inspect
    import sys
    import time

    from latkit.ideal import _hilbert_numerator

    k = 34
    gens = _staircase(random.Random(600), k)
    assert len(gens) >= 600 and {(k, 0, 0), (0, k, 0)} <= set(gens)
    want = _numerator_by_enumeration(gens, k)
    # the pivot runs on an explicit stack: a few frames above the caller
    # are all it may use
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        start = time.perf_counter()
        got = _hilbert_numerator(tuple(gens))
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
    assert elapsed < 10, elapsed
