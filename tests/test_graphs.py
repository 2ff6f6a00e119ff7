import random
import time

import pytest

from latkit import (
    BinomialIdeal,
    PreconditionError,
    WeightedDigraph,
    WeightedGraph,
    adjoint,
    affine_degree,
    is_lattice_ideal,
    laplacian,
    laplacian_digraph,
    laplacian_report,
    matrix_ideal,
    minimal_generator_count,
    minor_gcd,
    sandpile_group,
    saturate_variables,
    spanning_tree_count,
    toppling_ideal,
    vanishing_condition,
)
from latkit.graphs import _connected_cuts, _laplacian_report

from exampledata import (
    DIRECTED_DEMO_LAPLACIAN,
    WEIGHTED_DEMO_HULL_PAIRS,
    WEIGHTED_DEMO_LAPLACIAN,
    WEIGHTED_DEMO_SANDPILE_ORDER,
    binomials,
    complete_graph,
    demo_graph,
    directed_demo,
    path_graph,
    toppling_pool,
)
from optimized import run_optimized


def test_demo_laplacian_entries():
    assert laplacian(demo_graph()).to_rows() == WEIGHTED_DEMO_LAPLACIAN


def test_demo_sandpile_group():
    K = sandpile_group(demo_graph())
    assert K.invariant_factors == (WEIGHTED_DEMO_SANDPILE_ORDER,)
    assert K.order == WEIGHTED_DEMO_SANDPILE_ORDER == spanning_tree_count(demo_graph())


def test_demo_toppling_ideal_reduced_basis():
    top = toppling_ideal(demo_graph())
    assert top == BinomialIdeal(4, binomials(WEIGHTED_DEMO_HULL_PAIRS))
    # the reduced basis is exactly the six listed binomials
    assert set(top.reduced_groebner()) == set(binomials(WEIGHTED_DEMO_HULL_PAIRS))


def test_demo_laplacian_report():
    rep = laplacian_report(demo_graph())
    assert rep.vanishing_condition
    assert rep.laplacian_ideal_degree == 67
    assert rep.toppling_ideal_degree == 67
    assert rep.sandpile_order == 67
    assert rep.hull_equals_toppling
    assert not rep.is_lattice
    assert rep.column_support_sizes == (3, 4, 4, 3)
    assert not rep.support_hypothesis_applies  # two vertices have degree 2
    assert rep.aci_applies
    assert rep.minimal_generators == 4


def test_complete_graph_tree_counts():
    for s, want in ((3, 3), (4, 16), (5, 125)):
        assert spanning_tree_count(complete_graph(s)) == want
    assert sandpile_group(complete_graph(4)).invariant_factors == (4, 4)


def test_complete_graph_report():
    rep = laplacian_report(complete_graph(5))
    assert rep.support_hypothesis_applies
    assert not rep.is_lattice
    assert rep.laplacian_ideal_degree == 125


def test_tree_has_trivial_sandpile():
    p = path_graph(4)
    assert spanning_tree_count(p) == 1
    assert sandpile_group(p).invariant_factors == ()
    assert not laplacian_report(p).aci_applies  # leaf vertices


def test_single_weighted_edge():
    edge = WeightedGraph(2, [(0, 1, 3)])
    assert spanning_tree_count(edge) == 3
    assert laplacian_report(edge).is_lattice


def test_digraph_laplacian():
    dg = directed_demo()
    DL = laplacian_digraph(dg)
    assert DL.to_rows() == DIRECTED_DEMO_LAPLACIAN
    assert all(sum(DL.row(i)) == 0 for i in range(4))
    assert not dg.is_strongly_connected()


def test_digraph_sink_row_is_zero():
    sink = WeightedDigraph(3, [(0, 2, 1), (1, 2, 2)])
    assert laplacian_digraph(sink).row(2) == (0, 0, 0)


def test_digraph_cycle_strongly_connected():
    cyc = WeightedDigraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert cyc.is_strongly_connected()


def test_digraph_loop_handling():
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 0, 1)])
    WeightedDigraph(2, [(0, 0, 1), (0, 1, 1)], allow_loops=True)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 0)])  # zero weight
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1), (1, 0, 2)])  # duplicate edge
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 5, 1)])  # vertex out of range
    # weights and vertices are not truncated to integers
    for graph in (WeightedGraph, WeightedDigraph):
        for edge in ((0, 1, 2.9), (0, 1.0, 1), (0, 1, True)):
            with pytest.raises(TypeError):
                graph(2, [edge])


def test_disconnected_graph_rejected():
    disc = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
    assert not disc.is_connected()
    for f in (sandpile_group, spanning_tree_count, toppling_ideal, laplacian_report):
        with pytest.raises(PreconditionError):
            f(disc)


def _tree_count_oracle(n, weights):
    # weighted deletion-contraction; independent of the Laplacian code
    def rec(n, wmap):
        if n == 1:
            return 1
        items = sorted(wmap.items())
        if not items:
            return 0
        (a, b), w = items[0]
        rest = dict(items[1:])
        deleted = rec(n, rest)
        merged = {}
        for (i, j), u in rest.items():
            i2 = a if i == b else i
            j2 = a if j == b else j
            if i2 == j2:
                continue
            i2 = i2 - 1 if i2 > b else i2
            j2 = j2 - 1 if j2 > b else j2
            key = (min(i2, j2), max(i2, j2))
            merged[key] = merged.get(key, 0) + u
        return deleted + w * rec(n - 1, merged)

    return rec(n, dict(weights))


def test_spanning_trees_match_deletion_contraction():
    rng = random.Random(20240817)
    trials = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        wmap = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    wmap[(i, j)] = rng.randint(1, 5)
        G = WeightedGraph(n, [(i, j, w) for (i, j), w in wmap.items()])
        if not G.is_connected():
            continue
        assert spanning_tree_count(G) == _tree_count_oracle(n, wmap)
        trials += 1
    assert trials >= 20


def test_every_laplacian_cofactor_is_the_tree_count():
    # the adjugate is the oracle: each of its entries is a cofactor
    rng = random.Random(4711)
    for _ in range(30):
        n = rng.randint(2, 12)
        wmap = {(rng.randrange(v), v): rng.randint(1, 5) for v in range(1, n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    wmap.setdefault((i, j), rng.randint(1, 5))
        G = WeightedGraph(n, [(i, j, w) for (i, j), w in wmap.items()])
        count = spanning_tree_count(G)
        adj = adjoint(laplacian(G))
        assert all(adj.entry(i, j) == count for i in range(n) for j in range(n))
        assert minor_gcd(laplacian(G), n - 1) == count
        assert sandpile_group(G).order == count


def test_cayley_formula():
    for n in range(2, 9):
        assert spanning_tree_count(complete_graph(n)) == n ** (n - 2)


def test_sandpile_degree_matches_tree_count_random():
    # degree of the saturated toppling ideal = weighted tree count
    from latkit import affine_degree, matrix_ideal, saturate_variables

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
        G = WeightedGraph(
            n, [(i, j, W[i][j]) for i in range(n) for j in range(i + 1, n) if W[i][j]]
        )
        dim, deg = affine_degree(saturate_variables(matrix_ideal(laplacian(G))))
        assert dim == 1
        assert deg == spanning_tree_count(G)


def test_report_runs_one_grevlex_buchberger(monkeypatch):
    import latkit.ideal as ideal_module
    from latkit.ideal import _grevlex_cmp, matrix_ideal

    runs = []
    buchberger = ideal_module._buchberger

    def counted(gens, cmp, *args):
        if cmp is _grevlex_cmp:
            runs.append(sorted(gens))
        return buchberger(gens, cmp, *args)

    monkeypatch.setattr(ideal_module, "_buchberger", counted)
    for G in (demo_graph(), complete_graph(5)):
        runs.clear()
        laplacian_report(G)
        # the generator count's run on I; the saturation divides its
        # basis by t_s, and is_lattice_ideal compares the two cached bases
        assert runs == [sorted(matrix_ideal(laplacian(G))._elements())]


def test_report_runs_no_hilbert_numerator_and_one_vanishing_test(monkeypatch):
    import latkit.ideal as ideal_module

    numerators = []
    vanishing = []
    numerator = ideal_module._hilbert_numerator
    condition = ideal_module.vanishing_condition

    def recorded_numerator(leads):
        numerators.append(leads)
        return numerator(leads)

    def recorded_condition(ideal):
        vanishing.append(ideal)
        return condition(ideal)

    monkeypatch.setattr(ideal_module, "_hilbert_numerator", recorded_numerator)
    monkeypatch.setattr(ideal_module, "vanishing_condition", recorded_condition)
    for G in (demo_graph(), complete_graph(5), path_graph(4)):
        numerators.clear()
        vanishing.clear()
        laplacian_report(G)
        # both degrees are the sandpile order, and the vanishing condition
        # is the theorem's; only the saturation tests it, to take the t_s
        # division
        assert numerators == []
        assert [I.generators for I in vanishing] == [matrix_ideal(laplacian(G)).generators]


def test_report_generator_count_check_raises_internal_error_under_optimize():
    # a planted off-by-one generator count must still be caught when
    # asserts are stripped
    code = (
        "import latkit.graphs as graphs\n"
        "from latkit import InternalError, WeightedGraph\n"
        "real = graphs.minimal_generator_count\n"
        "G = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])\n"
        "print(graphs.laplacian_report(G).minimal_generators)\n"
        "graphs.minimal_generator_count = lambda I, d: real(I, d) + 1\n"
        "try:\n"
        "    graphs.laplacian_report(G)\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
    )
    assert run_optimized(code).split("\n") == [
        "3",
        "generator count must equal the vertex count",
    ]


# ---------------------------------------------------------------------------
# toppling ideals from connected cuts. The oracle is the report's hull, the
# saturation of the Laplacian matrix ideal by the variables.


def _pool_graphs():
    """The distinct graphs of the benchmark's seed-1 toppling pool."""
    return [WeightedGraph(n, edges) for n, edges in sorted({data for _, data in toppling_pool()})]


# graphs per kind and vertex count: the oracle's saturation takes up to
# half a second on one graph of 9 or 10 vertices, and there are only a
# few distinct weighted graphs on 2 or 3 vertices
_SEEDED_COUNTS = {2: 3, 3: 10, 4: 25, 5: 32, 6: 16, 7: 8, 8: 6, 9: 3, 10: 3}


def _seeded_graphs():
    """309 distinct connected graphs on 2..10 vertices with weights 1..3:
    trees, cycles and trees with up to max(1, 9 - n) chords,
    _SEEDED_COUNTS of each, and 4 complete graphs of each size up to 6."""
    rng = random.Random(1112)
    graphs = {}
    for n, count in _SEEDED_COUNTS.items():
        for family in ("tree", "cycle", "complete", "chords"):
            copies = count if family != "complete" else 4 if n <= 6 else 0
            for _ in range(copies):
                if family == "cycle":
                    pairs = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
                elif family == "complete":
                    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                else:
                    pairs = [(rng.randrange(v), v) for v in range(1, n)]
                    if family == "chords":
                        rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
                        pairs += rng.sample(rest, min(len(rest), rng.randint(1, max(1, 9 - n))))
                G = WeightedGraph(n, [(i, j, rng.randint(1, 3)) for i, j in pairs])
                graphs.setdefault((n, G.edges), G)
    return list(graphs.values())


def test_toppling_ideal_is_the_report_hull():
    # the paper's theorems: the hull of the Laplacian ideal is the ideal of
    # the connected cuts, the Laplacian ideal satisfies the vanishing
    # condition, and it and its hull have the sandpile order as degree,
    # which the report gives without computing it (Perkinson, Perlman and
    # Wilmes, arXiv:1112.6163). Manjunath and Sturmfels ("Monomials,
    # binomials and Riemann-Roch", J. Algebraic Combin. 37, 2013): no cut
    # binomial is redundant. The report reads each column's support size
    # off the vertex degrees
    pool, seeded = _pool_graphs(), _seeded_graphs()
    assert (len(pool), len(seeded)) == (129, 309)
    for G in pool + seeded:
        rep, hull, _ = _laplacian_report(G)
        I = matrix_ideal(laplacian(G))
        assert affine_degree(I) == (1, rep.laplacian_ideal_degree), G.edges
        assert affine_degree(hull) == (1, rep.toppling_ideal_degree), G.edges
        assert vanishing_condition(I) and rep.vanishing_condition, G.edges
        supports = tuple(sum(1 for x in g.vector if x) for g in I.generators)
        assert supports == rep.column_support_sizes, G.edges
        top = toppling_ideal(G)
        assert top.generators == hull.generators, G.edges
        assert top.reduced_groebner() == hull.reduced_groebner()
        assert top == hull
        cuts = _connected_cuts(G)
        assert minimal_generator_count(top, (1,) * G.vertex_count) == len(cuts)


def test_connected_cut_counts():
    # a tree's connected cuts are its edges, a cycle's the pairs of its
    # edges, and every vertex set of a complete graph is one
    for n in range(2, 9):
        assert len(_connected_cuts(path_graph(n))) == n - 1
        assert len(_connected_cuts(complete_graph(n))) == 2 ** (n - 1) - 1
        if n > 2:
            cycle = WeightedGraph(n, [(v, (v + 1) % n, 1) for v in range(n)])
            assert len(_connected_cuts(cycle)) == n * (n - 1) // 2


def test_weighted_k8_toppling_ideal_within_budget():
    G = WeightedGraph(8, [(i, j, 1 + (i + 2 * j) % 3) for i in range(8) for j in range(i + 1, 8)])
    start = time.perf_counter()
    top = toppling_ideal(G)
    assert len(top.generators) == 127
    assert affine_degree(top) == (1, spanning_tree_count(G))
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"weighted K_8 took {elapsed:.2f}s, budget 10s"


def test_toppling_ideal_is_its_own_saturation():
    top = toppling_ideal(demo_graph())
    assert saturate_variables(top) is top
    assert is_lattice_ideal(top)


def test_toppling_ideal_single_vertex_rejected():
    # the same error as the saturation of the Laplacian matrix ideal
    G = WeightedGraph(1, [])
    with pytest.raises(PreconditionError, match="^column 1 is zero; no binomial$"):
        toppling_ideal(G)
    with pytest.raises(PreconditionError, match="^column 1 is zero; no binomial$"):
        saturate_variables(matrix_ideal(laplacian(G)))


def test_toppling_ideal_of_large_sparse_graphs():
    # the cuts are listed without going over all 2^(s-1) vertex sets, so
    # sparse graphs of any size stay cheap
    rng = random.Random(17)
    path17 = WeightedGraph(17, [(v, v + 1, 1 + v % 3) for v in range(16)])
    # unit weights: the saturation of a weighted 17-vertex tree can take 10 s
    tree17 = WeightedGraph(17, [(rng.randrange(v), v, 1) for v in range(1, 17)])
    for G in (path17, tree17):
        top, want = toppling_ideal(G), saturate_variables(matrix_ideal(laplacian(G)))
        assert top.generators == want.generators, G.edges
        assert top.reduced_groebner() == want.reduced_groebner()
    tree40 = WeightedGraph(40, [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, 40)])
    start = time.perf_counter()
    top = toppling_ideal(tree40)
    assert len(_connected_cuts(tree40)) == 39
    assert minimal_generator_count(top, (1,) * 40) == 39
    assert affine_degree(top) == (1, spanning_tree_count(tree40))
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"weighted 40-vertex tree took {elapsed:.2f}s, budget 10s"
