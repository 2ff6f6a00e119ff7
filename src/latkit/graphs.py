"""Weighted graphs, Laplacians, sandpile groups, toppling ideals."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, PreconditionError
from .exactmat import IntMatrix, _check_int, determinant
from .ideal import BinomialIdeal, matrix_ideal, saturate_variables, is_lattice_ideal, \
    minimal_generator_count, _lattice_ideal_of
from .lattice import FiniteAbelianGroup, Lattice, critical_group

__all__ = [
    "WeightedGraph",
    "WeightedDigraph",
    "laplacian",
    "laplacian_digraph",
    "sandpile_group",
    "spanning_tree_count",
    "toppling_ideal",
    "laplacian_report",
    "LaplacianReport",
]


def _reaches_all(adj):
    """Whether every vertex of the adjacency map is reachable from 0."""
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


class WeightedGraph:
    """Simple undirected graph with positive integer edge weights."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count, edges):
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        norm = {}
        for i, j, w in edges:
            i, j, w = map(_check_int, (i, j, w))
            if i == j:
                raise ValueError("loops are not allowed")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError("vertex index out of range")
            if w < 1:
                raise ValueError("weights must be positive")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ValueError(f"duplicate edge {key}")
            norm[key] = w
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(sorted((i, j, w) for (i, j), w in norm.items())))

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGraph is immutable")

    def degree(self, v):
        """Number of incident edges (neighbor count, not weight sum)."""
        return sum(1 for i, j, _ in self.edges if v in (i, j))

    def is_connected(self):
        adj = {v: set() for v in range(self.vertex_count)}
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return _reaches_all(adj)


class WeightedDigraph:
    """Directed graph with positive integer arc weights.

    Loops are rejected by default; underlying digraphs of matrices may
    carry them (allow_loops=True).
    """

    __slots__ = ("vertex_count", "arcs", "allow_loops")

    def __init__(self, vertex_count, arcs, allow_loops=False):
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        norm = {}
        for i, j, w in arcs:
            i, j, w = map(_check_int, (i, j, w))
            if i == j and not allow_loops:
                raise ValueError("loops are not allowed")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError("vertex index out of range")
            if w < 1:
                raise ValueError("weights must be positive")
            if (i, j) in norm:
                raise ValueError(f"duplicate arc ({i}, {j})")
            norm[(i, j)] = w
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", tuple(sorted((i, j, w) for (i, j), w in norm.items())))
        object.__setattr__(self, "allow_loops", allow_loops)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedDigraph is immutable")

    def is_strongly_connected(self):
        fwd = {v: set() for v in range(self.vertex_count)}
        rev = {v: set() for v in range(self.vertex_count)}
        for i, j, _ in self.arcs:
            if i != j:
                fwd[i].add(j)
                rev[j].add(i)
        return _reaches_all(fwd) and _reaches_all(rev)


def _laplacian_rows(n, arcs):
    """Out-degree matrix minus adjacency matrix of the weighted arcs
    (i, j, w) on n vertices; loops add nothing."""
    a = [[0] * n for _ in range(n)]
    for i, j, w in arcs:
        if i != j:
            a[i][j] -= w
            a[i][i] += w
    # both graph classes already made every weight an int
    return IntMatrix._trusted(a)


def laplacian(G: WeightedGraph) -> IntMatrix:
    """Weighted degree matrix minus adjacency matrix; symmetric with
    zero row and column sums."""
    arcs = [arc for i, j, w in G.edges for arc in ((i, j, w), (j, i, w))]
    return _laplacian_rows(G.vertex_count, arcs)


def laplacian_digraph(G: WeightedDigraph) -> IntMatrix:
    """Out-degree matrix minus adjacency matrix; zero row sums."""
    return _laplacian_rows(G.vertex_count, G.arcs)


def _column_lattice(mat: IntMatrix) -> Lattice:
    return Lattice(mat.rows, [mat.column(j) for j in range(mat.cols)])


def sandpile_group(G: WeightedGraph) -> FiniteAbelianGroup:
    """Torsion of Z^s modulo the Laplacian's column lattice."""
    if not G.is_connected():
        raise PreconditionError("graph is not connected")
    return critical_group(_column_lattice(laplacian(G)))


def spanning_tree_count(G: WeightedGraph) -> int:
    """Weighted spanning-tree count. By the matrix-tree theorem every
    cofactor of the Laplacian equals it; this takes the one with row 0
    and column 0 deleted."""
    if not G.is_connected():
        raise PreconditionError("graph is not connected")
    L = laplacian(G)
    if G.vertex_count == 1:
        return 1
    rows = L.to_rows()
    return abs(determinant(IntMatrix([r[1:] for r in rows[1:]])))


def toppling_ideal(G: WeightedGraph) -> BinomialIdeal:
    """Lattice ideal of the Laplacian columns, with its reduced GRevLex
    basis as generators and recorded as its own saturation.

    It comes from one GRevLex Buchberger run on the connected-cut
    binomials (_connected_cuts), which generate it (Perkinson, Perlman
    and Wilmes, "Primer for the algebraic geometry of sandpiles",
    arXiv:1112.6163; Cori, Rossin and Salvy, Theoret. Comput. Sci. 276,
    2002). Reduced bases are unique, so the generators are those of the
    saturation of the Laplacian matrix ideal by the variables."""
    if not G.is_connected():
        raise PreconditionError("graph is not connected")
    if G.vertex_count == 1:
        # the one Laplacian column is zero, as matrix_ideal reports it
        raise PreconditionError("column 1 is zero; no binomial")
    return _lattice_ideal_of(G.vertex_count, _connected_cuts(G))


def _component(seed, avail, nbrs):
    """The vertices reached from the vertex set seed through the vertex
    set avail, seed included; nbrs[v] is the neighbour mask of v."""
    seen = frontier = seed
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & avail & ~seen
        seen |= frontier
    return seen


def _connected_cuts(G: WeightedGraph):
    """(out(U), in(U)) for each vertex set U without the last vertex such
    that U and its complement both induce connected subgraphs.

    Firing U gives the binomial t^out(U) - t^in(U): out(U)_v is the
    weight from v in U to the rest, in(U)_w the weight from U to w
    outside U. The other sets give only redundant binomials, and U and
    its complement give the same binomial up to sign, so only the U
    without the last vertex are listed.

    The sets are found by branching on pairs (U, X): U is connected and
    grows by one neighbour at a time, X is kept out of it. A cut with U
    on one side and X on the other exists exactly when X lies in one
    component C of G - U (take C and the rest, which every other
    component of G - U joins to U), so other pairs are dropped. Each
    kept pair either has no neighbour of U outside X, and then U is a
    cut, or branches on such a neighbour into at least one kept pair,
    so the work grows with the number of cuts, not with 2^s."""
    s = G.vertex_count
    nbrs = [0] * s
    for i, j, _ in G.edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i
    full = (1 << s) - 1
    last = 1 << (s - 1)
    cuts = []
    # the least vertex of U is u, so every set is reached from one start
    stack = [(1 << u, last | ((1 << u) - 1)) for u in range(s - 1)]
    while stack:
        U, X = stack.pop()
        rest = full ^ U
        if X & ~_component(last, rest, nbrs):
            continue
        border = 0
        m = U
        while m:
            low = m & -m
            border |= nbrs[low.bit_length() - 1]
            m ^= low
        free = border & rest & ~X
        if free:
            v = free & -free
            stack.append((U, X | v))
            stack.append((U | v, X))
            continue
        out = [0] * s
        into = [0] * s
        for i, j, w in G.edges:
            if U >> i & 1 != U >> j & 1:
                v, u = (i, j) if U >> i & 1 else (j, i)
                out[v] += w
                into[u] += w
        cuts.append((tuple(out), tuple(into)))
    return cuts


@dataclass(frozen=True)
class LaplacianReport:
    """Bundle of the structural facts about a connected graph's
    Laplacian ideal I and toppling ideal.

    vanishing_condition, hull_equals_toppling and both degrees are given
    by the paper's theorems, which the tests check on seeded graphs: a
    connected graph's Laplacian is a GCB matrix with a strongly
    connected digraph, so I satisfies the vanishing condition; the hull
    (I : (t_1 ... t_s)^inf) of I is the ideal of the connected cuts,
    which toppling_ideal computes; and I and that hull both have the
    sandpile group order as degree. The report computes the generator
    count and is_lattice from I's GRevLex basis, the hull by dividing
    that basis by t_s, and the order from a Smith form."""

    vanishing_condition: bool
    laplacian_ideal_degree: int
    toppling_ideal_degree: int
    sandpile_order: int
    hull_equals_toppling: bool
    is_lattice: bool
    column_support_sizes: tuple
    support_hypothesis_applies: bool  # every column binomial support >= 4
    aci_applies: bool  # every vertex degree >= 2
    minimal_generators: int


def laplacian_report(G: WeightedGraph) -> LaplacianReport:
    return _laplacian_report(G)[0]


def _laplacian_report(G: WeightedGraph):
    """The report together with the toppling ideal and the sandpile
    group it computed."""
    if not G.is_connected():
        raise PreconditionError("graph is not connected")
    s = G.vertex_count
    if s < 2:
        raise PreconditionError("report needs at least one edge")
    L = laplacian(G)
    I = matrix_ideal(L)
    # the generator count runs the one GRevLex Buchberger of I and caches
    # its basis for the saturation and is_lattice_ideal
    mu = minimal_generator_count(I, (1,) * s)
    # the hull (I : (t_1 ... t_s)^inf) is by definition the toppling
    # ideal; is_lattice_ideal reuses the saturation cached on I
    top = saturate_variables(I)
    group = critical_group(_column_lattice(L))
    order = group.order
    lattice_flag = is_lattice_ideal(I)
    degrees = [0] * s
    for i, j, _ in G.edges:
        degrees[i] += 1
        degrees[j] += 1
    # column j of L is nonzero exactly at j and at j's neighbours
    supports = tuple(d + 1 for d in degrees)
    support_ok = all(sz >= 4 for sz in supports)
    if support_ok and lattice_flag:
        raise InternalError("support hypothesis predicts a non-lattice ideal")
    aci = all(d >= 2 for d in degrees)
    if aci and mu != s:
        raise InternalError("generator count must equal the vertex count")
    report = LaplacianReport(
        vanishing_condition=True,
        laplacian_ideal_degree=order,
        toppling_ideal_degree=order,
        sandpile_order=order,
        hull_equals_toppling=True,
        is_lattice=lattice_flag,
        column_support_sizes=supports,
        support_hypothesis_applies=support_ok,
        aci_applies=aci,
        minimal_generators=mu,
    )
    return report, top, group
