"""Shared fixtures: small matrices, lattices and graphs with known
exact invariants, used across the unit tests and the acceptance suite.
"""

import random
import sys
from pathlib import Path

from latkit import Binomial, IntMatrix, Lattice, WeightedDigraph, WeightedGraph

# 4-vertex weighted demo graph: edges (i, j, weight), 0-based
WEIGHTED_DEMO_EDGES = [(0, 1, 1), (0, 2, 2), (1, 2, 3), (1, 3, 4), (2, 3, 1)]

WEIGHTED_DEMO_LAPLACIAN = [
    [3, -1, -2, 0],
    [-1, 8, -3, -4],
    [-2, -3, 6, -1],
    [0, -4, -1, 5],
]

# column binomials of the Laplacian, as lattice vectors
WEIGHTED_DEMO_COLUMN_VECTORS = [
    (3, -1, -2, 0),
    (-1, 8, -3, -4),
    (-2, -3, 6, -1),
    (0, -4, -1, 5),
]

# reduced generators of the toppling ideal, (plus, minus) exponent pairs
WEIGHTED_DEMO_HULL_PAIRS = [
    ((3, 0, 0, 0), (0, 1, 2, 0)),
    ((1, 0, 4, 0), (0, 4, 0, 1)),
    ((0, 4, 1, 0), (0, 0, 0, 5)),
    ((0, 0, 6, 0), (2, 3, 0, 1)),
    ((0, 8, 0, 0), (1, 0, 3, 4)),
    ((2, 7, 0, 0), (0, 0, 5, 4)),
]

WEIGHTED_DEMO_SANDPILE_ORDER = 67

# directed demo with a 2-cycle between the middle vertices; not
# strongly connected (no way back into vertex 0 except through 3)
DIRECTED_DEMO_ARCS = [(0, 1, 4), (0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 3), (3, 2, 1)]

DIRECTED_DEMO_LAPLACIAN = [
    [5, -4, 0, -1],
    [0, 1, -1, 0],
    [0, -1, 1, 0],
    [-3, 0, -1, 4],
]

# dense 4x4 matrix with zero row sums and all off-diagonal entries
# negative; right kernel (1,1,1,1), left kernel (20,24,31,25)
DENSE_PCB_4X4 = [
    [4, -2, -1, -1],
    [-1, 4, -2, -1],
    [-1, -1, 3, -1],
    [-1, -1, -1, 3],
]

# 4x4 matrix with positive kernel (9,19,19,7) whose transpose has no
# positive kernel
GCB_NO_TRANSPOSE_4X4 = [
    [5, -2, 0, -1],
    [0, 1, -1, 0],
    [0, -1, 1, 0],
    [-1, 0, -1, 4],
]

# 3x3 matrix with kernel (2,1,1); the hull of its column ideal is the
# column ideal of a matrix with full off-diagonal support
KERNEL_211_3X3 = [[4, -5, -3], [-1, 3, -1], [-1, -1, 3]]

KERNEL_211_HULL_MATRIX = [[4, -1, -3], [-1, 2, -1], [-1, -2, 3]]

KERNEL_211_HULL_PAIRS = [
    ((4, 0, 0), (0, 1, 1)),
    ((0, 2, 0), (1, 0, 2)),
    ((0, 0, 3), (3, 1, 0)),
]

# 3x3 matrix with kernel (2,3,5); the hull needs a zero off-diagonal
# entry, so it is generated by two of its three column binomials
KERNEL_235_3X3 = [[4, -1, -1], [-2, 3, -1], [-1, -1, 1]]

KERNEL_235_HULL_MATRIX = [[1, 0, -1], [-1, 2, -1], [0, -1, 1]]

KERNEL_235_HULL_PAIRS = [
    ((1, 0, 0), (0, 1, 0)),
    ((0, 2, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 1, 0)),
]

# rank-2 lattice in Z^3 whose quotient has torsion 2, graded by (5,6,7)
TORSION2_GENERATORS = [(-2, 4, -2), (-2, -3, 4)]

TORSION2_CRITICAL_PAIRS = [
    ((4, 0, 0), (0, 1, 2)),
    ((0, 4, 0), (2, 0, 2)),
    ((0, 0, 4), (2, 3, 0)),
]

TORSION2_CB_MATRIX = [[4, -2, -2], [-1, 4, -3], [-2, -2, 4]]

# rank-2 lattice in Z^3 with no positive grading; its lattice ideal is
# not homogeneous and contains a binomial with constant term
AFFINE_CURVE_GENERATORS = [(2, -1, -1), (-3, 1, -1)]

AFFINE_CURVE_SATURATION_PAIRS = [
    ((2, 0, 0), (0, 1, 1)),
    ((1, 0, 2), (0, 0, 0)),
]

AFFINE_CURVE_MINORS = (-2, -5, 1)
AFFINE_CURVE_DEGREE = 6

# rank-4 lattice in Z^8: degree 125 with torsion 5, normalized volume
# 200 and defining-group torsion 8
RANK4_Z8_GENERATORS = [
    (2, 1, 1, 1, -1, -1, -1, -2),
    (1, 1, -1, -1, 1, 1, -1, -1),
    (2, -1, 1, -2, 1, -1, 1, -1),
    (5, -5, 0, 0, 0, 0, 0, 0),
]

RANK4_Z8_DEGREE = 125
RANK4_Z8_TORSION = 5
RANK4_Z8_VOLUME = 200
RANK4_Z8_DEFINING_TORSION = 8

# seven exponent vectors in Z^5 whose toric ideal has degree 11 and a
# torsion-free column group
FLOW_COLUMNS_5X7 = [
    (-1, 1, 0, 0, 0),
    (0, -1, 1, 0, 0),
    (0, 0, -1, 1, 0),
    (1, 0, 0, -1, 0),
    (0, -1, 0, 0, 1),
    (0, 0, 1, 0, -1),
    (0, 0, 0, 1, -1),
]

FLOW_TORIC_DEGREE = 11


def demo_graph() -> WeightedGraph:
    return WeightedGraph(4, WEIGHTED_DEMO_EDGES)


def directed_demo() -> WeightedDigraph:
    return WeightedDigraph(4, DIRECTED_DEMO_ARCS)


def complete_graph(s, weight=1) -> WeightedGraph:
    edges = [(i, j, weight) for i in range(s) for j in range(i + 1, s)]
    return WeightedGraph(s, edges)


def path_graph(s) -> WeightedGraph:
    return WeightedGraph(s, [(i, i + 1, 1) for i in range(s - 1)])


def matrix(rows) -> IntMatrix:
    return IntMatrix(rows)


def column_lattice(rows) -> Lattice:
    mat = IntMatrix(rows)
    return Lattice(mat.rows, [mat.column(j) for j in range(mat.cols)])


def binomials(pairs):
    return [Binomial(p, m) for p, m in pairs]


def toppling_pool():
    """The (kind, (vertex count, weighted edges)) jobs of the seed-1 pool
    of the benchmark's toppling workload, read from perfbench/workloads.py."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    jobs = workloads.toppling_jobs(random.Random(1), workloads.TOPPLING_CYCLES)
    return [(job.kind, job.data) for job in jobs]
