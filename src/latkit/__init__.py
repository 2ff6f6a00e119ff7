"""Exact-arithmetic invariants of integer lattices, binomial ideals,
and graph Laplacians."""

from .cb3 import (
    CbPropertiesReport,
    CriticalBinomialSet,
    cb_properties_check,
    cb_structure,
    critical_binomial,
    find_hull_gcb3,
)
from .decomp import (
    CharacterComponent,
    GaloisOrbit,
    GaloisOrbitReport,
    component_count,
    rational_orbit_report,
    symbolic_decomposition,
)
from .degree import (
    DegreeBreakdown,
    Dim1BasisResult,
    degree_dim1_from_basis,
    degree_graded_dim1,
    degree_lattice,
    degree_lattice_breakdown,
    degree_matrix_ideal,
    degree_toric,
)
from .errors import InternalError, IterationLimitError, LatkitError, ParseError, PreconditionError
from .exactmat import (
    IntMatrix,
    SnfDecomposition,
    adjoint,
    determinant,
    hermite_rows,
    integer_kernel,
    invariant_factors,
    minor_gcd,
    rank,
    smith_normal_form,
)
from .graphs import (
    LaplacianReport,
    WeightedDigraph,
    WeightedGraph,
    laplacian,
    laplacian_digraph,
    laplacian_report,
    sandpile_group,
    spanning_tree_count,
    toppling_ideal,
)
from .ideal import (
    Binomial,
    BinomialIdeal,
    Monomial,
    MonomialOrder,
    affine_degree,
    colon_saturation,
    homogenize_ideal,
    is_lattice_ideal,
    matrix_ideal,
    minimal_generator_count,
    saturate_variables,
    vanishing_condition,
)
from .lattice import (
    FiniteAbelianGroup,
    Lattice,
    critical_group,
    defining_matrix,
    grading_vector,
    homogenize_lattice,
    homogenize_vector,
    p_saturation,
    positive_lattice_vector,
    saturation,
    torsion_order,
)
from .matclass import (
    EmbeddedComponentData,
    GcbEquivalenceReport,
    GpcbSyzygyData,
    MatrixClassReport,
    TransposeTheoremReport,
    TwoVariableAnalysis,
    analyze_2x2,
    check_transpose_theorems,
    classify,
    gcb_vanishing_equivalence,
    gpcb_embedded_component,
    gpcb_hull,
    gpcb_syzygy,
    pb_not_lattice_check,
    strongly_connected,
    underlying_digraph,
)
from .volume import LatticePolytope, normalized_volume

__version__ = "0.1.0"
