from pathlib import Path

import pytest

from latkit import ParseError, WeightedDigraph, WeightedGraph
from latkit.fileformats import (
    parse_graph,
    parse_ideal,
    parse_lattice,
    parse_matrix,
    parse_points,
)

DATA = Path(__file__).parent / "data"


def test_parse_matrix_basic():
    m = parse_matrix("2 3\n1 2 3\n4 5 6\n")
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


def test_parse_matrix_comments_and_blanks():
    text = "# a matrix\n\n2 2  # header\n 1 -2\n# middle\n-3 4\n\n"
    assert parse_matrix(text).to_rows() == [[1, -2], [-3, 4]]


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "2\n1 2\n",  # short header
        "2 2\n1 2\n",  # missing row
        "1 2\n1 2\n3 4\n",  # extra row
        "1 2\n1\n",  # short row
        "1 2\nx y\n",  # not integers
        "0 2\n",  # empty matrix
    ],
)
def test_parse_matrix_rejects(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_parse_lattice_columns_are_generators():
    lat = parse_lattice("3 2\n1 0\n-1 2\n0 -2\n")
    assert lat.ambient_dim == 3
    assert lat.generators == ((1, -1, 0), (0, 2, -2))


def test_parse_ideal_rows_are_vectors():
    ideal = parse_ideal("3 2\n2 -1 -1\n-3 1 -1\n")
    assert ideal.ambient_dim == 3
    assert len(ideal.generators) == 2


def test_parse_ideal_rejects_zero_row():
    with pytest.raises(ParseError, match="^zero vector does not define a binomial$"):
        parse_ideal("2 1\n0 0\n")


def test_parse_points_columns():
    pts = parse_points("2 3\n0 2 1\n0 2 0\n")
    assert pts == [(0, 0), (2, 2), (1, 0)]


def test_parse_graph_edges():
    g = parse_graph("4\n1 2 1\n1 3 2\n2 3 3\n2 4 4\n3 4 1\n")
    assert isinstance(g, WeightedGraph)
    assert g.vertex_count == 4
    assert (0, 1, 1) in g.edges


def test_parse_graph_arcs():
    g = parse_graph("3\n1 > 2 5\n2 > 3 1\n3 > 1 1\n")
    assert isinstance(g, WeightedDigraph)
    assert g.arcs == ((0, 1, 5), (1, 2, 1), (2, 0, 1))


@pytest.mark.parametrize(
    "text",
    [
        "3\n1 2 1\n2 > 3 1\n",  # mixed edges and arcs
        "2\n1 2\n",  # missing weight
        "2\n1 3 1\n",  # vertex out of range
        "2\n0 1 1\n",  # vertices are 1-based
        "2\n1 1 1\n",  # loop
        "2\n1 2 0\n",  # zero weight
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_data_files_parse():
    # every checked-in sample must load with its intended parser
    for name, parser in [
        ("rank4_z8.lat", parse_lattice),
        ("torsion2.lat", parse_lattice),
        ("affine_curve.lat", parse_lattice),
        ("torsion2.ideal", parse_ideal),
        ("affine_curve.ideal", parse_ideal),
        ("nearly_regular4.mat", parse_matrix),
        ("kernel211.mat", parse_matrix),
        ("kernel235.mat", parse_matrix),
        ("identity3.mat", parse_matrix),
        ("unit_cycle_points.mat", parse_points),
        ("segment_pair.mat", parse_points),
        ("demo4.graph", parse_graph),
        ("demo4_digraph.graph", parse_graph),
    ]:
        parser((DATA / name).read_text())


def test_data_files_match_fixtures():
    from exampledata import (
        DENSE_PCB_4X4,
        RANK4_Z8_GENERATORS,
        TORSION2_GENERATORS,
        WEIGHTED_DEMO_LAPLACIAN,
    )
    from latkit import laplacian, laplacian_digraph

    assert parse_matrix((DATA / "nearly_regular4.mat").read_text()).to_rows() == DENSE_PCB_4X4
    lat = parse_lattice((DATA / "rank4_z8.lat").read_text())
    assert lat.generators == tuple(RANK4_Z8_GENERATORS)
    assert parse_lattice((DATA / "torsion2.lat").read_text()).generators == tuple(
        TORSION2_GENERATORS
    )
    g = parse_graph((DATA / "demo4.graph").read_text())
    assert laplacian(g).to_rows() == WEIGHTED_DEMO_LAPLACIAN
    dg = parse_graph((DATA / "demo4_digraph.graph").read_text())
    from exampledata import DIRECTED_DEMO_LAPLACIAN

    assert laplacian_digraph(dg).to_rows() == DIRECTED_DEMO_LAPLACIAN
