"""Text formats for matrices, lattices, ideals, point sets and graphs.

All formats are line oriented, `#` starts a comment, and numbers are
plain decimal integers separated by whitespace. Vertices in graph files
are 1-based; everything becomes 0-based on parse.
"""

from __future__ import annotations

from .errors import ParseError
from .exactmat import IntMatrix
from .graphs import WeightedDigraph, WeightedGraph
from .ideal import Binomial, BinomialIdeal
from .lattice import Lattice

__all__ = [
    "parse_matrix",
    "parse_lattice",
    "parse_ideal",
    "parse_points",
    "parse_graph",
]


def _content_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _ints(line, expect=None, what="line"):
    parts = line.split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"non-integer token in {what}: {line!r}") from None
    if expect is not None and len(values) != expect:
        raise ParseError(
            f"expected {expect} integers in {what}, got {len(values)}: {line!r}"
        )
    return values


def _header(lines, what):
    if not lines:
        raise ParseError(f"empty {what} file")
    head = _ints(lines[0], expect=2, what=f"{what} header")
    rows, cols = head
    if rows < 1 or cols < 1:
        raise ParseError(f"{what} dimensions must be positive, got {rows} {cols}")
    return rows, cols


def parse_matrix(text: str) -> IntMatrix:
    """First line `s m`, then s lines of m integers."""
    lines = _content_lines(text)
    rows, cols = _header(lines, "matrix")
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    data = [_ints(line, expect=cols, what="matrix row") for line in lines[1:]]
    return IntMatrix(data)


def parse_lattice(text: str) -> Lattice:
    """Matrix format; the columns are the lattice generators."""
    mat = parse_matrix(text)
    return Lattice(mat.rows, [mat.column(j) for j in range(mat.cols)])


def parse_ideal(text: str) -> BinomialIdeal:
    """First line `s m`, then m integer vectors of length s; the vector
    v encodes the binomial t^{v+} - t^{v-}."""
    lines = _content_lines(text)
    count_vars, count_gens = _header(lines, "ideal")
    if len(lines) - 1 != count_gens:
        raise ParseError(f"expected {count_gens} generator rows, got {len(lines) - 1}")
    gens = []
    for line in lines[1:]:
        v = _ints(line, expect=count_vars, what="generator row")
        try:
            gens.append(Binomial.from_vector(v))
        except ValueError as err:
            raise ParseError(str(err)) from None
    return BinomialIdeal(count_vars, gens)


def parse_points(text: str) -> list:
    """Matrix format; the columns are the points."""
    mat = parse_matrix(text)
    return [mat.column(j) for j in range(mat.cols)]


def parse_graph(text: str):
    """First line `s`; then `i j w` for an edge or `i > j w` for an arc,
    with 1-based vertices. Edge lines and arc lines cannot be mixed; a
    file with arcs parses to a WeightedDigraph."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    head = _ints(lines[0], what="graph header")
    if len(head) != 1 or head[0] < 1:
        raise ParseError(f"graph header must be a single positive count: {lines[0]!r}")
    s = head[0]
    edges = []
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        directed = ">" in parts
        if directed:
            if len(parts) != 4 or parts[1] != ">":
                raise ParseError(f"arc line must be `i > j w`: {line!r}")
            tokens = [parts[0], parts[2], parts[3]]
        else:
            if len(parts) != 3:
                raise ParseError(f"edge line must be `i j w`: {line!r}")
            tokens = parts
        try:
            i, j, w = (int(t) for t in tokens)
        except ValueError:
            raise ParseError(f"non-integer token in graph line: {line!r}") from None
        if not (1 <= i <= s and 1 <= j <= s):
            raise ParseError(f"vertex out of range 1..{s}: {line!r}")
        (arcs if directed else edges).append((i - 1, j - 1, w))
    if arcs and edges:
        raise ParseError("graph file mixes edge lines and arc lines")
    try:
        if arcs:
            return WeightedDigraph(s, arcs)
        return WeightedGraph(s, edges)
    except ValueError as e:
        raise ParseError(str(e)) from None
