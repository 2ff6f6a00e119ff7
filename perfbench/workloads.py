"""Seeded inputs and jobs of the benchmark workloads.

A job holds plain data only (integers, tuples, file names). Running it
builds fresh latkit objects from that data, so the per-object Groebner
caches of `BinomialIdeal` never carry over from one job to the next.
Input sizes are fixed by each workload's cycle of job slots. The seed
chooses the content of each slot (edges, weights, entries, bases), except
on toppling, whose graphs come from a fixed catalogue in seeded order.
"""

from __future__ import annotations

import dataclasses
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd, prod
from pathlib import Path
from typing import Any, Callable

from checks import (
    cli_canonical,
    cyclic_subgroup_count,
    determinant,
    expect,
    in_laplacian_lattice,
    laplacian_rows,
    matmul,
    tree_count,
)


def _plain(out):
    return out


@dataclasses.dataclass(frozen=True)
class Kind:
    call: Callable[[Any, Any], Any]  # (latkit module, data) -> output
    check: Callable[[Any, Any], None]  # (data, output), raises CheckFailed
    canon: Callable[[Any], Any] = _plain  # output -> plain data for the digest


@dataclasses.dataclass(frozen=True)
class Job:
    kind: str
    data: Any


# ---------------------------------------------------------------------------
# random inputs


def random_graph(rng, n, m, wmax):
    """Connected simple graph: a random spanning tree plus m - n + 1
    further edges, weights uniform in 1..wmax."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(rest, m - n + 1))
    return tuple((i, j, rng.randint(1, wmax)) for i, j in sorted(edges))


def unimodular(rng, n, steps):
    """Product of `steps` random elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def lattice_with_torsion(rng, s, gammas):
    """Generators of a rank len(gammas) lattice L in Z^s with
    Z^s / L = (+) Z/gamma_k (+) Z^(s-r): the first r columns of a random
    unimodular U scaled by gamma, then mixed by a unimodular r x r V."""
    r = len(gammas)
    u = unimodular(rng, s, 2 * s)
    cols = [[u[i][k] * gammas[k] for i in range(s)] for k in range(r)]
    v = unimodular(rng, r, 2 * r) if r > 1 else [[1]]
    return tuple(
        tuple(sum(cols[k][i] * v[k][j] for k in range(r)) for i in range(s))
        for j in range(r)
    )


def graded_corank_one(rng, s, gammas):
    """Rank s-1 lattice in Z^s, homogeneous for a grading d with last
    entry 1, with torsion (+) Z/gamma_k. The vectors e_k - d_k e_s span
    the saturated kernel of d; scaling a unimodular mix of them by
    gamma gives the torsion. Returns (generators, d)."""
    d = tuple(rng.randint(1, 3) for _ in range(s - 1)) + (1,)
    h = [[int(i == k) - (d[k] if i == s - 1 else 0) for i in range(s)] for k in range(s - 1)]
    u = unimodular(rng, s - 1, 2 * s)
    mixed = [[sum(u[k][t] * h[t][i] for t in range(s - 1)) for i in range(s)] for k in range(s - 1)]
    gens = [tuple(g * x for x in row) for g, row in zip(gammas, mixed)]
    return tuple(gens), d


def divisor_chain(rng, length, choices):
    """gamma_1 | gamma_2 | ... built from random multipliers."""
    out, g = [], 1
    for _ in range(length):
        g *= rng.choice(choices)
        out.append(g)
    return tuple(out)


def cb_matrix(rng, wmax):
    """Random 3x3 critical binomial matrix: positive diagonal, negative
    off-diagonal entries, zero row sums."""
    off = [[0 if i == j else -rng.randint(1, wmax) for j in range(3)] for i in range(3)]
    return tuple(tuple(-sum(off[i]) if i == j else off[i][j] for j in range(3)) for i in range(3))


def _chain_ok(factors):
    return all(b % a == 0 for a, b in zip(factors, factors[1:]))


# ---------------------------------------------------------------------------
# toppling: laplacian_report at s = 4..5 and toppling_ideal at s = 5..6


def _graph(lk, data):
    n, edges = data
    return lk.WeightedGraph(n, edges)


def _check_report(data, rep):
    n, edges = data
    trees = tree_count(n, edges)
    expect(rep.sandpile_order == trees, "sandpile order differs from |det| of reduced Laplacian")
    expect(rep.laplacian_ideal_degree == trees, "Laplacian ideal degree differs from sandpile order")
    expect(rep.toppling_ideal_degree == trees, "toppling degree differs from sandpile order")
    expect(rep.vanishing_condition and rep.hull_equals_toppling, "hull or vanishing flag off")


def _check_basis(data, basis):
    n, edges = data
    expect(len(basis) >= n - 1, "toppling basis too small to span the lattice")
    for plus, minus in basis:
        vector = [p - m for p, m in zip(plus, minus)]
        expect(in_laplacian_lattice(n, edges, vector), f"{vector} not in the Laplacian lattice")


def _basis_plain(ideal_basis):
    return [[list(b.plus), list(b.minus)] for b in ideal_basis]


def _colon(lk, data):
    n, edges = data
    ideal = lk.matrix_ideal(lk.laplacian(lk.WeightedGraph(n, edges)))
    sat, power = lk.colon_saturation(ideal, (1,) * n)
    return [_basis_plain(sat.reduced_groebner()), power]


def _check_colon(data, out):
    basis, power = out
    expect(power >= 0, "negative stabilization exponent")
    _check_basis(data, basis)


TOPPLING_KINDS = {
    "report": Kind(
        call=lambda lk, d: lk.laplacian_report(_graph(lk, d)),
        check=_check_report,
        canon=dataclasses.asdict,
    ),
    "topple": Kind(
        call=lambda lk, d: _basis_plain(lk.toppling_ideal(_graph(lk, d)).reduced_groebner()),
        check=_check_basis,
    ),
    "colon": Kind(call=_colon, check=_check_colon),
}

# (kind, vertices, edges); weights 1..3
TOPPLING_CYCLE = [
    ("report", 4, 4), ("report", 4, 5), ("report", 4, 6),
    ("report", 5, 5), ("report", 5, 6), ("report", 5, 7),
    ("topple", 5, 6), ("topple", 5, 7), ("topple", 5, 8),
    ("topple", 6, 7), ("topple", 6, 8),
    ("colon", 4, 5), ("colon", 4, 6),
]
TOPPLING_WMAX = 3
TOPPLING_CYCLES = 10


def toppling_jobs(rng, cycles):
    """Buchberger's cost varies several-fold between graphs of one size
    and with the order of their vertices; pools drawn or relabeled per
    seed spread jobs_per_s, job_p90_ms and peak_rss_mb by 10% or more
    across seeds. The weighted graphs therefore come from one fixed
    catalogue, and the seed only shuffles the order of the cycles."""
    catalogue = random.Random("toppling-catalogue")
    rounds = [
        [Job(kind, (n, random_graph(catalogue, n, m, TOPPLING_WMAX))) for kind, n, m in TOPPLING_CYCLE]
        for _ in range(cycles)
    ]
    rng.shuffle(rounds)
    return [job for r in rounds for job in r]


def toppling_warmup(rng):
    return Job("report", (4, random_graph(rng, 4, 3, TOPPLING_WMAX)))


# ---------------------------------------------------------------------------
# invariants: exactmat, lattice, volume, degree, decomp; never ideal


def _check_degree(data, out):
    s, gens, gammas = data
    degree, tor, vol, dtor = out
    expect(tor == prod(gammas), "torsion order differs from the constructed torsion")
    expect(vol is not None and degree * dtor == tor * vol, "degree != torsion * volume / defining torsion")


def _check_trees(data, count):
    expect(count == tree_count(*data), "tree count differs from |det| of reduced Laplacian")


def _check_sandpile(data, factors):
    expect(prod(factors) == tree_count(*data), "sandpile order differs from tree count")
    expect(_chain_ok(factors) and all(f >= 2 for f in factors), "not an invariant-factor chain")


def _check_snf(data, out):
    a = [list(r) for r in data]
    p, q, gamma = out["P"], out["Q"], out["gamma"]
    diag = [[gamma[i] if i == j and i < len(gamma) else 0 for j in range(len(a[0]))]
            for i in range(len(a))]
    expect(matmul(matmul(p, a), q) == diag, "P*A*Q is not diag(gamma)")
    expect(abs(determinant(p)) == 1 and abs(determinant(q)) == 1, "transform not unimodular")
    expect(_chain_ok(gamma) and all(g > 0 for g in gamma), "gamma not a divisibility chain")


def _check_orbits(data, report):
    gens, gammas, d = data
    order = prod(gammas)
    expect(report["torsion_order"] == order, "torsion order differs from construction")
    expect(sum(o["size"] for o in report["orbits"]) == order, "orbit sizes do not sum to the torsion")
    expect(report["orbit_count"] == cyclic_subgroup_count(gammas), "orbit count != cyclic subgroups")
    expect(report["total_degree"] == order * max(d) // gcd(*d), "total degree off the closed formula")


def _p_free(g, p):
    while g % p == 0:
        g //= p
    return g


def _check_components(data, count):
    _, gammas, p = data
    expect(count == prod(_p_free(g, p) for g in gammas), "component count keeps a p-part")


def _snf_plain(dec):
    return {"P": [list(r) for r in dec.P.to_rows()], "Q": [list(r) for r in dec.Q.to_rows()],
            "gamma": list(dec.gamma)}


def _breakdown(lk, data):
    s, gens, _ = data
    br = lk.degree_lattice_breakdown(lk.Lattice(s, gens))
    return [br.degree, br.torsion_order, br.normalized_volume, br.defining_torsion]


INVARIANTS_KINDS = {
    "degree": Kind(call=_breakdown, check=_check_degree),
    "trees": Kind(
        call=lambda lk, d: lk.spanning_tree_count(_graph(lk, d)),
        check=_check_trees,
    ),
    "sandpile": Kind(
        call=lambda lk, d: list(lk.sandpile_group(_graph(lk, d)).invariant_factors),
        check=_check_sandpile,
    ),
    "snf": Kind(
        call=lambda lk, d: _snf_plain(lk.smith_normal_form(lk.IntMatrix(d))),
        check=_check_snf,
    ),
    "orbits": Kind(
        call=lambda lk, d: lk.rational_orbit_report(lk.Lattice(3, d[0])).to_report(),
        check=_check_orbits,
    ),
    "components": Kind(
        call=lambda lk, d: lk.component_count(lk.Lattice(3, d[0]), d[2]),
        check=_check_components,
    ),
}

# One cycle is 31 jobs. The orbit walk's cost depends only on the
# group's shape, so the groups are fixed and the seed picks the embedding;
# their torsion spans 3,600 .. 518,400. Six Z/60 x Z/60 walks of equal
# cost sit in the middle of the cycle's cost order and two n = 22 tree
# counts at its 90th percentile, so job_p50_ms and job_p90_ms each read
# one kind of job rather than a gap between two.
ORBIT_GROUPS = [(60, 60)] * 6 + [(120, 480), (720, 720)]
TREE_SIZES = [10, 14, 18, 22, 22, 25]
SANDPILE_SIZES = [10, 20, 30, 40]
SNF_SHAPES = [(4, 6), (6, 9), (8, 12), (9, 12), (10, 14)]
DEGREE_SHAPES = [(6, 2), (7, 4), (8, 6), (9, 3), (10, 5), (11, 8), (12, 4)]


def invariants_jobs(rng, cycles):
    jobs = []
    for _ in range(cycles):
        for a, b in ORBIT_GROUPS:
            gens, d = graded_corank_one(rng, 3, (a, b))
            jobs.append(Job("orbits", (gens, (a, b), d)))
        for n in TREE_SIZES:
            jobs.append(Job("trees", (n, random_graph(rng, n, 2 * n, 3))))
        for n in SANDPILE_SIZES:
            jobs.append(Job("sandpile", (n, random_graph(rng, n, 2 * n, 3))))
        for r, c in SNF_SHAPES:
            jobs.append(Job("snf", tuple(
                tuple(rng.randint(-20, 20) for _ in range(c)) for _ in range(r))))
        for s, r in DEGREE_SHAPES:
            gammas = divisor_chain(rng, r, (1, 1, 1, 2, 3))
            jobs.append(Job("degree", (s, lattice_with_torsion(rng, s, gammas), gammas)))
        gammas = (60, 60 * rng.choice((1, 2, 3)))
        gens, _ = graded_corank_one(rng, 3, gammas)
        jobs.append(Job("components", (gens, gammas, rng.choice((2, 3, 5)))))
    return jobs


def invariants_warmup(rng):
    return Job("snf", tuple(tuple(rng.randint(-20, 20) for _ in range(4)) for _ in range(3)))


# ---------------------------------------------------------------------------
# cli-batch: in-process `latkit.cli.main([..., "--json"])` on small files


def _run_cli(lk, data):
    argv, _, _, _ = data
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lk.cli.main(list(argv) + ["--json"])
    return code, out.getvalue(), err.getvalue()


def _ints(values):
    return [int(v) for v in values]


def _check_cli(data, out):
    argv, expected, check, facts = data
    code, stdout, stderr = out
    expect(code == expected, f"exit code {code}, expected {expected}")
    if code != 0:
        expect(not stdout and stderr.startswith("error: ") and stderr.count("\n") == 1,
               "failure must print one `error:` line and no payload")
        return
    payload = cli_canonical(code, stdout, stderr)["payload"]
    CLI_CHECKS[check](payload, facts)


def _cli_snf(p, facts):
    _check_snf(facts, {"P": [_ints(r) for r in p["P"]], "Q": [_ints(r) for r in p["Q"]],
                       "gamma": _ints(p["gamma"])})


def _cli_torsion(p, gammas):
    expect(int(p["torsion_order"]) == prod(gammas), "torsion order differs from construction")
    expect(_ints(p["invariant_factors"]) == [g for g in gammas if g > 1], "invariant factors off")


def _cli_degree_lattice(p, gammas):
    deg, tor = int(p["degree"]), int(p["torsion_order"])
    vol, dtor = int(p["normalized_volume"]), int(p["defining_torsion"])
    expect(tor == prod(gammas), "torsion order differs from construction")
    expect(deg * dtor == tor * vol, "degree != torsion * volume / defining torsion")


def _cli_graded(p, facts):
    gammas, d = facts
    expect(int(p["degree"]) == max(d) * prod(gammas), "graded degree off max(d) * torsion")


def _cli_positive_degree(p, _):
    expect(int(p["degree"]) >= 1, "degree must be positive")


def _cli_tree_degree(p, graph):
    expect(int(p["degree"]) == tree_count(*graph), "degree differs from tree count")
    expect(int(p.get("dimension", 1)) == 1, "Laplacian ideal must have dimension 1")


def _cli_lattice_gens(p, graph):
    n, edges = graph
    expect(int(p["num_vars"]) == n, "wrong variable count")
    for g in p["generators"]:
        vector = [int(a) - int(b) for a, b in zip(g["plus"], g["minus"])]
        expect(in_laplacian_lattice(n, edges, vector), f"{vector} not in the Laplacian lattice")


def _cli_classify(p, _):
    expect(p["critical"] and p["generalized_critical"] and p["pure_binomial"], "CB matrix misclassified")
    expect(_ints(p["right_kernel_witness"]) == [1, 1, 1], "zero row sums give the all-ones witness")


def _cli_laplacian(p, graph):
    n, edges = graph
    trees = tree_count(n, edges)
    expect([_ints(r) for r in p["laplacian"]] == laplacian_rows(n, edges), "Laplacian matrix off")
    expect(int(p["sandpile_order"]) == trees == int(p["spanning_trees"]), "sandpile order != trees")
    expect(prod(_ints(p["sandpile_invariant_factors"])) == trees, "invariant factors off")
    if "toppling_ideal_degree" in p:
        expect(int(p["toppling_ideal_degree"]) == int(p["laplacian_ideal_degree"]) == trees,
               "toppling degree != Laplacian degree != sandpile order")
        _cli_lattice_gens({"num_vars": n, "generators": p["hull_generators"]}, graph)


def _cli_digraph(p, facts):
    n, arcs = facts
    rows = [[0] * n for _ in range(n)]
    for i, j, w in arcs:
        rows[i][j] -= w
        rows[i][i] += w
    expect([_ints(r) for r in p["laplacian"]] == rows, "digraph Laplacian off")


def _cli_decompose(p, facts):
    gammas, d = facts
    _check_orbits((None, gammas, d), {
        "torsion_order": int(p["torsion_order"]),
        "orbit_count": int(p["orbit_count"]),
        "total_degree": int(p["total_degree"]),
        "orbits": [{"size": int(o["size"])} for o in p["orbits"]],
    })


def _zero_row_sum_cb(rows):
    return (all(sum(r) == 0 for r in rows)
            and all((x > 0) == (i == j) for i, r in enumerate(rows) for j, x in enumerate(r) if x))


def _cli_cb_matrix(p, _):
    expect(_zero_row_sum_cb([_ints(r) for r in p["matrix"]]), "assembled matrix is not CB")


def _cli_cb_check(p, _):
    mu = int(p["minimal_generators"])
    expect(p["syzygies_hold"] and mu in (2, 3), "cyclic syzygies or generator count off")
    expect(p["complete_intersection"] == (mu == 2), "complete intersection flag off")


def _cli_volume(p, expected):
    expect(int(p["normalized_volume"]) == expected, "normalized volume off 3! * box volume")


CLI_CHECKS = {
    "snf": _cli_snf, "torsion": _cli_torsion, "degree-lattice": _cli_degree_lattice,
    "graded": _cli_graded, "positive-degree": _cli_positive_degree,
    "tree-degree": _cli_tree_degree, "lattice-gens": _cli_lattice_gens,
    "classify": _cli_classify, "laplacian": _cli_laplacian, "digraph": _cli_digraph,
    "decompose": _cli_decompose, "cb-matrix": _cli_cb_matrix, "cb-check": _cli_cb_check,
    "volume": _cli_volume,
}

CLI_KINDS = {
    "cli": Kind(
        call=_run_cli,
        check=_check_cli,
        canon=lambda out: cli_canonical(*out),
    ),
}


def _matrix_text(rows):
    rows = [list(r) for r in rows]
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _columns_text(s, cols):
    return _matrix_text([[c[i] for c in cols] for i in range(s)])


def _graph_text(n, edges, arrow=False):
    sep = " > " if arrow else " "
    return f"{n}\n" + "".join(f"{i + 1}{sep}{j + 1} {w}\n" for i, j, w in edges)


def _ideal_text(s, vectors):
    return f"{s} {len(vectors)}\n" + "".join(" ".join(map(str, v)) + "\n" for v in vectors)


def _cli_cycle(rng, k):
    """One cycle of CLI calls: (file name, text, argv, exit code, check, facts)."""
    out = []

    def add(ext, text, argv, code=0, check=None, facts=None):
        name = f"c{k:02d}-{len(out):02d}.{ext}"
        out.append((name, text, tuple(a if a != "@" else name for a in argv), code, check, facts))

    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    add("mat", _matrix_text(rows), ["snf", "@"], check="snf", facts=rows)

    gammas = divisor_chain(rng, 3, (1, 2, 3))
    add("lat", _columns_text(4, lattice_with_torsion(rng, 4, gammas)), ["torsion", "@"],
        check="torsion", facts=gammas)

    gammas = divisor_chain(rng, 3, (1, 1, 2, 3))
    add("lat", _columns_text(5, lattice_with_torsion(rng, 5, gammas)),
        ["degree", "lattice", "@"], check="degree-lattice", facts=gammas)

    gammas = divisor_chain(rng, 3, (1, 2, 3))
    gens, d = graded_corank_one(rng, 4, gammas)
    add("lat", _columns_text(4, gens),
        ["degree", "lattice", "@", "--grading", ",".join(map(str, d))],
        check="graded", facts=(gammas, d))

    points = [[rng.randint(0, 3) for _ in range(4)] for _ in range(3)]
    points[0][0] += 1
    points[1][1] += 1
    points[2][2] += 1
    add("pts", _matrix_text(points), ["degree", "toric", "@"], check="positive-degree")

    graph = (4, random_graph(rng, 4, rng.randint(3, 5), 2))
    lap = laplacian_rows(*graph)
    add("ideal", _ideal_text(4, [list(c) for c in zip(*lap)]), ["degree", "ideal", "@"],
        check="tree-degree", facts=graph)
    add("mat", _matrix_text(lap), ["degree", "matrix", "@"], check="tree-degree", facts=graph)
    add("ideal", _ideal_text(4, [list(c) for c in zip(*lap)]), ["saturate", "@"],
        check="lattice-gens", facts=graph)
    add("mat", _matrix_text(lap), ["hull", "@"], check="lattice-gens", facts=graph)

    add("mat", _matrix_text(cb_matrix(rng, 4)), ["classify", "@"], check="classify")

    graph = (5, random_graph(rng, 5, rng.randint(4, 7), 3))
    add("graph", _graph_text(*graph), ["laplacian", "@"], check="laplacian", facts=graph)
    # three full reports, the costliest call, so job_p90_ms falls among them
    for _ in range(3):
        graph = (4, random_graph(rng, 4, rng.randint(3, 5), 2))
        add("graph", _graph_text(*graph), ["laplacian", "@", "--full-report"],
            check="laplacian", facts=graph)
    n = 4
    arcs = tuple((i, j, rng.randint(1, 3)) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.5)
    arcs = arcs or ((0, 1, 1),)
    add("graph", _graph_text(n, arcs, arrow=True), ["laplacian", "@", "--digraph"],
        check="digraph", facts=(n, arcs))

    a = rng.choice((2, 3, 4, 6))
    gammas = (a, a * rng.choice((1, 2, 5)))
    gens, d = graded_corank_one(rng, 3, gammas)
    add("lat", _columns_text(3, gens), ["decompose", "@"], check="decompose", facts=(gammas, d))

    m = cb_matrix(rng, 4)
    add("lat", _matrix_text(m), ["cb3", "structure", "@"], check="cb-matrix")
    scale = [rng.randint(1, 3) for _ in range(3)]
    add("mat", _matrix_text([[x * c for x, c in zip(r, scale)] for r in cb_matrix(rng, 3)]),
        ["cb3", "findhull", "@"], check="cb-matrix")
    add("mat", _matrix_text(cb_matrix(rng, 4)), ["cb3", "check", "@"], check="cb-check")

    box = [rng.randint(1, 3) for _ in range(3)]
    corners = [[box[i] * ((c >> i) & 1) for i in range(3)] for c in range(8)]
    inner = [[rng.randint(0, b) for b in box] for _ in range(2)]
    u = unimodular(rng, 3, 4)
    shift = [rng.randint(-2, 2) for _ in range(3)]
    pts = [[sum(u[i][t] * p[t] for t in range(3)) + shift[i] for i in range(3)]
           for p in corners + inner]
    add("pts", _columns_text(3, pts), ["volume", "@"], check="volume", facts=6 * prod(box))

    # inputs that must fail: 1 for a violated precondition, 2 for bad input
    add("lat", _columns_text(3, lattice_with_torsion(rng, 3, (1, 2, 2))), ["decompose", "@"], 1)
    split = ((0, 1, rng.randint(1, 3)), (2, 3, rng.randint(1, 3)))
    add("graph", _graph_text(4, split), ["laplacian", "@"], 1)
    add("mat", "2 2\n1 x\n3 4\n", ["snf", "@"], 2)
    add("graph", _graph_text(*graph), ["laplacian", "@", "--digraph"], 2)
    add("mat", _matrix_text([[r[0] + 1] + list(r[1:]) for r in cb_matrix(rng, 3)]),
        ["cb3", "check", "@"], 1)
    return out


CLI_CYCLES = 24


def cli_jobs(rng, cycles, workdir: Path):
    jobs = []
    for k in range(cycles):
        for name, text, argv, code, check, facts in _cli_cycle(rng, k):
            (workdir / name).write_text(text)
            jobs.append(Job("cli", (argv, code, check, facts)))
    return jobs


def cli_warmup(rng, workdir: Path):
    rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    (workdir / "warmup.mat").write_text(_matrix_text(rows))
    return Job("cli", (("snf", "warmup.mat"), 0, "snf", rows))


# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    kinds: dict
    make: Callable  # (seed, workdir) -> (warm-up job, jobs)
    trace_jobs: int  # jobs in one traced pass (a prefix of the pool)


def _seeded(seed, name):
    return random.Random(f"{name}:{seed}")


WORKLOADS = {
    "toppling": Workload(
        TOPPLING_KINDS,
        lambda seed, _: (toppling_warmup(_seeded(seed, "toppling-warmup")),
                         toppling_jobs(_seeded(seed, "toppling"), TOPPLING_CYCLES)),
        trace_jobs=len(TOPPLING_CYCLE) * 2,
    ),
    "invariants": Workload(
        INVARIANTS_KINDS,
        lambda seed, _: (invariants_warmup(_seeded(seed, "invariants-warmup")),
                         invariants_jobs(_seeded(seed, "invariants"), 4)),
        trace_jobs=31,  # one cycle
    ),
    "cli-batch": Workload(
        CLI_KINDS,
        lambda seed, workdir: (cli_warmup(_seeded(seed, "cli-warmup"), workdir),
                               cli_jobs(_seeded(seed, "cli"), CLI_CYCLES, workdir)),
        trace_jobs=50,  # two cycles of CLI calls
    ),
}
