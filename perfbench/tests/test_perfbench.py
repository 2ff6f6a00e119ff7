"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from itertools import product

import pytest

import run
from checks import CheckFailed, cli_canonical, cyclic_subgroup_count, digest, expect
from compare import compare
from tracer import Tracer, aggregate, self_times
from workloads import WORKLOADS, Job, Kind, Workload


def _pool(name, seed, workdir):
    workdir.mkdir()
    warmup, jobs = WORKLOADS[name].make(seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return warmup, jobs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = _pool(name, 7, tmp_path / "a")
    assert first == _pool(name, 7, tmp_path / "b")
    assert first != _pool(name, 8, tmp_path / "c")


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["a", 0, 0.0, 10.0, None],
        ["b", 0, 1.0, 4.0, 0],
        ["d", 0, 2.0, 3.0, 1],
        ["c", 0, 5.0, 9.0, 0],
        ["x", 1, 20.0, 30.0, None],
        ["y", 1, 21.0, 25.0, 4],
        ["z", 1, 24.0, 26.0, 4],  # overlaps y: the union 21..26 is covered
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 5.0, 4.0, 2.0]
    totals = aggregate(spans + [["b", 2, 40.0, 41.5, None]])
    assert totals["b"] == [3.5, 2]


def test_tracer_records_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: inner() + 1)
    assert outer() == 2
    assert tracer.spans == [["outer", None, 0.0, 6.0, None], ["inner", None, 1.0, 3.0, 0]]
    assert dict(aggregate(tracer.spans)) == {"outer": [4.0, 1], "inner": [2.0, 1]}


def _namespaces():
    mods = {n: m for n, m in sys.modules.items() if n == "latkit" or n.startswith("latkit.")}
    out = {}
    for name, mod in mods.items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("latkit"):
                for meth, fn in list(vars(value).items()):
                    out[(name, attr, meth)] = fn
    return out


def test_tracer_patches_every_namespace_and_restores_originals():
    lk = run.import_latkit()
    before = _namespaces()
    original = lk.ideal.saturate_variables
    tracer = Tracer()
    with tracer:
        # bound by name in graphs and cli, and defined in ideal
        for mod in (lk.ideal, lk.graphs, lk.cli, lk):
            assert mod.saturate_variables is not original
        assert lk.Lattice.basis is not before[("latkit.lattice", "Lattice", "basis")]
        lk.torsion_order(lk.Lattice(2, [(2, 0), (0, 3)]))
    names = [span[0] for span in tracer.spans]
    assert "lattice.critical_group" in names and "exactmat.smith_normal_form" in names
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_digest_ignores_elapsed_ms():
    a = json.dumps({"schema": "latkit/1", "degree": "14", "elapsed_ms": "3"})
    b = json.dumps({"schema": "latkit/1", "degree": "14", "elapsed_ms": "250"})
    c = json.dumps({"schema": "latkit/1", "degree": "15", "elapsed_ms": "3"})
    assert digest(cli_canonical(0, a, "")) == digest(cli_canonical(0, b, ""))
    assert digest(cli_canonical(0, a, "")) != digest(cli_canonical(0, c, ""))


def _planted(lk, data):
    return data + 1 if data == 3 else data


PLANTED = Workload(
    kinds={"echo": Kind(
        call=_planted,
        check=lambda data, out: expect(out == data, f"{out} != {data}"),
        canon=lambda out: out,
    )},
    make=lambda seed, workdir: (Job("echo", 0), [Job("echo", i) for i in range(10)]),
    trace_jobs=10,
)


def test_planted_wrong_output_is_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bench = run.Run("planted", PLANTED, seed=5, workdir=tmp_path / "work")
    bench.setup()
    latencies = bench.timed(seconds=0)
    assert len(latencies) == 10  # one median per pool job
    # job 3 of the pool is wrong on each of the ten passes through it
    assert len(bench.failures) == run.MIN_JOBS // 10
    assert bench.attempted == run.MIN_JOBS + run.SETUP_REPEATS
    assert all("job 3 (echo): 4 != 3" == f for f in bench.failures)


def test_real_checks_catch_wrong_outputs():
    lk = run.import_latkit()
    trees = WORKLOADS["invariants"].kinds["trees"]
    data = (4, ((0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 1)))
    count = trees.call(lk, data)
    trees.check(data, count)
    with pytest.raises(CheckFailed):
        trees.check(data, count + 1)
    _, failure = run.execute(lk, WORKLOADS["invariants"], Job("trees", data), "0" * 64)
    assert failure == "output differs from reference digest"


def test_cyclic_subgroup_count_matches_enumeration():
    for factors in [(4, 6), (2, 2, 4), (12,), (3, 9)]:
        elements = list(product(*(range(f) for f in factors)))
        subgroups = set()
        for x in elements:
            cyc, y = set(), tuple(0 for _ in factors)
            while y not in cyc:
                cyc.add(y)
                y = tuple((a + b) % f for a, b, f in zip(y, x, factors))
            subgroups.add(frozenset(cyc))
        assert cyclic_subgroup_count(factors) == len(subgroups)


def _record(optimize):
    return {"workload": "toppling", "provenance": {"optimize": optimize},
            "metrics": {"jobs_per_s": {"value": 10.0, "unit": "1/s"}}}


def test_compare_refuses_mixed_optimize_flags():
    assert compare(_record(0), _record(0)) == ["jobs_per_s: 10 -> 10 1/s (1.000)"]
    with pytest.raises(ValueError, match="optimize"):
        compare(_record(0), _record(1))
