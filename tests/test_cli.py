import json
from pathlib import Path

import pytest

from latkit import cli

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "latkit/1"
    assert "elapsed_ms" in payload
    return payload


def test_snf_identity(capsys):
    p = run_json(capsys, "snf", str(DATA / "identity3.mat"))
    assert p["command"] == "snf"
    assert p["gamma"] == ["1", "1", "1"]
    assert p["rank"] == "3"
    assert p["P"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_torsion(capsys):
    p = run_json(capsys, "torsion", str(DATA / "torsion2.lat"))
    assert p["torsion_order"] == "2"
    assert p["invariant_factors"] == ["2"]
    assert p["rank"] == "2"


def test_degree_lattice_breakdown(capsys):
    p = run_json(capsys, "degree", "lattice", str(DATA / "rank4_z8.lat"))
    assert p["degree"] == "125"
    assert p["torsion_order"] == "5"
    assert p["normalized_volume"] == "200"
    assert p["defining_torsion"] == "8"


def test_degree_lattice_with_grading(capsys):
    p = run_json(
        capsys, "degree", "lattice", str(DATA / "torsion2.lat"), "--grading", "5,6,7"
    )
    assert p["degree"] == "14"
    assert p["grading"] == ["5", "6", "7"]


def test_degree_toric(capsys):
    p = run_json(capsys, "degree", "toric", str(DATA / "unit_cycle_points.mat"))
    assert p["degree"] == "11"
    assert p["torsion_free"] is True


def test_degree_matrix(capsys):
    p = run_json(capsys, "degree", "matrix", str(DATA / "nearly_regular4.mat"))
    assert p["degree"] == "31"


def test_degree_ideal(capsys):
    p = run_json(capsys, "degree", "ideal", str(DATA / "affine_curve.ideal"))
    assert p["dimension"] == "1"
    # the input ideal is used as given, without saturating first
    assert p["degree"] == "8"


def test_degree_grading_rejected_elsewhere(capsys):
    code, out, err = run(
        capsys, "degree", "toric", str(DATA / "unit_cycle_points.mat"), "--grading", "1,1"
    )
    assert code == 2
    assert "error:" in err


def test_saturate_curve_ideal(capsys):
    p = run_json(capsys, "saturate", str(DATA / "affine_curve.ideal"))
    texts = [g["text"] for g in p["generators"]]
    assert texts == ["t1^2 - t2*t3", "t1*t3^2 - 1", "t2*t3^3 - t1"]


def test_hull_of_matrix(capsys):
    p = run_json(capsys, "hull", str(DATA / "kernel235.mat"))
    texts = [g["text"] for g in p["generators"]]
    assert texts[0] == "t1 - t2"
    assert len(texts) == 2  # reduced basis of the hull


def test_classify(capsys):
    p = run_json(capsys, "classify", str(DATA / "nearly_regular4.mat"))
    for key in (
        "pure_binomial",
        "full_support_binomial",
        "critical",
        "positive_critical",
        "generalized_critical",
        "generalized_positive",
    ):
        assert p[key] is True
    assert p["right_kernel_witness"] == ["1", "1", "1", "1"]
    assert p["left_kernel_witness"] == ["20", "24", "31", "25"]

    p = run_json(capsys, "classify", str(DATA / "kernel211.mat"))
    assert p["generalized_positive"] is True
    assert p["positive_critical"] is False
    assert p["right_kernel_witness"] == ["2", "1", "1"]


def test_laplacian_basic(capsys):
    p = run_json(capsys, "laplacian", str(DATA / "demo4.graph"))
    assert p["laplacian"][0] == ["3", "-1", "-2", "0"]
    assert p["sandpile_order"] == "67"
    assert p["sandpile_invariant_factors"] == ["67"]
    assert p["spanning_trees"] == "67"


def test_laplacian_full_report(capsys):
    p = run_json(capsys, "laplacian", str(DATA / "demo4.graph"), "--full-report")
    assert p["laplacian_ideal_degree"] == "67"
    assert p["toppling_ideal_degree"] == "67"
    assert p["hull_equals_toppling"] is True
    assert p["is_lattice_ideal"] is False
    assert p["column_support_sizes"] == ["3", "4", "4", "3"]
    assert p["minimal_generators"] == "4"
    assert len(p["hull_generators"]) == 6
    assert p["hull_generators"][0]["text"] == "t1^3 - t2*t3^2"


def test_laplacian_digraph(capsys):
    p = run_json(capsys, "laplacian", str(DATA / "demo4_digraph.graph"), "--digraph")
    assert p["laplacian"] == [
        ["5", "-4", "0", "-1"],
        ["0", "1", "-1", "0"],
        ["0", "-1", "1", "0"],
        ["-3", "0", "-1", "4"],
    ]
    assert p["strongly_connected"] is False


def test_laplacian_digraph_flag_mismatch(capsys):
    code, out, err = run(capsys, "laplacian", str(DATA / "demo4.graph"), "--digraph")
    assert code == 2
    code, out, err = run(capsys, "laplacian", str(DATA / "demo4_digraph.graph"))
    assert code == 2


def test_laplacian_digraph_full_report_rejected(capsys):
    # the report is for undirected graphs; the flag is not silently dropped
    code, out, err = run(
        capsys, "laplacian", str(DATA / "demo4_digraph.graph"), "--digraph", "--full-report", "--json"
    )
    assert (code, out, err) == (2, "", "error: --full-report does not apply to --digraph\n")


def test_decompose(capsys):
    p = run_json(capsys, "decompose", str(DATA / "torsion2.lat"))
    assert p["torsion_order"] == "2"
    assert p["grading"] == ["5", "6", "7"]
    assert p["total_degree"] == "14"
    assert [(o["size"], o["degree"]) for o in p["orbits"]] == [
        ("1", "7"),
        ("1", "7"),
    ]


def test_cb3_structure(capsys):
    p = run_json(capsys, "cb3", "structure", str(DATA / "torsion2.lat"))
    assert p["case"] == "b"
    assert p["pure_exponents"] == ["4", "4", "4"]
    assert p["matrix"] == [
        ["4", "-2", "-2"],
        ["-1", "4", "-3"],
        ["-2", "-2", "4"],
    ]
    assert p["critical_binomials"][0]["text"] == "t1^4 - t2*t3^2"


def test_cb3_findhull(capsys):
    p = run_json(capsys, "cb3", "findhull", str(DATA / "kernel211.mat"))
    assert p["matrix"] == [
        ["4", "-1", "-3"],
        ["-1", "2", "-1"],
        ["-1", "-2", "3"],
    ]
    texts = [g["text"] for g in p["hull_generators"]]
    assert "t1^4 - t2*t3" in texts


def test_cb3_check(capsys, tmp_path):
    f = tmp_path / "cb.mat"
    f.write_text("3 3\n4 -2 -2\n-1 4 -3\n-2 -2 4\n")
    p = run_json(capsys, "cb3", "check", str(f))
    assert p["syzygies_hold"] is True
    assert p["lattice_ideal"] is True
    assert p["minimal_generators"] == "3"
    assert p["complete_intersection"] is False


def test_cb3_check_rejects_non_cb(capsys):
    # row sums are not zero for this input
    code, out, err = run(capsys, "cb3", "check", str(DATA / "kernel235.mat"), "--json")
    assert code == 1
    assert "error:" in err


def test_cb3_max_iter(capsys):
    code, out, err = run(
        capsys, "cb3", "structure", str(DATA / "torsion2.lat"), "--max-iter", "3"
    )
    assert code == 1


def test_volume(capsys):
    p = run_json(capsys, "volume", str(DATA / "segment_pair.mat"))
    assert p["normalized_volume"] == "2"


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n1 0\n0 1\n"))
    p = run_json(capsys, "snf", "-")
    assert p["input"] == "-"
    assert p["gamma"] == ["1", "1"]


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "snf", str(DATA / "demo4.graph"))
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "snf", str(tmp_path / "nope.mat"))
    assert code == 2


def test_precondition_exit_1(capsys):
    code, out, err = run(capsys, "decompose", str(DATA / "affine_curve.lat"))
    assert code == 1
    assert "grading" in err


def test_human_output(capsys):
    code, out, err = run(capsys, "torsion", str(DATA / "torsion2.lat"))
    assert code == 0
    assert "torsion_order: 2" in out
    # human mode never prints JSON braces at the top level
    assert not out.lstrip().startswith("{")


def test_human_output_has_no_trailing_whitespace(capsys, tmp_path):
    # a tree has a trivial sandpile group and identity3 spans a
    # torsion-free lattice: both print an empty list of invariant factors
    path = tmp_path / "path3.graph"
    path.write_text("3\n1 2 1\n2 3 1\n")
    for argv, empty in (
        (("laplacian", str(path)), "sandpile_invariant_factors:"),
        (("torsion", str(DATA / "identity3.mat")), "invariant_factors:"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        lines = out.splitlines()
        assert empty in lines
        assert [line for line in lines if line != line.rstrip()] == []


def test_human_output_prints_none_for_a_missing_witness(capsys, tmp_path):
    # both kernels are spanned by (1, -1), which no scaling makes positive
    path = tmp_path / "ones.mat"
    path.write_text("2 2\n1 1\n1 1\n")
    code, out, err = run(capsys, "classify", str(path))
    assert code == 0, err
    lines = out.splitlines()
    assert "generalized_positive: no" in lines
    assert "right_kernel_witness: none" in lines
    assert "left_kernel_witness: none" in lines


def test_human_output_renders_binomials(capsys):
    code, out, err = run(capsys, "saturate", str(DATA / "affine_curve.ideal"))
    assert code == 0
    assert "t1^2 - t2*t3" in out


def test_json_has_no_raw_ints(capsys):
    # integers are serialized as decimal strings end to end
    p = run_json(capsys, "degree", "lattice", str(DATA / "rank4_z8.lat"))

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert not isinstance(x, (int, float)) or isinstance(x, bool), x

    walk(p)


def _failing_handler(exc):
    def handler(args):
        raise exc

    return handler


def test_internal_error_exit_3(capsys, monkeypatch):
    from latkit.errors import InternalError

    monkeypatch.setattr(cli, "_cmd_snf", _failing_handler(InternalError("lead must survive")))
    code, out, err = run(capsys, "snf", str(DATA / "identity3.mat"), "--json")
    assert code == 3
    assert out == ""
    assert err == "error: internal: lead must survive\n"


def test_unexpected_exception_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_snf", _failing_handler(RuntimeError("first\nsecond")))
    code, out, err = run(capsys, "snf", str(DATA / "identity3.mat"))
    assert code == 3
    assert out == ""
    assert err == "error: internal: RuntimeError: first second\n"
    assert "Traceback" not in err


def test_cb3_internal_check_exit_3(capsys, monkeypatch, tmp_path):
    # a planted fault trips a structure-theorem check inside cb3: exit 3
    # with the check's own message on one line
    import latkit.cb3 as cb3

    critical_data = cb3._critical_data

    def doubled(lat, index, cap):
        a, tail = critical_data(lat, index, cap)
        return 2 * a, tuple(2 * x for x in tail)

    monkeypatch.setattr(cb3, "_critical_data", doubled)
    code, out, err = run(capsys, "cb3", "findhull", str(DATA / "kernel211.mat"), "--json")
    assert (code, out) == (3, "")
    assert err == "error: internal: the assembled matrix must generate the same column lattice\n"

    f = tmp_path / "cb.mat"
    f.write_text("3 3\n4 -2 -2\n-1 4 -3\n-2 -2 4\n")
    monkeypatch.setattr(cb3, "poly_mul", lambda p, q: {(0, 0, 1): 1})
    code, out, err = run(capsys, "cb3", "check", str(f), "--json")
    assert (code, out) == (3, "")
    assert err == "error: internal: the cyclic syzygies must expand to zero\n"


def test_broken_pipe_is_quiet(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_snf", _failing_handler(BrokenPipeError(32, "Broken pipe")))
    code, out, err = run(capsys, "snf", str(DATA / "identity3.mat"))
    assert code == 141
    assert out == err == ""


def test_closed_stdout_is_quiet():
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    # a pipe whose reader is already gone: the first write fails
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "latkit.cli", "snf", str(DATA / "identity3.mat"), "--json"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(w)
    assert done.returncode == 141
    assert done.stderr == b""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["snf"], "error: the following arguments are required: file\n"),
        (["degree", "bogus", "x"], "error: argument kind: invalid choice: 'bogus'"),
        (["snf", "x", "--nope"], "error: unrecognized arguments: --nope\n"),
        (["frob"], "error: argument command: invalid choice: 'frob'"),
    ],
)
def test_bad_argv_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1
    assert "usage:" not in err


def test_help_prints_usage_and_returns_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: latkit") and "batch" in out
    assert err == ""
    code, out, err = run(capsys, "degree", "-h")
    assert code == 0
    assert out.startswith("usage: latkit degree")


# one call per subcommand and mode, with the options each one takes
EVERY_SUBCOMMAND = [
    ["snf", str(DATA / "kernel235.mat")],
    ["torsion", str(DATA / "torsion2.lat")],
    ["degree", "lattice", str(DATA / "rank4_z8.lat")],
    ["degree", "lattice", str(DATA / "torsion2.lat"), "--grading", "5,6,7"],
    ["degree", "toric", str(DATA / "unit_cycle_points.mat")],
    ["degree", "ideal", str(DATA / "affine_curve.ideal")],
    ["degree", "matrix", str(DATA / "nearly_regular4.mat")],
    ["saturate", str(DATA / "torsion2.ideal")],
    ["hull", str(DATA / "kernel235.mat")],
    ["classify", str(DATA / "kernel211.mat")],
    ["laplacian", str(DATA / "demo4.graph"), "--full-report"],
    ["laplacian", str(DATA / "demo4_digraph.graph"), "--digraph"],
    ["decompose", str(DATA / "torsion2.lat")],
    ["cb3", "structure", str(DATA / "torsion2.lat")],
    ["cb3", "findhull", str(DATA / "kernel211.mat")],
    ["cb3", "check", str(DATA / "kernel211.mat")],
    ["volume", str(DATA / "segment_pair.mat")],
]
FAILING = [
    (["decompose", str(DATA / "affine_curve.lat")], 1),
    (["snf", str(DATA / "demo4.graph")], 2),
    (["snf", "x", "--nope"], 2),
]


def _masked(capsys, argv):
    """(exit code, stdout without its elapsed_ms line, stderr) of one main call."""
    code, out, err = run(capsys, *argv)
    lines = [ln for ln in out.splitlines() if "elapsed_ms" not in ln]
    return code, lines, err


def test_cached_parser_matches_a_fresh_parser(capsys, monkeypatch):
    calls = []
    for argv in EVERY_SUBCOMMAND:
        calls += [argv + ["--json"], argv]
    for argv, _ in FAILING:
        calls += [argv, argv + ["--json"]]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli._build_parser)
        expected = {tuple(argv): _masked(capsys, argv) for argv in calls}
    assert {c for c, _, _ in expected.values()} == {0, 1, 2}

    cli._parser.cache_clear()
    # every call twice, each success followed by a failure
    failing = [argv for argv, _ in FAILING]
    for k in range(2):
        for i, argv in enumerate(calls):
            assert _masked(capsys, argv) == expected[tuple(argv)], argv
            bad = failing[(i + k) % len(failing)]
            assert _masked(capsys, bad) == expected[tuple(bad)], bad
    assert cli._parser() is cli._parser()
    assert cli._parser.cache_info().misses == 1

    snf = ["snf", str(DATA / "kernel235.mat"), "--json"]
    with monkeypatch.context() as m:
        m.setattr(cli, "_cmd_snf", _failing_handler(RuntimeError("patched")))
        assert _masked(capsys, snf) == (3, [], "error: internal: RuntimeError: patched\n")
    assert _masked(capsys, snf) == expected[tuple(snf)]


def _batch_records(capsys, text, tmp_path):
    jobs = tmp_path / "jobs.txt"
    jobs.write_text(text)
    code, out, err = run(capsys, "batch", str(jobs))
    assert err == ""
    return code, [json.loads(line) for line in out.splitlines()]


def test_batch_payloads_equal_single_commands(capsys, tmp_path):
    import shlex

    lines = ["# one job per subcommand", ""]
    lines += [shlex.join(argv) for argv in EVERY_SUBCOMMAND]
    lines += ["  ", shlex.join(FAILING[0][0]), "batch jobs.txt", shlex.join(FAILING[2][0])]
    lines += [shlex.join(EVERY_SUBCOMMAND[0] + ["--json"]), "snf 'unclosed"]
    code, records = _batch_records(capsys, "\n".join(lines) + "\n", tmp_path)
    assert code == 2
    jobs = [(k, ln) for k, ln in enumerate(lines, 1) if ln.strip() and not ln.startswith("#")]
    assert [r["line"] for r in records] == [k for k, _ in jobs]
    for (k, line), record in zip(jobs, records):
        assert record["schema"] == "latkit/1"
        assert set(record) == {"schema", "line", "argv", "exit", "payload" if record["exit"] == 0 else "error"}
        if line == "snf 'unclosed":
            assert record["argv"] is None
            assert record["exit"] == 2 and record["error"].startswith("error: ")
            continue
        argv = shlex.split(line)
        assert record["argv"] == argv
        single_code, out, err = run(capsys, *argv, *([] if "--json" in argv else ["--json"]))
        if argv[0] == "batch":
            assert record["exit"] == 2
            assert record["error"] == "error: a batch job cannot run batch"
            continue
        assert record["exit"] == single_code
        if single_code == 0:
            want = json.loads(out)
            del want["elapsed_ms"], record["payload"]["elapsed_ms"]
            assert record["payload"] == want
        else:
            assert record["error"] + "\n" == err
            assert "Traceback" not in err


def test_batch_exit_codes(capsys, tmp_path):
    ok = f"torsion {DATA / 'torsion2.lat'}\n"
    assert _batch_records(capsys, ok, tmp_path)[0] == 0
    code, records = _batch_records(capsys, f"{ok}decompose {DATA / 'affine_curve.lat'}\n", tmp_path)
    assert code == 1 and [r["exit"] for r in records] == [0, 1]
    assert _batch_records(capsys, "# nothing to run\n\n", tmp_path) == (0, [])
    code, out, err = run(capsys, "batch", str(tmp_path / "missing.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1
    code, records = _batch_records(capsys, "snf --help\n", tmp_path)
    assert code == 2 and records[0]["error"].startswith("error: ")


def test_batch_from_stdin_in_a_subprocess(tmp_path):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    jobs = f"snf {DATA / 'identity3.mat'}\n# comment\ncb3 structure {DATA / 'torsion2.lat'} --max-iter 3\n"
    done = subprocess.run(
        [sys.executable, "-m", "latkit.cli", "batch", "-"],
        input=jobs, capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == ""
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(r["line"], r["exit"]) for r in records] == [(1, 0), (3, 1)]
    assert records[0]["payload"]["gamma"] == ["1", "1", "1"]
