"""scripts/bench_pairs.py records a checkout's commit only when the
checkout is that commit exactly, flags each end-to-end metric against
its bound, and counts each checkout's source lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _git(repo, *args):
    done = subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    # git must not find a repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    (root / "src" / "lib.py").write_text("x = 1\n")
    (root / "BENCH_old.json").write_text("{}\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "first")
    return root


def test_clean_checkout_records_its_commit(repo):
    head = _git(repo, "rev-parse", "HEAD")
    out = repo / "BENCH_new.json"
    assert bench_pairs.git_state(repo, out) == (head, False)
    # neither the BENCH file being written, the runs' output nor an
    # untracked file outside the source directories makes it dirty
    out.write_text("{}\n")
    (repo / ".perfbench_out").mkdir()
    (repo / ".perfbench_out" / "result.json").write_text("{}\n")
    (repo / "notes.txt").write_text("scratch\n")
    assert bench_pairs.git_state(repo, out) == (head, False)
    (repo / "BENCH_old.json").write_text('{"rewritten": 1}\n')
    assert bench_pairs.git_state(repo, repo / "BENCH_old.json") == (head, False)


@pytest.mark.parametrize("change", ["modified", "staged", "deleted", "untracked", "renamed"])
def test_dirty_checkout_records_no_commit(repo, change):
    lib = repo / "src" / "lib.py"
    if change == "modified":
        lib.write_text("x = 2\n")
    elif change == "staged":
        lib.write_text("x = 2\n")
        _git(repo, "add", "src/lib.py")
    elif change == "deleted":
        lib.unlink()
    elif change == "untracked":
        (repo / "scripts").mkdir()
        (repo / "scripts" / "tool.py").write_text("pass\n")
    else:
        _git(repo, "mv", "src/lib.py", "src/renamed.py")
    assert bench_pairs.git_state(repo, repo / "BENCH_new.json") == (None, True)


def test_directory_outside_a_repository(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.git_state(plain, plain / "BENCH_new.json") == (None, None)


def test_src_lines_counts_each_side_like_wc(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    sides = {"parent": ["a\nb\n", "c\n"], "change": ["a\n", "no final newline"]}
    for side, files in sides.items():
        pkg = tmp_path / side / "src" / "latkit"
        (pkg / "sub").mkdir(parents=True)
        for i, text in enumerate(files):
            (pkg / f"m{i}.py").write_text(text)
        # neither other files nor subdirectories count
        (pkg / "notes.txt").write_text("x\n" * 5)
        (pkg / "sub" / "deep.py").write_text("x\n" * 7)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [], "per_layer": [], "run_seconds": 1}\n'
    )
    out = tmp_path / "BENCH_lines.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--label", "lines", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}


HIGHER = {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}


def test_worse_than_bound_follows_the_better_direction():
    # parent median 100; a change median of 74 is 26% worse for a
    # higher-is-better metric, 126 is 26% worse for a lower-is-better one
    parent = [98.0, 100.0, 102.0]
    assert bench_pairs.metric_entry(HIGHER, parent, [73.0, 74.0, 75.0])["worse_than_bound"]
    assert not bench_pairs.metric_entry(HIGHER, parent, [75.0, 76.0, 77.0])["worse_than_bound"]
    assert not bench_pairs.metric_entry(HIGHER, parent, [125.0, 126.0, 127.0])["worse_than_bound"]
    assert bench_pairs.metric_entry(LOWER, parent, [125.0, 126.0, 127.0])["worse_than_bound"]
    assert not bench_pairs.metric_entry(LOWER, parent, [123.0, 124.0, 125.0])["worse_than_bound"]
    assert not bench_pairs.metric_entry(LOWER, parent, [73.0, 74.0, 75.0])["worse_than_bound"]


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles 80 and 120 around a median of 100: a spread of 0.4
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]
    overlapping = [70.0, 90.0, 110.0, 130.0, 150.0]
    for spec in (HIGHER, LOWER):
        assert bench_pairs.metric_entry(spec, parent, overlapping)["unresolved"]
        narrow = bench_pairs.metric_entry(spec, [99.0, 100.0, 101.0], [99.0, 100.0, 101.0])
        assert not narrow["unresolved"] and not narrow["worse_than_bound"]
    # unless every change run beats every parent run
    assert not bench_pairs.metric_entry(HIGHER, parent, [150.0, 160.0, 170.0, 180.0, 190.0])["unresolved"]
    assert not bench_pairs.metric_entry(LOWER, parent, [10.0, 20.0, 30.0, 40.0, 50.0])["unresolved"]
    assert bench_pairs.metric_entry(LOWER, parent, [10.0, 20.0, 30.0, 40.0, 60.0])["unresolved"]


def test_per_layer_metrics_get_no_flags():
    spec = {"name": "exactmat.smith_normal_form.calls", "unit": "count", "better": "lower"}
    entry = bench_pairs.metric_entry(spec, [10, 20, 30], [90, 100, 110])
    assert "unresolved" not in entry and "worse_than_bound" not in entry
