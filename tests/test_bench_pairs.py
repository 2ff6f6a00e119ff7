"""scripts/bench_pairs.py records a checkout's commit only when the
checkout is that commit exactly."""

import importlib.util
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
