"""Run interleaved parent/change pairs of the benchmark and write a BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label normal_forms \
        --workload toppling:1:10 --workload toppling:7:2 --workload cli-batch:1:10 \
        --trace toppling --claim toppling:1:jobs_per_s --note "what the change does"

Each `--workload NAME:SEED:PAIRS` runs `perfbench/run.py` PAIRS times in
each checkout, alternating which side goes first (pair 1 runs the parent
first, pair 2 the change first, and so on). Each `--trace NAME` adds two
traced runs (`--trace 1`, seed 1) per side, in the order parent, change,
change, parent, so that a drift in machine load reaches both sides alike.
Both checkouts run with this interpreter for the `run_seconds` of the
change's BENCHMARK.json. `<side>_commit` is the HEAD a clean checkout
runs and null for one with uncommitted changes, which `<side>_dirty`
marks (see git_state). `src_lines` holds each side's line count of
`src/latkit/*.py`, as `wc -l` counts it.

The output, `BENCH_<label>.json` in the change checkout unless `--out`
says otherwise, holds every run: per workload and end-to-end metric the
runs of each side, their median and quartiles
(`statistics.quantiles(n=4, method="inclusive")`), the pairs the change
won (ties count for neither side) and the ratio of the medians, and, for
a metric with a `bound` in BENCHMARK.json, two flags: `unresolved` when
the parent's (q3 - q1) / median exceeds the bound and not every change
run beats every parent run, `worse_than_bound` when the change median is
worse than the parent median by more than bound * parent median; per
traced workload the record of each traced run and the same summary of
every per-layer metric, the two traced runs of a side paired in the
order they ran. Values and ratios keep 6 significant digits and counts
stay exact. It is rewritten after every pair and traced run, so an
interrupted comparison keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout, workload, seed, seconds, trace):
    """The result record that one run of perfbench/run.py leaves in
    the checkout's .perfbench_out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    record = checkout / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


# untracked files under these directories change what a run measures
SOURCE_DIRS = ("src/", "perfbench/", "scripts/")


def git_state(checkout, out):
    """(commit, dirty) of a checkout: HEAD and False when the checkout is
    HEAD exactly, None and True when it is not, None and None outside a
    git repository. A checkout is dirty when a tracked file differs from
    HEAD or an untracked file lies in SOURCE_DIRS; the BENCH file out and
    the runs' .perfbench_out/ do not count."""
    def git(*args):
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout if done.returncode == 0 else None

    head, top = git("rev-parse", "HEAD"), git("rev-parse", "--show-toplevel")
    status = git("status", "--porcelain", "-z", "--untracked-files=all")
    if head is None or top is None or status is None:
        return None, None
    top = Path(top.strip()).resolve()
    skip = {out.resolve().relative_to(top).as_posix()} if out.resolve().is_relative_to(top) else set()
    # entries are "XY path"; a rename or copy is followed by its old path
    entries = iter(status.split("\0"))
    for entry in entries:
        code, path = entry[:2], entry[3:]
        if code[:1] in ("R", "C"):
            next(entries)
        if not entry or path in skip or path.startswith(".perfbench_out/"):
            continue
        if code != "??" or path.startswith(SOURCE_DIRS):
            return None, True
    return head.strip(), False


def src_lines(checkout):
    """Newlines in the checkout's src/latkit/*.py files, the total of
    `wc -l src/latkit/*.py`."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "latkit").glob("*.py"))


def sig(value):
    """value to 6 significant digits, so that a sub-millisecond time keeps
    its resolution; counts stay exact ints."""
    return value if isinstance(value, int) else float(f"{value:.6g}")


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"runs": runs, "median": sig(median), "q1": sig(q1), "q3": sig(q3)}


def metric_entry(spec, parent_runs, change_runs):
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))
    entry = {"unit": spec["unit"], "better": spec["better"],
             "parent": summary(parent_runs), "change": summary(change_runs),
             "change_wins": f"{wins}/{len(change_runs)}"}
    # a layer that a workload never calls reads 0 on both sides
    parent_median = entry["parent"]["median"]
    entry["median_ratio"] = sig(entry["change"]["median"] / parent_median) if parent_median else None
    if "bound" in spec:  # end-to-end metrics only
        bound, spread = spec["bound"], entry["parent"]["q3"] - entry["parent"]["q1"]
        beats_all = (min(change_runs) > max(parent_runs) if higher
                     else max(change_runs) < min(parent_runs))
        entry["unresolved"] = spread > bound * parent_median and not beats_all
        change_median = entry["change"]["median"]
        loss = parent_median - change_median if higher else change_median - parent_median
        entry["worse_than_bound"] = loss > bound * parent_median
    return entry


def workload_entry(name, seed, seconds, specs, results):
    """results[side] is a list of result records, one per pair."""
    entry = {
        "workload": name, "seed": seed, "pairs": len(results["change"]), "seconds": seconds,
        "error_rate": {side: [r["failed"] / r["attempted"] for r in results[side]] for side in SIDES},
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "source_sha256": {
            side: sorted({r["provenance"]["source_sha256"] for r in results[side]}) for side in SIDES
        },
        "metrics": {},
    }
    for spec in specs:
        runs = {
            side: [sig(r["metrics"][spec["name"]]["value"]) for r in results[side]]
            for side in SIDES
        }
        entry["metrics"][spec["name"]] = metric_entry(spec, runs["parent"], runs["change"])
    return entry


def traced_entry(specs, records):
    """records[side] holds the traced runs of one workload, in the order
    they ran; the metrics summarize the runs both sides have made."""
    n = min(len(records[side]) for side in SIDES)
    entry = {
        "runs": {
            side: [{k: r[k] for k in ("correct", "traced_passes", "bypassed")} for r in records[side]]
            for side in SIDES
        },
        "metrics": {},
    }
    for spec in specs if n else ():
        runs = {
            side: [sig(r["metrics"][spec["name"]]["value"]) for r in records[side][:n]]
            for side in SIDES
        }
        entry["metrics"][spec["name"]] = metric_entry(spec, runs["parent"], runs["change"])
    return entry


def parse_workload(text):
    name, seed, pairs = text.split(":")
    return name, int(seed), int(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workload", action="append", type=parse_workload, default=[],
                        metavar="NAME:SEED:PAIRS")
    parser.add_argument("--trace", action="append", default=[], metavar="NAME")
    parser.add_argument("--claim", metavar="NAME:SEED:METRIC", help="the metric a gain is claimed on")
    parser.add_argument("--note", default="", help="one sentence on what the change does")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    specs, seconds = declared["end_to_end"], declared["run_seconds"]
    out = args.out or checkouts["change"] / f"BENCH_{args.label}.json"
    bench = {"label": args.label, "change": args.note}
    for side in SIDES:
        bench[f"{side}_commit"], bench[f"{side}_dirty"] = git_state(checkouts[side], out)
    bench["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
    bench.update({
        "machine": f"{os.cpu_count()}-vCPU {platform.system()}, Python {platform.python_version()}, "
                   "one process per run",
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> --seconds {seconds} "
                   "--trace 0",
        "protocol": "interleaved parent/change pairs; odd pairs ran the parent first, even pairs "
                    "the change first; quartiles by statistics.quantiles(n=4, method='inclusive'); "
                    "change_wins counts pairs where the change was better, ties for neither",
        "claimed": None,
        "end_to_end": [],
        "traced_pass": {
            "command": f"python3 perfbench/run.py --workload <w> --seed 1 --seconds {seconds} "
                       "--trace 1",
            "note": "self_s and calls are per traced pass; two runs per side, in the order "
                    "parent, change, change, parent; change_wins pairs the first runs of the "
                    "two sides and then the second runs",
        },
    })
    if args.claim:
        name, seed, metric = args.claim.split(":")
        bench["claimed"] = {"workload": name, "seed": int(seed), "metric": metric}

    def save():
        out.write_text(json.dumps(bench, indent=1) + "\n")

    for name, seed, pairs in args.workload:
        results = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else reversed(SIDES):
                results[side].append(run_bench(checkouts[side], name, seed, seconds, 0))
            entry = workload_entry(name, seed, seconds, specs, results)
            if k == 0:
                bench["end_to_end"].append(entry)
            else:
                bench["end_to_end"][-1] = entry
            save()
            ratio = entry["metrics"]["jobs_per_s"]["median_ratio"]
            print(f"{name} seed {seed}: pair {k + 1}/{pairs}, jobs_per_s median ratio {ratio}",
                  file=sys.stderr)
    for name in args.trace:
        records = {side: [] for side in SIDES}
        for side in SIDES + SIDES[::-1]:
            records[side].append(run_bench(checkouts[side], name, 1, seconds, 1))
            bench["traced_pass"][name] = traced_entry(declared["per_layer"], records)
            save()
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
