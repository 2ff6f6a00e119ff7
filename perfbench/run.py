"""Run one latkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toppling --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client in this single-threaded
process: the next job starts when the previous one has finished. Jobs
cycle through a pool generated from the seed, and every output is checked
against exact identities computed here; with the default seed it is also
checked against the reference digests in `reference/`.

`--trace 0` prints the end-to-end metrics: set-up time (median of
seven imports, input generations and warm-up jobs), jobs per second,
the median and 90th-percentile job latency, and the peak resident set.
The timed phase passes over the pool again and again; each pool job's
latency is the median of its runs, so a slowdown of a shared machine
that lasts a few seconds does not move the metrics. Jobs per second is
the pool size over the sum of those latencies.

`--trace 1` instead alternates untraced and traced passes
over a fixed prefix of the pool and prints, per pass, the self time and
call count of every function in `layers.json`, plus the traced over
untraced wall-time ratio.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the error
rate. The full result, with provenance, goes to
`.perfbench_out/result-<workload>-seed<seed>-trace<t>.json`, and the
spans of the last traced pass next to it. Exit code 2 means the run
could not be made (for example, no `src/latkit` in the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, digest, expect  # noqa: E402
from tracer import Tracer, aggregate, traced_names, write_spans, zero_call_expectations  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_JOBS = 100
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_latkit():
    """Fresh import of latkit from this checkout's `src/`."""
    for name in [n for n in sys.modules if n == "latkit" or n.startswith("latkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        lk = importlib.import_module("latkit")
        importlib.import_module("latkit.cli")  # not imported by the package
    except ImportError as e:
        raise RunError(f"cannot import latkit from {SRC}: {e}") from None
    if not Path(lk.__file__).resolve().is_relative_to(SRC):
        raise RunError(f"latkit imported from {lk.__file__}, not from {SRC}")
    return lk


def load_reference(name, seed):
    """Reference digests of the default seed's outputs, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


def execute(lk, workload, job, expected_digest, tracer=None, job_id=None):
    """Run one job. Returns (program seconds, failure text or None);
    checking happens after the clock stops."""
    kind = workload.kinds[job.kind]
    start = time.perf_counter()
    try:
        if tracer is None:
            out = kind.call(lk, job.data)
        else:
            out = tracer.call(job_id, lambda: kind.call(lk, job.data))
    except (Exception, SystemExit) as e:  # a job that raises is a failed job
        return time.perf_counter() - start, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    try:
        kind.check(job.data, out)
        if expected_digest is not None:
            expect(digest(kind.canon(out)) == expected_digest, "output differs from reference digest")
    except CheckFailed as e:
        return elapsed, str(e)
    return elapsed, None


class Run:
    """One benchmark run: set-up, then the timed or traced phase."""

    def __init__(self, name, workload, seed, workdir):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.bypassed = []
        self.refs = None

    def record(self, label, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append(f"{label}: {failure}")

    def setup(self):
        """Import latkit, generate inputs and finish one warm-up job;
        repeated, and the median time reported. Input files are
        rewritten in place: creating hundreds of new files costs a few
        tenths of a second on an overlay file system, varying 2x from
        run to run."""
        ref = load_reference(self.name, self.seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)  # CLI jobs name their input files relative to it
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lk = import_latkit()
            warmup, jobs = self.workload.make(self.seed, self.workdir)
            _, failure = execute(lk, self.workload, warmup, ref and ref["warmup"])
            times.append(time.perf_counter() - start)
            self.record("warm-up", failure)
        if ref is not None:
            if len(ref["jobs"]) != len(jobs):
                raise RunError(f"reference of {self.name} does not match the job pool; "
                               "run perfbench/make_reference.py")
            self.refs = ref["jobs"]
        self.lk, self.jobs = lk, jobs
        return statistics.median(times)

    def run_job(self, index, tracer=None):
        job = self.jobs[index % len(self.jobs)]
        ref = self.refs[index % len(self.jobs)] if self.refs else None
        elapsed, failure = execute(self.lk, self.workload, job, ref, tracer, index)
        self.record(f"job {index % len(self.jobs)} ({job.kind})", failure)
        return elapsed

    def timed(self, seconds):
        """Per pool job, the median of its latencies over the passes."""
        samples = [[] for _ in self.jobs]
        runs, start = 0, time.perf_counter()
        while runs < max(MIN_JOBS, len(self.jobs)) or time.perf_counter() - start < seconds:
            samples[runs % len(self.jobs)].append(self.run_job(runs))
            runs += 1
        return [statistics.median(s) for s in samples if s]

    def traced(self, seconds):
        """Alternate untraced and traced passes over a fixed prefix of
        the pool until `seconds` have passed; per-pass averages."""
        prefix = range(min(self.workload.trace_jobs, len(self.jobs)))
        ratios, totals, spans = [], {}, []
        start = time.perf_counter()
        while not ratios or time.perf_counter() - start < seconds:
            plain = sum(self.run_job(i) for i in prefix)
            tracer = Tracer()
            with tracer:
                traced = sum(self.run_job(i, tracer) for i in prefix)
            ratios.append(traced / plain)
            for name, (own, calls) in aggregate(tracer.spans).items():
                entry = totals.setdefault(name, [0.0, 0])
                entry[0] += own
                entry[1] += calls
            spans = tracer.spans
        passes = len(ratios)
        metrics = {}
        for stem in traced_names():
            own, calls = totals.get(stem, (0.0, 0))
            metrics[f"{stem}.self_s"] = {"value": own / passes, "unit": "s"}
            metrics[f"{stem}.calls"] = {"value": round(calls / passes), "unit": "count"}
        metrics["trace_overhead"] = {"value": statistics.median(ratios), "unit": "ratio"}
        for stem in zero_call_expectations(self.name):
            if metrics[f"{stem}.calls"]["value"]:
                self.bypassed.append(f"{stem} was called on {self.name}")
        return metrics, spans, passes


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed):
    source = hashlib.sha256()
    for path in sorted((SRC / "latkit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "optimize": sys.flags.optimize,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, WORKLOADS[args.workload], args.seed, OUT / f"work-{args.workload}")
    cwd = os.getcwd()
    try:
        setup_s = run.setup()
        if args.trace:
            metrics, spans, passes = run.traced(args.seconds)
        else:
            latencies = run.timed(args.seconds)
            metrics = {
                "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
                "job_p50_ms": {"value": percentile(latencies, 50) * 1000, "unit": "ms"},
                "job_p90_ms": {"value": percentile(latencies, 90) * 1000, "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(run.workdir, ignore_errors=True)

    result = {
        "correct": not run.failures and not run.bypassed,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  provenance=provenance(args.seed), failures=run.failures,
                  bypassed=run.bypassed)
    if args.trace:
        record["traced_passes"] = passes
        write_spans(spans, OUT / f"spans-{args.workload}-seed{args.seed}.json")
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for failure in run.failures[:20]:
        print(f"failure: {failure}", file=sys.stderr)
    for bypass in run.bypassed:
        print(f"bypass check failed: {bypass}", file=sys.stderr)
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"error_rate: {len(run.failures) / run.attempted:.6f} "
          f"({len(run.failures)} of {run.attempted} jobs)")
    if not args.trace:
        print(f"latency samples: {len(latencies)} pool jobs, each the median of its runs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
