"""Write the reference digests of the default seed's job outputs.

    python3 perfbench/make_reference.py [workload ...]

Runs the warm-up job and every pool job of each workload once with the
default seed, checks each output against its exact identities, and
stores the digest of its canonical form in `reference/<workload>.json`.
Regenerate only when the job pool changes; the digests pin latkit's
outputs, so a library change that alters one is a failed job.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, HERE, OUT, import_latkit
from checks import digest
from workloads import WORKLOADS


def reference(lk, workload, workdir):
    warmup, jobs = workload.make(DEFAULT_SEED, workdir)
    digests = []
    for job in [warmup] + jobs:
        kind = workload.kinds[job.kind]
        out = kind.call(lk, job.data)
        kind.check(job.data, out)
        digests.append(digest(kind.canon(out)))
    return {"seed": DEFAULT_SEED, "warmup": digests[0], "jobs": digests[1:]}


def main(names):
    lk = import_latkit()
    (HERE / "reference").mkdir(exist_ok=True)
    cwd = os.getcwd()
    for name in names or sorted(WORKLOADS):
        workdir = OUT / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        try:
            ref = reference(lk, WORKLOADS[name], workdir)
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(ref, indent=0) + "\n")
        print(f"{path.relative_to(HERE.parent)}: {len(ref['jobs'])} jobs")


if __name__ == "__main__":
    main(sys.argv[1:])
