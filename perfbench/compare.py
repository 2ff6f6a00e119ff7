"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py BASE.json CHANGED.json

The files are the `.perfbench_out/result-*.json` records that run.py
writes. Each metric is printed with both values and changed / base.
Results of different workloads, or taken with different
`sys.flags.optimize`, are refused with exit code 2: `-O` strips latkit's
proof checks, which are part of the measured program.
"""

from __future__ import annotations

import json
import sys


def compare(base, changed):
    """Lines of the comparison; ValueError if the runs are not comparable."""
    flags = base["provenance"]["optimize"], changed["provenance"]["optimize"]
    if flags[0] != flags[1]:
        raise ValueError(f"results taken with different optimize flags: {flags[0]} and {flags[1]}")
    if base["workload"] != changed["workload"]:
        raise ValueError(f"different workloads: {base['workload']} and {changed['workload']}")
    lines = []
    for name, entry in base["metrics"].items():
        other = changed["metrics"].get(name)
        if other is None:
            lines.append(f"{name}: only in the base result")
            continue
        a, b = entry["value"], other["value"]
        ratio = f"{b / a:.3f}" if a else "-"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {entry['unit']} ({ratio})")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, changed = (json.loads(open(path).read()) for path in argv)
    try:
        lines = compare(base, changed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
