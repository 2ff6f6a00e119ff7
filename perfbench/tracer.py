"""Outside-in tracing of latkit's layers.

The functions listed in layers.json are replaced, by object identity, in
every `latkit.*` module namespace: modules bind names at import time and
some alias them (`rank as matrix_rank`), so patching only the defining
module would miss calls. Listed methods (`Class.method`) are replaced on
their class. Each call records a span (name, job, start, end, parent)
in memory; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())


def _groups(module):
    """(metric stem, attribute names) pairs of one layer; several
    attributes may share one stem, as the fileformats parsers do."""
    fns = LAYERS[module]["functions"]
    if isinstance(fns, dict):
        return [(f"{module}.{group}", attrs) for group, attrs in fns.items()]
    return [(f"{module}.{fn}", [fn]) for fn in fns]


def traced_names():
    """Metric stems of every traced function, in layers.json order."""
    return [stem for module in LAYERS for stem, _ in _groups(module)]


def zero_call_expectations(workload):
    """Metric stems whose call count must be 0 on `workload`."""
    return [
        stem
        for module, layer in LAYERS.items()
        if workload in layer.get("zero_calls_on", ())
        for stem, _ in _groups(module)
    ]


class Tracer:
    """Span recorder that patches latkit while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, job, start, end, parent index]
        self.job = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.job, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "latkit" or n.startswith("latkit.")
        ]
        by_id = {}
        for module in LAYERS:
            owner_module = sys.modules[f"latkit.{module}"]
            for stem, attrs in _groups(module):
                for attr in attrs:
                    cls_name, _, leaf = attr.rpartition(".")
                    if cls_name:
                        cls = getattr(owner_module, cls_name)
                        original = cls.__dict__[leaf]
                        self._patch(cls, leaf, original, self.wrap(stem, original))
                    else:
                        original = getattr(owner_module, leaf)
                        by_id[id(original)] = (original, self.wrap(stem, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def call(self, job, fn):
        """fn() under a root span of job `job`; the library spans of the
        job nest under it."""
        self.job = job
        return self.wrap("job", fn)()


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def aggregate(spans):
    """{name: [self seconds, calls]} over all spans."""
    totals = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry[0] += own
        entry[1] += 1
    return totals


def write_spans(spans, path):
    path.write_text(json.dumps(
        {"fields": ["name", "job", "start", "end", "parent"], "spans": spans},
        separators=(",", ":"),
    ))
