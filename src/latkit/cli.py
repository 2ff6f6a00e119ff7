"""Batch command line front end.

Every subcommand reads one input file (or stdin via `-`), calls the
library, and prints either key/value lines or a JSON report. Integers
in JSON are decimal strings so consumers with 64-bit parsers stay safe.
Exit codes: 0 success, 1 violated math precondition, 2 parse or I/O
problem or a bad command line, 3 internal error (a bug; one
`error: internal: ...` line, never a traceback). A bad command line
prints one `error: ...` line rather than argparse's usage block, and
`main` returns its code instead of raising SystemExit. A closed stdout
ends the run quietly with 141, the status of a process killed by SIGPIPE.

The argument parser is built once per process, on the first call.
`_run` parses and runs one command line and returns its exit code,
payload and error line; `main` and `latkit batch FILE` print what it
returns. `batch` runs each non-blank, non-`#` line of FILE as one
command line (split with `shlex.split`) and prints one JSON line per
job, `{"schema", "line", "argv", "exit"}` plus the job's `payload`
(the `--json` report of the same command) or its `error` line. One
failing job does not stop the batch; it exits with the largest job
exit code, or 2 when FILE cannot be read.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import shlex
import sys
import time
from contextlib import redirect_stdout
from dataclasses import asdict

from . import fileformats
from .cb3 import DEFAULT_EXPONENT_CAP, cb_properties_check, cb_structure, find_hull_gcb3
from .decomp import rational_orbit_report
from .degree import (
    degree_graded_dim1,
    degree_lattice_breakdown,
    degree_matrix_ideal,
    degree_toric,
)
from .errors import InternalError, ParseError, PreconditionError
from .exactmat import IntMatrix, smith_normal_form
from .graphs import (
    WeightedDigraph,
    WeightedGraph,
    _laplacian_report,
    laplacian,
    laplacian_digraph,
    sandpile_group,
)
from .ideal import Binomial, BinomialIdeal, affine_degree, matrix_ideal, saturate_variables
from .lattice import Lattice, critical_group, torsion_order
from .matclass import classify
from .volume import normalized_volume

SCHEMA = "latkit/1"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None


def _binomial_entry(b: Binomial):
    return {"plus": list(b.plus), "minus": list(b.minus), "text": repr(b)}


def _ideal_entries(ideal: BinomialIdeal):
    return [_binomial_entry(b) for b in ideal.reduced_groebner()]


def _matrix_entry(mat: IntMatrix):
    return mat.to_rows()


def _jsonify(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise TypeError(f"unexpected report value {value!r}")


def _human_value(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    return str(value)


def _human_lines(payload, indent=""):
    """Key/value lines of a JSON-ready payload (see `_jsonify`). Values
    are scalars or lists, and a list holds only strings, only matrix
    rows, or only binomial or orbit dicts."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            if all(isinstance(v, str) for v in value):
                # an empty list prints `key:` with no trailing space
                lines.append(" ".join([f"{indent}{key}:", *value]))
            elif all(isinstance(v, list) for v in value) and all(
                isinstance(x, str) for v in value for x in v
            ):
                lines.append(f"{indent}{key}:")
                lines.extend(f"{indent}  {' '.join(str(x) for x in row)}" for row in value)
            else:
                lines.append(f"{indent}{key}:")
                for item in value:
                    if set(item) == {"plus", "minus", "text"}:
                        lines.append(f"{indent}  {item['text']}")
                    else:
                        lines.extend(_human_lines(item, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {_human_value(value)}")
    return lines


def _cmd_snf(args):
    mat = fileformats.parse_matrix(_read_input(args.file))
    dec = smith_normal_form(mat)
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "gamma": list(dec.gamma),
        "rank": dec.rank,
        "P": _matrix_entry(dec.P),
        "Q": _matrix_entry(dec.Q),
    }


def _cmd_torsion(args):
    lat = fileformats.parse_lattice(_read_input(args.file))
    group = critical_group(lat)
    return {
        "ambient_dim": lat.ambient_dim,
        "rank": lat.rank,
        "torsion_order": group.order,
        "invariant_factors": list(group.invariant_factors),
    }


def _parse_grading(raw, length):
    parts = raw.split(",")
    try:
        d = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"grading must be comma-separated integers: {raw!r}") from None
    if len(d) != length:
        raise ParseError(f"grading has {len(d)} entries, expected {length}")
    return d


def _cmd_degree(args):
    text = _read_input(args.file)
    if args.kind == "lattice":
        lat = fileformats.parse_lattice(text)
        if args.grading is not None:
            d = _parse_grading(args.grading, lat.ambient_dim)
            return {"degree": degree_graded_dim1(lat, d), "grading": list(d)}
        return asdict(degree_lattice_breakdown(lat))
    if args.grading is not None:
        raise ParseError("--grading only applies to `degree lattice`")
    if args.kind == "toric":
        mat = fileformats.parse_matrix(text)
        lat = Lattice(mat.rows, [mat.column(j) for j in range(mat.cols)])
        return {
            "degree": degree_toric(mat),
            "torsion_free": torsion_order(lat) == 1,
        }
    if args.kind == "ideal":
        ideal = fileformats.parse_ideal(text)
        dim, deg = affine_degree(ideal)
        return {"dimension": dim, "degree": deg}
    mat = fileformats.parse_matrix(text)
    return {"degree": degree_matrix_ideal(mat)}


def _cmd_saturate(args):
    ideal = fileformats.parse_ideal(_read_input(args.file))
    sat = saturate_variables(ideal)
    return {
        "num_vars": sat.ambient_dim,
        "generators": _ideal_entries(sat),
    }


def _cmd_hull(args):
    mat = fileformats.parse_matrix(_read_input(args.file))
    hull = saturate_variables(matrix_ideal(mat))
    return {
        "num_vars": hull.ambient_dim,
        "generators": _ideal_entries(hull),
    }


def _cmd_classify(args):
    mat = fileformats.parse_matrix(_read_input(args.file))
    return asdict(classify(mat))


def _cmd_laplacian(args):
    graph = fileformats.parse_graph(_read_input(args.file))
    if args.digraph:
        if args.full_report:
            raise ParseError("--full-report does not apply to --digraph")
        if not isinstance(graph, WeightedDigraph):
            raise ParseError("--digraph needs a file with `i > j w` arc lines")
        L = laplacian_digraph(graph)
        return {
            "vertices": graph.vertex_count,
            "laplacian": _matrix_entry(L),
            "strongly_connected": graph.is_strongly_connected(),
        }
    if not isinstance(graph, WeightedGraph):
        raise ParseError("directed graph file needs --digraph")
    L = laplacian(graph)
    if args.full_report:
        rep, top, group = _laplacian_report(graph)
    else:
        group = sandpile_group(graph)
    payload = {
        "vertices": graph.vertex_count,
        "laplacian": _matrix_entry(L),
        "sandpile_invariant_factors": list(group.invariant_factors),
        "sandpile_order": group.order,
        # the weighted matrix-tree theorem: the tree count is the order
        "spanning_trees": group.order,
    }
    if args.full_report:
        payload.update(
            {
                "vanishing_condition": rep.vanishing_condition,
                "laplacian_ideal_degree": rep.laplacian_ideal_degree,
                "toppling_ideal_degree": rep.toppling_ideal_degree,
                "hull_equals_toppling": rep.hull_equals_toppling,
                "is_lattice_ideal": rep.is_lattice,
                "column_support_sizes": list(rep.column_support_sizes),
                "support_hypothesis_applies": rep.support_hypothesis_applies,
                "aci_applies": rep.aci_applies,
                "minimal_generators": rep.minimal_generators,
                "hull_generators": _ideal_entries(top),
            }
        )
    return payload


def _cmd_decompose(args):
    lat = fileformats.parse_lattice(_read_input(args.file))
    return rational_orbit_report(lat).to_report()


def _cmd_cb3(args):
    text = _read_input(args.file)
    cap = args.max_iter
    if args.mode == "structure":
        lat = fileformats.parse_lattice(text)
        cbset, M = cb_structure(lat, cap)
        return {
            "case": cbset.case,
            "permutation": list(cbset.permutation),
            "critical_binomials": [_binomial_entry(b) for b in cbset.binomials],
            "pure_exponents": list(cbset.pure_exponents),
            "matrix": _matrix_entry(M),
        }
    if args.mode == "findhull":
        mat = fileformats.parse_matrix(text)
        M, hull = find_hull_gcb3(mat, cap)
        return {
            "matrix": _matrix_entry(M),
            "hull_generators": _ideal_entries(hull),
        }
    return asdict(cb_properties_check(fileformats.parse_matrix(text)))


def _cmd_volume(args):
    points = fileformats.parse_points(_read_input(args.file))
    return {"normalized_volume": normalized_volume(points)}


class _ArgParser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a
    ParseError, so that it exits 2 with one `error:` line instead of
    printing its usage and raising SystemExit. Subparsers share the
    class."""

    def error(self, message):
        raise ParseError(message)


def _build_parser():
    parser = _ArgParser(
        prog="latkit",
        description="Exact computations with lattice ideals, matrix ideals and graph Laplacians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file, or - for stdin")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(handler=handler)
        return p

    add("snf", "_cmd_snf", "Smith normal form of an integer matrix")
    add("torsion", "_cmd_torsion", "torsion of Z^s modulo a lattice")

    p = sub.add_parser("degree", help="degree of a lattice/toric/binomial/matrix ideal")
    p.add_argument("kind", choices=["lattice", "toric", "ideal", "matrix"])
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--grading", help="comma-separated positive weights (lattice only)")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler="_cmd_degree")

    add("saturate", "_cmd_saturate", "saturate a binomial ideal by the product of variables")
    add("hull", "_cmd_hull", "hull (saturation) of a matrix ideal")
    add("classify", "_cmd_classify", "membership in the six sign-pattern matrix classes")

    p = add("laplacian", "_cmd_laplacian", "Laplacian matrix and sandpile data of a graph")
    p.add_argument("--digraph", action="store_true", help="directed input")
    p.add_argument("--full-report", action="store_true", help="degrees, hull, generator count")

    add("decompose", "_cmd_decompose", "rational orbit report of a graded rank s-1 lattice")

    p = sub.add_parser("cb3", help="critical binomials in three variables")
    p.add_argument("mode", choices=["structure", "findhull", "check"])
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("--max-iter", type=int, default=DEFAULT_EXPONENT_CAP,
                   help="exponent cap for the critical binomial search")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler="_cmd_cb3")

    add("volume", "_cmd_volume", "normalized volume of a lattice polytope")

    p = sub.add_parser("batch", help="run one subcommand per line of a file, JSON lines out")
    p.add_argument("file", help="job file, or - for stdin")
    return parser


@functools.cache
def _parser():
    """The one parser of this process, built on first use."""
    return _build_parser()


def _run(argv, nested=False):
    """Parse one command line and run it.

    Returns (exit code, payload, error line, JSON flag): the payload is
    the JSON-ready report of a successful subcommand and None otherwise;
    the error line is the one `error: ...` line of a failure. Handlers
    are looked up by name at each call, so a replaced `_cmd_*` takes
    effect. `batch` prints its own JSON lines and returns no payload;
    inside a batch (`nested`) it is an error. A BrokenPipeError is left
    to the caller, which owns stdout.
    """
    try:
        args = _parser().parse_args(argv)
        if args.command == "batch":
            if nested:
                raise ParseError("a batch job cannot run batch")
            return _batch(_read_input(args.file)), None, None, False
        started = time.monotonic()
        result = globals()[args.handler](args)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        payload = {"schema": SCHEMA, "command": args.command, "input": args.file}
        payload.update(result)
        payload["elapsed_ms"] = elapsed_ms
        return 0, _jsonify(payload), None, args.json
    except SystemExit:  # -h/--help has printed the usage text
        return 0, None, None, False
    except ParseError as e:
        return 2, None, f"error: {e}", False
    except PreconditionError as e:
        return 1, None, f"error: {e}", False
    except BrokenPipeError:
        raise
    except Exception as e:  # a bug: report it in one line, without a traceback
        detail = str(e) if isinstance(e, InternalError) else f"{type(e).__name__}: {e}"
        return 3, None, f"error: internal: {' '.join(detail.split())}", False


def _batch(text):
    """Run each job line of a batch file's text through `_run` and print
    one JSON line per job; the exit code is the largest of the jobs'."""
    worst = 0
    for k, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            argv = shlex.split(line)
        except ValueError as e:
            argv, code, payload, error = None, 2, None, f"error: cannot split line: {e}"
        else:
            with redirect_stdout(io.StringIO()) as captured:
                code, payload, error, _ = _run(argv, nested=True)
            if captured.getvalue():
                code, error = 2, "error: --help is not available in a batch job"
        record = {"schema": SCHEMA, "line": k, "argv": argv, "exit": code}
        if payload is not None:
            record["payload"] = payload
        else:
            record["error"] = error
        print(json.dumps(record))
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    try:
        code, payload, error, as_json = _run(argv)
        if payload is not None:
            print(json.dumps(payload, indent=2) if as_json else "\n".join(_human_lines(payload)))
        if error is not None:
            print(error, file=sys.stderr)
    except BrokenPipeError:
        _detach_stdout()
        return 141
    return code


def _detach_stdout():
    """Point the stdout descriptor at devnull, so that the flush at exit
    does not raise a second BrokenPipeError. A stdout without a
    descriptor (replaced or captured) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
