"""Command-line interface.

Four subcommands: `compute` for one Hurwitz number by one method,
`table` for a (genus, degree) range by one method, `crosscheck` to run
every applicable method on every cell and compare, and `branch-divisor`
to evaluate the branch divisor of a stable-map graph read from JSON.

Each handler returns its output as a payload dict, with the routes'
values as Fractions, and prints nothing; `main` alone renders it, as
JSON or as `table`'s text or CSV, prints it and picks the exit code.
Output is deterministic: JSON is printed with sorted keys, rationals
are serialized as lowest-terms 'a/b' strings (bare integers when the
denominator is 1), and identical invocations produce byte-identical
output. Exit codes: 0 for ok, 1 for routes that disagree (from
`crosscheck` alone), 2 for invalid input, 3 for an internal error
(`"status": "error"`, with the exception's type and message; the
traceback goes to stderr), which includes a branch divisor that breaks
the degree law or is not effective and a value that JSON cannot
render, and for output that could not be written, a closed pipe or a
full device (one line on stderr, no traceback). Help text goes through
the same write, so the same holds for `--help`.

Every command runs with the cyclic garbage collector off, until its
output is printed: a run makes no reference cycles, so the collector's
passes free nothing. The interpreter's integer-to-string digit limit
guards all input and is lifted only while the output is rendered,
tables included, so values of any size print in full.

`python -m hurwitz.cli` and the `hurwitz` console script both enter
through `run`, which calls `main` and then freezes the collector's view
of the heap (`gc.freeze()`), also when `main` ends in argparse's
SystemExit. The interpreter's last collection at exit then skips every
object alive at that point, and the module objects and their caches are
left to the OS instead of being collected and freed one by one. That
saves 9-12 ms per process on `--help`, `compute` and `branch-divisor`
(median of 30 alternated cold runs each, Python 3.11.7 on a shared
2-CPU Xeon). `atexit` handlers and stdio flushing still run, unlike
after `os._exit`. Once `main` returns, `run` points stdout at
`os.devnull`, so output that a failed write left buffered cannot make
that flush fail too. `main` itself changes nothing process-wide, so it
can be called in-process.
"""

import argparse
import gc
import os
import sys

from .routes import (Method, MethodNotApplicableError, branch_count,
                     build_table, hurwitz_value)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_ERROR = 3

_STATUS_EXIT = {"ok": EXIT_OK, "mismatch": EXIT_MISMATCH,
                "invalid-input": EXIT_INVALID, "error": EXIT_ERROR}


def _rational(value) -> str:
    # json's default=, called only for a value JSON has no type for: a
    # route's Fraction prints as str() does, 'a/b' in lowest terms or a
    # bare integer. Imported here, so that `--help` and `branch-divisor`
    # never load fractions
    from fractions import Fraction
    if type(value) is Fraction:
        return str(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _invalid(**fields) -> dict:
    return {"status": "invalid-input", **fields}


def _cmd_compute(args) -> dict:
    g, d = args.genus, args.degree
    if g < 0 or d < 1:
        return _invalid(error="genus must be >= 0 and degree >= 1")
    value = hurwitz_value(g, d, args.method)
    return {
        "status": "ok",
        "genus": g,
        "degree": d,
        "branch_points": branch_count(g, d),
        "method": args.method,
        "value": value,
    }


def _render(result: dict, fmt: str) -> str:
    # an ok table payload as CSV or aligned text, any other as JSON. Each
    # cell's entries are in column order: g, d, r and value
    if fmt == "json" or result["status"] != "ok":
        import json  # so that `--help` and text or CSV tables never load it
        return json.dumps(result, indent=2, sort_keys=True, default=_rational)
    rows = [("g", "d", "r", "value")]
    rows += [tuple(map(str, cell.values())) for cell in result["cells"]]
    if fmt == "csv":
        return "\n".join(map(",".join, rows))
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip()
                     for row in rows)


def _fault(exc: Exception) -> dict:
    # the payload of a handler or render that raised
    if isinstance(exc, MethodNotApplicableError):  # a method refused a cell
        return _invalid(error=str(exc))
    import traceback
    traceback.print_exception(exc)
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _range_fault(args) -> dict | None:
    # table's and crosscheck's one check of --gmax and --dmax
    if args.gmax < 0 or args.dmax < 1:
        return _invalid(error="gmax must be >= 0 and dmax >= 1")
    return None


def _cmd_table(args) -> dict:
    if fault := _range_fault(args):
        return fault
    method = Method(args.method)
    return {
        "status": "ok",
        "method": args.method,
        "cells": [
            {"genus": g, "degree": d, "branch_points": branch_count(g, d),
             "value": values[method]}
            for (g, d), values in build_table(args.gmax, args.dmax,
                                              method).items()
        ],
    }


def _cmd_crosscheck(args) -> dict:
    if fault := _range_fault(args):
        return fault
    cells = [
        {
            "genus": g,
            "degree": d,
            "branch_points": branch_count(g, d),
            "values": {m.value: v for m, v in values.items()},
            "agree": len(set(values.values())) == 1,
        }
        for (g, d), values in build_table(args.gmax, args.dmax).items()
    ]
    status = "ok" if all(cell["agree"] for cell in cells) else "mismatch"
    return {"status": status, "cells": cells}


def _cmd_branch_divisor(args) -> dict:
    from . import stablemap  # the only command that needs it

    try:
        graph = stablemap.load_graph(args.input)
    except FileNotFoundError:
        return _invalid(error=f"no such file: {args.input}")
    except stablemap.GraphFormatError as exc:
        return _invalid(error=str(exc))
    try:
        divisor = stablemap.branch_divisor(graph)
    except stablemap.InvalidGraphError as exc:
        return _invalid(violations=exc.violations)
    # branch_divisor has validated the graph, connectedness included,
    # so the genus formula applies without a second check, and the
    # degree law's inputs are in its domain. Every valid graph meets the
    # law and is effective (docs/branch_divisor_format.md says why), so a
    # failure of either is a fault in the program
    source_genus = stablemap._genus(graph)
    map_degree = stablemap.total_degree(graph)
    expected = branch_count(source_genus, map_degree, graph.target_genus)
    degree = sum(divisor.values())
    if degree != expected or min(divisor.values(), default=0) < 0:
        raise ArithmeticError(
            f"branch divisor of degree {stablemap._full(degree)} is not an "
            f"effective divisor of degree {stablemap._full(expected)}")
    return {
        "status": "ok",
        "target_genus": graph.target_genus,
        "map_degree": map_degree,
        "source_genus": source_genus,
        "divisor": divisor,
        "divisor_degree": degree,
        "expected_degree": expected,
        "degree_check": "ok",
        "effective": True,
    }


class _Parser(argparse.ArgumentParser):
    # its subparsers are _Parser too; -h prints through the guarded write
    # of every other output and exits with its code
    def print_help(self, file=None):
        raise SystemExit(_write(self.format_help().rstrip("\n"), EXIT_OK))


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hurwitz",
        description="Exact Hurwitz numbers by independent methods, and "
                    "branch divisors of combinatorial stable maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="one Hurwitz number by one method"
    )
    compute.add_argument("--genus", "-g", type=int, required=True)
    compute.add_argument("--degree", "-d", type=int, required=True)
    compute.add_argument(
        "--method", choices=sorted(m.value for m in Method),
        default="character",
    )
    compute.set_defaults(handler=_cmd_compute)

    table = sub.add_parser(
        "table", help="a genus/degree range of values by one method"
    )
    table.add_argument("--gmax", type=int, required=True)
    table.add_argument("--dmax", type=int, required=True)
    table.add_argument(
        "--method", choices=sorted(m.value for m in Method),
        default="character",
    )
    table.add_argument(
        "--format", choices=["aligned-text", "json", "csv"],
        default="aligned-text",
    )
    table.set_defaults(handler=_cmd_table)

    crosscheck = sub.add_parser(
        "crosscheck",
        help="run every applicable method on every cell and compare",
    )
    crosscheck.add_argument("--gmax", type=int, required=True)
    crosscheck.add_argument("--dmax", type=int, required=True)
    crosscheck.set_defaults(handler=_cmd_crosscheck)

    divisor = sub.add_parser(
        "branch-divisor",
        help="evaluate the branch divisor of a stable-map graph",
    )
    divisor.add_argument(
        "--input", required=True, help="path to a graph JSON document"
    )
    divisor.set_defaults(handler=_cmd_branch_divisor)

    return parser


def _write(text: str, code: int) -> int:
    # code once text is on stdout; EXIT_ERROR if it could not be written
    try:
        print(text, flush=True)
    except OSError as exc:  # a closed pipe or a full device
        print(f"hurwitz: output not written: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # no run makes reference cycles; on a 10,000-component branch-divisor
    # graph the collector's passes took a quarter of the time
    collecting = gc.isenabled()
    gc.disable()
    fmt = getattr(args, "format", "json")
    limit = sys.get_int_max_str_digits()
    try:
        try:
            result = args.handler(args)
            # all input is parsed by now, so the values print in full
            sys.set_int_max_str_digits(0)
            text = _render(result, fmt)
        except Exception as exc:  # any fault, render included, ends in JSON
            result = _fault(exc)
            text = _render(result, fmt)
        return _write(text, _STATUS_EXIT[result["status"]])
    finally:
        sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()


def run() -> None:
    """Process entry: exit with main()'s code, the heap left to the OS."""
    try:
        code = main()
    finally:
        # main has flushed its output or reported that it could not, also
        # before argparse's SystemExit; with descriptor 1 (sys.stdout is
        # None if 1 was closed) on os.devnull, bytes a failed write left
        # buffered cannot fail the exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
