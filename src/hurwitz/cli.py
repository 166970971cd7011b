"""Command-line interface.

Four subcommands: `compute` for one Hurwitz number by one method,
`table` for a (genus, degree) range by one method, `crosscheck` to run
every applicable method on every cell and compare, and `branch-divisor`
to evaluate the branch divisor of a stable-map graph read from JSON.

Each handler returns its output, a payload dict or a text or CSV
table, and prints nothing; `main` alone prints it and picks the exit
code. Output is deterministic: JSON is printed with sorted keys,
rationals are serialized as lowest-terms 'a/b' strings (bare integers
when the denominator is 1), and identical invocations produce
byte-identical output. Exit codes: 0 for ok, 1 for a cross-check or
degree mismatch, 2 for invalid input, 3 for an internal error
(`"status": "error"`, with the exception's type and message; the
traceback goes to stderr).

Every command runs with the cyclic garbage collector off, until its
output is printed: a run makes no reference cycles, so the collector's
passes free nothing. The interpreter's integer-to-string digit limit
guards all input and is lifted only while the JSON output is
serialized, so values derived from large input print in full.
"""

import argparse
import gc
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .routes import (Method, MethodNotApplicableError, branch_count,
                     build_table, hurwitz_value)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_ERROR = 3

_STATUS_EXIT = {"ok": EXIT_OK, "mismatch": EXIT_MISMATCH,
                "invalid-input": EXIT_INVALID, "error": EXIT_ERROR}

def _digits(n: int) -> str:
    # str(n) refuses ints over sys.get_int_max_str_digits() digits, a
    # limit kept because it guards JSON input; an integral Decimal is
    # exact and prints in full
    return str(Decimal(n))


def format_rational(value) -> str:
    """Lowest-terms 'a/b', or a bare integer when the denominator is 1,
    printed in full at any size."""
    value = Fraction(value)
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


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
        "value": format_rational(value),
    }


def _render_table(rows, fmt):
    # rows: (g, d, r, value-string)
    if fmt == "csv":
        return "\n".join(
            ["g,d,r,value"] + [f"{g},{d},{r},{v}" for g, d, r, v in rows]
        )
    header = ("g", "d", "r", "value")
    columns = list(zip(*([header] + [tuple(map(str, row)) for row in rows])))
    widths = [max(len(entry) for entry in col) for col in columns]
    lines = []
    for row in [header] + rows:
        cells = [str(entry).ljust(w) for entry, w in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _cmd_table(args) -> dict | str:
    g_max, d_max = args.gmax, args.dmax
    if g_max < 0 or d_max < 1:
        return _invalid(error="gmax must be >= 0 and dmax >= 1")
    method = Method(args.method)
    table = build_table(g_max, d_max, method)
    rows = [
        (g, d, branch_count(g, d), format_rational(values[method]))
        for (g, d), values in table.items()
    ]
    if args.format != "json":
        return _render_table(rows, args.format)
    return {
        "status": "ok",
        "method": args.method,
        "cells": [
            {"genus": g, "degree": d, "branch_points": r, "value": v}
            for g, d, r, v in rows
        ],
    }


def _cmd_crosscheck(args) -> dict:
    g_max, d_max = args.gmax, args.dmax
    if g_max < 0 or d_max < 1:
        return _invalid(error="gmax must be >= 0 and dmax >= 1")
    cells = [
        {
            "genus": g,
            "degree": d,
            "branch_points": branch_count(g, d),
            "values": {m.value: format_rational(v) for m, v in values.items()},
            "agree": len(set(values.values())) == 1,
        }
        for (g, d), values in build_table(g_max, d_max).items()
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
    # degree law's inputs are in its domain
    source_genus = stablemap._genus(graph)
    map_degree = stablemap.total_degree(graph)
    expected = branch_count(source_genus, map_degree, graph.target_genus)
    degree = sum(divisor.values())
    degree_ok = degree == expected
    return {
        "status": "ok" if degree_ok else "mismatch",
        "target_genus": graph.target_genus,
        "map_degree": map_degree,
        "source_genus": source_genus,
        "divisor": divisor,
        "divisor_degree": degree,
        "expected_degree": expected,
        "degree_check": "ok" if degree_ok else "mismatch",
        "effective": all(c >= 0 for c in divisor.values()),
    }


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # no run makes reference cycles; on a 10,000-component branch-divisor
    # graph the collector's passes took a quarter of the time
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            result = args.handler(args)
        except MethodNotApplicableError as exc:  # a method refused a cell
            result = _invalid(error=str(exc))
        except Exception as exc:  # any handler fault ends in documented JSON
            import traceback
            traceback.print_exc()
            result = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        if isinstance(result, str):  # a text or CSV table
            print(result)
            return EXIT_OK
        # all input is parsed by now, so the values print in full
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(result, indent=2, sort_keys=True)
        finally:
            sys.set_int_max_str_digits(limit)
        print(text)
        return _STATUS_EXIT[result["status"]]
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
