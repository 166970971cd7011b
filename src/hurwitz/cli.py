"""Command-line interface.

Four subcommands: `compute` for one Hurwitz number by one method,
`table` for a (genus, degree) range by one method, `crosscheck` to run
every applicable method on every cell and compare, and `branch-divisor`
to evaluate the branch divisor of a stable-map graph read from JSON.

Output is deterministic: JSON is printed with sorted keys, rationals
are serialized as lowest-terms 'a/b' strings (bare integers when the
denominator is 1), and identical invocations produce byte-identical
output. Exit codes: 0 for ok, 1 for a cross-check or degree mismatch,
2 for invalid input, 3 for an internal error (`"status": "error"`,
with the exception's type and message; the traceback goes to stderr).
"""

import argparse
import gc
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import routes
from .routes import Method, branch_count, build_table, hurwitz_value

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_ERROR = 3

_STATUS_EXIT = {"ok": EXIT_OK, "mismatch": EXIT_MISMATCH,
                "invalid-input": EXIT_INVALID}

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


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _fail_invalid(payload) -> int:
    payload["status"] = "invalid-input"
    _print_json(payload)
    return EXIT_INVALID


def _cmd_compute(args) -> int:
    g, d = args.genus, args.degree
    if g < 0 or d < 1:
        return _fail_invalid(
            {"error": "genus must be >= 0 and degree >= 1"}
        )
    # routes.NOT_COVERED is read only when an error is raised, so a run
    # that succeeds imports no route it did not ask for
    try:
        value = hurwitz_value(g, d, args.method)
    except routes.NOT_COVERED as exc:
        return _fail_invalid({"error": str(exc)})
    _print_json({
        "status": "ok",
        "genus": g,
        "degree": d,
        "branch_points": branch_count(g, d),
        "method": args.method,
        "value": format_rational(value),
    })
    return EXIT_OK


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


def _cmd_table(args) -> int:
    g_max, d_max = args.gmax, args.dmax
    if g_max < 0 or d_max < 1:
        return _fail_invalid(
            {"error": "gmax must be >= 0 and dmax >= 1"}
        )
    method = Method(args.method)
    try:
        table = build_table(g_max, d_max, method)
    except routes.NOT_COVERED as exc:
        return _fail_invalid({"error": str(exc)})
    rows = [
        (g, d, branch_count(g, d), format_rational(values[method]))
        for (g, d), values in table.items()
    ]
    if args.format == "json":
        _print_json({
            "status": "ok",
            "method": args.method,
            "cells": [
                {"genus": g, "degree": d, "branch_points": r, "value": v}
                for g, d, r, v in rows
            ],
        })
    else:
        print(_render_table(rows, args.format))
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    g_max, d_max = args.gmax, args.dmax
    if g_max < 0 or d_max < 1:
        return _fail_invalid(
            {"error": "gmax must be >= 0 and dmax >= 1"}
        )
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
    _print_json({"status": status, "cells": cells})
    return _STATUS_EXIT[status]


def _cmd_branch_divisor(args) -> int:
    from . import stablemap  # the only command that needs it

    # Loading and evaluating a graph allocate an object or more per JSON
    # value but make no reference cycles, so a cyclic collection finds
    # nothing to free; on a 10,000-component graph its passes took a
    # quarter of the command's time. The collector is off until the
    # command ends.
    collecting = gc.isenabled()
    gc.disable()
    limit = sys.get_int_max_str_digits()
    try:
        try:
            graph = stablemap.load_graph(args.input)
        except FileNotFoundError:
            return _fail_invalid({"error": f"no such file: {args.input}"})
        except stablemap.GraphFormatError as exc:
            return _fail_invalid({"error": str(exc)})
        # the digit limit guarded the JSON input; the genera it let
        # through, and the values derived from them, print in full
        sys.set_int_max_str_digits(0)
        try:
            divisor = stablemap.branch_divisor(graph)
        except stablemap.InvalidGraphError as exc:
            return _fail_invalid({"violations": exc.violations})
        # branch_divisor has validated the graph, connectedness included,
        # so the genus formula applies without a second check
        source_genus = stablemap._genus(graph)
        expected = stablemap._degree_law(graph, source_genus)
        degree = sum(divisor.values())
        degree_ok = degree == expected
        status = "ok" if degree_ok else "mismatch"
        _print_json({
            "status": status,
            "target_genus": graph.target_genus,
            "map_degree": stablemap.total_degree(graph),
            "source_genus": source_genus,
            "divisor": divisor,
            "divisor_degree": degree,
            "expected_degree": expected,
            "degree_check": "ok" if degree_ok else "mismatch",
            "effective": all(c >= 0 for c in divisor.values()),
        })
    finally:
        sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()
    return _STATUS_EXIT[status]


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
    try:
        return args.handler(args)
    except Exception as exc:  # any handler fault ends in documented JSON
        import traceback
        traceback.print_exc()
        _print_json({"status": "error",
                     "error": f"{type(exc).__name__}: {exc}"})
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
