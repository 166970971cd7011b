"""Command-line interface.

Four subcommands: `compute` for one Hurwitz number by one method,
`table` for a (genus, degree) range by one method, `crosscheck` to run
every applicable method on every cell and compare, and `branch-divisor`
to evaluate the branch divisor of a stable-map graph read from JSON.

Output is deterministic: JSON is printed with sorted keys, rationals
are serialized as lowest-terms 'a/b' strings (bare integers when the
denominator is 1), and identical invocations produce byte-identical
output. Exit codes: 0 for ok, 1 for a cross-check or degree mismatch,
2 for invalid input.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import stablemap
from .character import branch_count
from .oracle import OracleBoundError
from .recursion import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    hurwitz_value,
)
from .stablemap import GraphFormatError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2

_STATUS_EXIT = {"ok": EXIT_OK, "mismatch": EXIT_MISMATCH,
                "invalid-input": EXIT_INVALID}

# CLI spellings of the method names
_METHOD_FLAGS = {
    "character": Method.CHARACTER,
    "recursion": Method.RECURSION,
    "closed-form": Method.CLOSED_FORM,
    "elsv-g0": Method.ELSV_G0,
    "oracle": Method.ORACLE,
}
_FLAG_OF_METHOD = {m: flag for flag, m in _METHOD_FLAGS.items()}


def format_rational(value) -> str:
    """Lowest-terms 'a/b', or a bare integer when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
    method = _METHOD_FLAGS[args.method]
    try:
        value = hurwitz_value(g, d, method)
    except (MethodNotApplicableError, OracleBoundError) as exc:
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


def _table_cells(g_max, d_max, method):
    for g in range(g_max + 1):
        for d in range(1, d_max + 1):
            yield g, d, hurwitz_value(g, d, method)


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
    method = _METHOD_FLAGS[args.method]
    try:
        cells = list(_table_cells(g_max, d_max, method))
    except (MethodNotApplicableError, OracleBoundError) as exc:
        return _fail_invalid({"error": str(exc)})
    rows = [
        (g, d, branch_count(g, d), format_rational(value))
        for g, d, value in cells
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
    cells = []
    all_agree = True
    for g in range(g_max + 1):
        for d in range(1, d_max + 1):
            values = {
                _FLAG_OF_METHOD[m]: hurwitz_value(g, d, m)
                for m in applicable_methods(g, d)
            }
            agree = len(set(values.values())) == 1
            all_agree = all_agree and agree
            cells.append({
                "genus": g,
                "degree": d,
                "branch_points": branch_count(g, d),
                "values": {
                    flag: format_rational(v) for flag, v in values.items()
                },
                "agree": agree,
            })
    status = "ok" if all_agree else "mismatch"
    _print_json({"status": status, "cells": cells})
    return _STATUS_EXIT[status]


def _cmd_branch_divisor(args) -> int:
    try:
        graph = stablemap.load_graph(args.input)
    except FileNotFoundError:
        return _fail_invalid({"error": f"no such file: {args.input}"})
    except GraphFormatError as exc:
        return _fail_invalid({"error": str(exc)})
    violations = stablemap.validate(graph)
    if violations:
        return _fail_invalid({"violations": violations})
    divisor = stablemap.branch_divisor(graph)
    expected = stablemap.riemann_hurwitz_degree(graph)
    degree_ok = divisor.degree == expected
    status = "ok" if degree_ok else "mismatch"
    _print_json({
        "status": status,
        "target_genus": graph.target_genus,
        "map_degree": stablemap.total_degree(graph),
        "source_genus": stablemap.arithmetic_genus(graph),
        "divisor": {p: divisor[p] for p in divisor.support()},
        "divisor_degree": divisor.degree,
        "expected_degree": expected,
        "degree_check": "ok" if degree_ok else "mismatch",
        "effective": divisor.is_effective,
    })
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
        "--method", choices=sorted(_METHOD_FLAGS), default="character"
    )
    compute.set_defaults(handler=_cmd_compute)

    table = sub.add_parser(
        "table", help="a genus/degree range of values by one method"
    )
    table.add_argument("--gmax", type=int, required=True)
    table.add_argument("--dmax", type=int, required=True)
    table.add_argument(
        "--method", choices=sorted(_METHOD_FLAGS), default="character"
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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
