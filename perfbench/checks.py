"""Output checks: does one CLI run print what its reference says?

check() returns a Verdict. `ok` is false for any failure: a wrong exit
code, a traceback, a timeout, or output that differs from the reference.
`wrong` is true only for the last kind, a value, divisor or agreement
flag that the program printed and that is false; a crash prints no
answer and so is a failure without being wrong.
"""

import json
from dataclasses import dataclass

import reference

# CLI method spellings every crosscheck cell must report, by genus
_REQUIRED_METHODS = {0: {"character", "recursion", "closed-form", "elsv-g0"},
                     1: {"character", "recursion"}}


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False
    values: int = 0   # Hurwitz values or branch divisors correctly printed
    reason: str = ""


def _branch_points(g, d):
    return 2 * g - 2 + 2 * d


def _value(g, d):
    return reference.format_rational(reference.hurwitz(g, d))


def _compute(expect, code, doc):
    if expect["status"] == "invalid-input":
        if doc.get("status") == "ok":
            return Verdict(False, True, reason="value for an invalid request")
        if code != 2 or doc.get("status") != "invalid-input" or \
                not isinstance(doc.get("error"), str):
            return Verdict(False, reason=f"exit {code}, expected 2")
        return Verdict(True)
    g, d = expect["genus"], expect["degree"]
    want = {"status": "ok", "genus": g, "degree": d,
            "branch_points": _branch_points(g, d),
            "method": expect["method"], "value": _value(g, d)}
    if doc != want:
        return Verdict(False, True, reason=f"printed {doc}, expected {want}")
    if code != 0:
        return Verdict(False, reason=f"exit {code}, expected 0")
    return Verdict(True, values=1)


def _table(expect, code, doc):
    want = {"status": "ok", "method": "character", "cells": [
        {"genus": g, "degree": d, "branch_points": _branch_points(g, d),
         "value": _value(g, d)}
        for g in range(expect["gmax"] + 1)
        for d in range(1, expect["dmax"] + 1)
    ]}
    if doc != want:
        return Verdict(False, True, reason="table differs from reference")
    if code != 0:
        return Verdict(False, reason=f"exit {code}, expected 0")
    return Verdict(True, values=len(want["cells"]))


def _crosscheck(expect, code, doc):
    cells = doc.get("cells")
    grid = [(g, d) for g in range(expect["gmax"] + 1)
            for d in range(1, expect["dmax"] + 1)]
    if doc.get("status") != "ok" or not isinstance(cells, list) or \
            [(c.get("genus"), c.get("degree")) for c in cells] != grid:
        return Verdict(False, True, reason="crosscheck cells or status wrong")
    values = 0
    for cell in cells:
        g, d = cell["genus"], cell["degree"]
        printed = cell.get("values", {})
        if cell.get("agree") is not True or \
                cell.get("branch_points") != _branch_points(g, d) or \
                not _REQUIRED_METHODS.get(g, {"character"}) <= set(printed) \
                or any(v != _value(g, d) for v in printed.values()):
            return Verdict(False, True, reason=f"crosscheck cell ({g}, {d})")
        values += len(printed)
    if code != 0:
        return Verdict(False, reason=f"exit {code}, expected 0")
    return Verdict(True, values=values)


def _branch_divisor(expect, code, doc):
    if expect["status"] == "invalid-input":
        if doc.get("status") == "ok":
            return Verdict(False, True, reason="divisor for a rejected graph")
        if code != 2 or doc.get("status") != "invalid-input" or not (
                isinstance(doc.get("error"), str) or doc.get("violations")):
            return Verdict(False, reason=f"exit {code}, expected 2")
        return Verdict(True)
    if doc != expect:
        return Verdict(False, True, reason="divisor differs from the graph")
    if code != 0:
        return Verdict(False, reason=f"exit {code}, expected 0")
    return Verdict(True, values=1)


_CHECKS = {"compute": _compute, "table": _table, "crosscheck": _crosscheck,
           "branch-divisor": _branch_divisor}


def check(invocation, code, stdout, stderr):
    """Verdict on one run: exit code, stdout and stderr bytes."""
    if code is None:
        return Verdict(False, reason="timeout")
    if b"Traceback (most recent call last)" in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        return Verdict(False, reason=f"traceback, exit {code}: {last}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return Verdict(False, bool(stdout.strip()),
                       reason=f"exit {code}, stdout is not JSON")
    if not isinstance(doc, dict):
        return Verdict(False, True, reason="stdout is not a JSON object")
    return _CHECKS[invocation.kind](invocation.expect, code, doc)
