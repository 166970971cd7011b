"""Command-line interface: payloads, exit codes, and determinism.

Every check of a CLI output lives in one place. Every refusal of a cell
or a range prints the exact bytes of its row in `REFUSALS`, and every
other CLI byte is pinned by the exit code and stdout hash of its run in
tests/golden_outputs.json (test_golden.py). The other tests here check
what neither can: one readable exact-bytes test for each payload kind
(`TestTable::test_csv_golden_output`, `TestCrosscheck::test_golden_output`
and `TestBranchDivisor::test_golden_output`), properties across commands
and across `ARGUMENT_SPACE`, a small space of command lines enumerated
and run whole, faults put in by monkeypatch, values past the digit
limit, and child processes, whose command lines are rows of
`TestProcessEntry::test_process_matches_main`.
The violation and fault wordings `branch-divisor` prints, and every
unreadable input, are pinned in the tables of test_stablemap.py. A new
refusal is a row of `REFUSALS`, and a new output a run in the golden
file.
"""

import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import cli, recursion, routes
from hurwitz.cli import EXIT_ERROR, EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from hurwitz.routes import Method, applicable_methods
from test_routes import child_env

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def _broken_route(d):
    raise RuntimeError("broken route")


@contextmanager
def unlimited_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestCompute:
    def test_values_of_any_size_print(self, capsys):
        # H_{0,740} has more digits than str(int) converts by default
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "740",
            "--method", "closed-form",
        )
        assert code == EXIT_OK
        assert len(payload["value"]) > sys.get_int_max_str_digits()
        with unlimited_digits():
            assert int(payload["value"]) == recursion.h0_closed(740)

    @pytest.mark.parametrize("broken, error", [
        (_broken_route, "RuntimeError: broken route"),
        (Decimal, "TypeError: Object of type Decimal is not JSON "
                  "serializable"),
    ], ids=["route-raises", "value-json-refuses"])
    def test_internal_error_is_reported(self, capsys, monkeypatch, broken,
                                        error):
        monkeypatch.setattr(recursion, "h0_closed", broken)
        code = main(["compute", "-g", "0", "-d", "3",
                     "--method", "closed-form"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(captured.out) == {"status": "error", "error": error}
        assert "Traceback" in captured.err


# a range of 10^12 cells, past routes.MAX_CELLS
HUGE_RANGE = ("--gmax", "1000000", "--dmax", "1000000")
CELL_BOUND = ("cell bound exceeded: (gmax + 1) * dmax > 1000 "
              "(limit: 1000 cells)")
# the first genus past routes.MAX_VALUE_BITS at d = 3: r = 2^21 + 2
# transpositions of 2 bits each, 4 bits past the bound
HUGE_CELL = ("compute", "-g", "1048575", "-d", "3")
VALUE_BOUND = ("value bound exceeded: r * bit_length(d*(d-1)/2) > 4194304 "
               "(limit: 4194304 bits)")

# every way a method refuses a cell or a range, with the exact stdout it
# prints
REFUSALS = {
    "recursion-genus-3": (
        ("compute", "-g", "3", "-d", "2", "--method", "recursion"),
        "no recursion is available for genus 3 (recursions stop at genus 2)",
    ),
    "closed-form-genus-1": (
        ("compute", "-g", "1", "-d", "2", "--method", "closed-form"),
        "closed form is genus 0 only",
    ),
    "elsv-genus-1": (
        ("compute", "-g", "1", "-d", "2", "--method", "elsv-g0"),
        "the intersection formula is genus 0 only",
    ),
    "elsv-degree-41": (
        ("compute", "-g", "0", "-d", "41", "--method", "elsv-g0"),
        "intersection bound exceeded: d=41 (limit: d <= 40)",
    ),
    "oracle-degree-6": (
        ("compute", "-g", "0", "-d", "6", "--method", "oracle"),
        "oracle bound exceeded: d=6, r=10 (limits: d <= 5, r <= 10)",
    ),
    "oracle-genus-4": (
        ("compute", "-g", "4", "-d", "3", "--method", "oracle"),
        "oracle bound exceeded: d=3, r=12 (limits: d <= 5, r <= 10)",
    ),
    # names (0, 6), the first cell in (g, d) order the oracle does not cover
    "table-oracle": (
        ("table", "--method", "oracle", "--gmax", "0", "--dmax", "7"),
        "oracle bound exceeded: d=6, r=10 (limits: d <= 5, r <= 10)",
    ),
    "table-elsv": (
        ("table", "--method", "elsv-g0", "--gmax", "1", "--dmax", "3"),
        "the intersection formula is genus 0 only",
    ),
    # by every method, and in a cross-check, before the range is built
    **{f"table-cells-{method.value}": (
        ("table", "--method", method.value, *HUGE_RANGE), CELL_BOUND)
       for method in Method},
    "crosscheck-cells": (("crosscheck", *HUGE_RANGE), CELL_BOUND),
    # by every method; the start-up table shows that no route loads
    **{f"value-bits-{method.value}": (
        (*HUGE_CELL, "--method", method.value), VALUE_BOUND)
       for method in Method},
}


@pytest.mark.parametrize("argv, error", REFUSALS.values(), ids=REFUSALS)
def test_refusal_prints_exact_bytes(capsys, argv, error):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_INVALID
    assert out == (
        f'{{\n  "error": "{error}",\n  "status": "invalid-input"\n}}\n'
    )


class TestBigValues:
    # every value, in JSON, text and CSV, prints through cli._str, which
    # above 20,000 bits converts through decimal instead of str()
    def test_equals_str_on_both_sides_of_the_threshold(self):
        rng = random.Random(32)
        # to 332,193 bits, 10^5 digits
        sizes = [1, 2, 63, 64, 1000, 19_999, 20_000, 20_001, 39_999,
                 40_000, 40_001, 332_193]
        sizes += [rng.randint(20_000, 332_193) for _ in range(4)]
        with unlimited_digits():
            for bits in sizes:
                n = rng.getrandbits(bits) | 1 << (bits - 1)
                for value in (n, -n, Fraction(-n, 2 * n + 1)):
                    assert cli._str(value) == str(value), bits

    def test_a_million_digits_print_within_seconds(self):
        # str() took 17.5 s on Python 3.11 (2-CPU Xeon), cli._str 0.5 s
        n = 10 ** 999_999 // 3
        with unlimited_digits():
            start = time.perf_counter()
            text = cli._str(-n)
            elapsed = time.perf_counter() - start
        assert text == "-" + "3" * 999_999
        assert elapsed < 5


class TestTable:
    def test_csv_golden_output(self, capsys):
        code, out = run_cli(
            capsys, "table", "--gmax", "0", "--dmax", "5",
            "--method", "closed-form", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out == (
            "g,d,r,value\n"
            "0,1,0,1\n"
            "0,2,2,1/2\n"
            "0,3,4,4\n"
            "0,4,6,120\n"
            "0,5,8,8400\n"
        )

    def test_aligned_text_default(self, capsys):
        code, out = run_cli(capsys, "table", "--gmax", "1", "--dmax", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["g", "d", "r", "value"]
        assert lines[2].split() == ["0", "2", "2", "1/2"]
        assert len(lines) == 5



class TestCrosscheck:
    def test_disagreeing_route_is_a_mismatch(self, capsys, monkeypatch):
        closed = recursion.h0_closed
        monkeypatch.setattr(recursion, "h0_closed",
                            lambda d: closed(d) + (d == 3))
        code, payload = run_json(
            capsys, "crosscheck", "--gmax", "1", "--dmax", "4",
        )
        assert code == EXIT_MISMATCH
        assert payload["status"] == "mismatch"
        disagreeing = [(c["genus"], c["degree"]) for c in payload["cells"]
                       if not c["agree"]]
        assert disagreeing == [(0, 3)]

    def test_golden_output(self, capsys):
        code, out = run_cli(capsys, "crosscheck", "--gmax", "1",
                            "--dmax", "2")
        assert code == EXIT_OK
        assert out == """\
{
  "cells": [
    {
      "agree": true,
      "branch_points": 0,
      "degree": 1,
      "genus": 0,
      "values": {
        "character": "1",
        "closed-form": "1",
        "elsv-g0": "1",
        "oracle": "1",
        "recursion": "1"
      }
    },
    {
      "agree": true,
      "branch_points": 2,
      "degree": 2,
      "genus": 0,
      "values": {
        "character": "1/2",
        "closed-form": "1/2",
        "elsv-g0": "1/2",
        "oracle": "1/2",
        "recursion": "1/2"
      }
    },
    {
      "agree": true,
      "branch_points": 2,
      "degree": 1,
      "genus": 1,
      "values": {
        "character": "0",
        "oracle": "0",
        "recursion": "0"
      }
    },
    {
      "agree": true,
      "branch_points": 4,
      "degree": 2,
      "genus": 1,
      "values": {
        "character": "1/2",
        "oracle": "1/2",
        "recursion": "1/2"
      }
    }
  ],
  "status": "ok"
}
"""


class TestSharedCell:
    """`compute`, `table` and `crosscheck` give a cell one shape, and
    `table` and `crosscheck` one refusal of a range."""

    @pytest.mark.parametrize("g, d", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_commands_agree_on_a_cell(self, capsys, g, d):
        _code, checked = run_json(capsys, "crosscheck", "--gmax", str(g),
                                  "--dmax", str(d))
        crosscheck = next(cell for cell in checked["cells"]
                          if (cell["genus"], cell["degree"]) == (g, d))
        methods = [method.value for method in applicable_methods(g, d)]
        assert sorted(crosscheck["values"]) == sorted(methods)
        for method in methods:
            code, computed = run_json(capsys, "compute", "-g", str(g),
                                      "-d", str(d), "--method", method)
            assert code == EXIT_OK
            _code, table = run_json(capsys, "table", "--gmax", str(g),
                                    "--dmax", str(d), "--method", method,
                                    "--format", "json")
            cell = next(cell for cell in table["cells"]
                        if (cell["genus"], cell["degree"]) == (g, d))
            assert cell == {key: computed[key] for key in
                            ("genus", "degree", "branch_points", "value")}
            assert crosscheck["branch_points"] == cell["branch_points"]
            assert crosscheck["values"][method] == cell["value"]

    @pytest.mark.parametrize("gmax, dmax", [(-1, 3), (0, 0)])
    def test_table_and_crosscheck_refuse_a_range_alike(self, capsys, gmax,
                                                        dmax):
        bounds = ("--gmax", str(gmax), "--dmax", str(dmax))
        table = run_cli(capsys, "table", *bounds)
        assert table[0] == EXIT_INVALID
        assert table == run_cli(capsys, "crosscheck", *bounds)


class TestBranchDivisor:
    def test_golden_output(self, capsys):
        code, out = run_cli(
            capsys, "branch-divisor", "--input",
            str(FIXTURES / "elliptic_tail.json"),
        )
        assert code == EXIT_OK
        assert out == """\
{
  "degree_check": "ok",
  "divisor": {
    "p": 2,
    "q1": 1,
    "q2": 1
  },
  "divisor_degree": 4,
  "effective": true,
  "expected_degree": 4,
  "map_degree": 2,
  "source_genus": 1,
  "status": "ok",
  "target_genus": 0
}
"""

    def test_huge_genus_values_print_in_full(self, capsys, tmp_path):
        # a valid graph: two contracted tails of the largest genus the
        # JSON parser accepts, glued to one degree-1 component
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        with unlimited_digits():
            genus = int("9" * limit)
            path.write_text(json.dumps({
                "target_genus": 0,
                "components": [
                    {"kind": "dominant", "id": "A", "genus": 0, "degree": 1},
                    {"kind": "contracted", "id": "B", "genus": genus,
                     "image": "p"},
                    {"kind": "contracted", "id": "C", "genus": genus,
                     "image": "p"},
                ],
                "nodes": [{"branches": ["A", "B"], "image": "p"},
                          {"branches": ["A", "C"], "image": "p"}],
            }), encoding="utf-8")
        code, out = run_cli(capsys, "branch-divisor", "--input", str(path))
        assert sys.get_int_max_str_digits() == limit
        assert code == EXIT_OK
        with unlimited_digits():
            payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["source_genus"] == 2 * genus
        assert payload["divisor"] == {"p": 4 * genus}
        assert payload["divisor_degree"] == 4 * genus
        assert payload["expected_degree"] == 4 * genus
        assert payload["effective"] is True

    def test_broken_degree_law_is_an_internal_error(self, capsys,
                                                    monkeypatch):
        # every valid graph meets the degree law, so a divisor that breaks
        # it is a fault in the program, not a mismatch (exit 1)
        count = routes.branch_count
        monkeypatch.setattr(routes, "branch_count",
                            lambda *args: count(*args) + 1)
        code = main(["branch-divisor", "--input",
                     str(FIXTURES / "elliptic_tail.json")])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(captured.out) == {
            "status": "error",
            "error": "ArithmeticError: branch divisor of degree 4 is not an "
                     "effective divisor of degree 5",
        }
        assert captured.err.count("Traceback") == 1


METHODS = [method.value for method in Method]
HUGE = str(10 ** 15)
# values argparse refuses before any command runs
USAGE_ERRORS = [
    *(["compute", "-g", value, "-d", "3"]
      for value in ("x", "1.5", "", "0x10")),
    ["table", "--gmax", "1", "--dmax", "two"],
]
# a small scope of command lines, run whole: every method on genus -2..4
# and degree -1..9, tables on genus -1..3 and degree -1..6 in every
# format, cross-checks on genus -1..3 and degree -1..5, every fixture, a
# missing path and a directory; then ranges and cells past the bounds,
# a genus or a degree of 10^15, and the usage errors
ARGUMENT_SPACE = [
    *(["compute", "-g", str(g), "-d", str(d), "--method", method]
      for g in range(-2, 5) for d in range(-1, 10) for method in METHODS),
    *(["table", "--gmax", str(g), "--dmax", str(d), "--method", method,
       "--format", form]
      for g in range(-1, 4) for d in range(-1, 7) for method in METHODS
      for form in ("aligned-text", "json", "csv")),
    *(["crosscheck", "--gmax", str(g), "--dmax", str(d)]
      for g in range(-1, 4) for d in range(-1, 6)),
    *(["branch-divisor", "--input", str(path)] for path in (
        *sorted(FIXTURES.glob("*.json")), FIXTURES / "missing.json",
        FIXTURES)),
    ["table", *HUGE_RANGE],
    ["crosscheck", *HUGE_RANGE],
    list(HUGE_CELL),
    *(["compute", "-g", HUGE, "-d", str(d), "--method", method]
      for d in (1, 2, 3) for method in METHODS),
    *(["compute", "-g", "0", "-d", HUGE, "--method", method]
      for method in METHODS),
    ["table", "--gmax", HUGE, "--dmax", "1"],
    ["table", "--gmax", "0", "--dmax", HUGE],
    ["crosscheck", "--gmax", HUGE, "--dmax", HUGE],
    *USAGE_ERRORS,
]


class TestArgumentSpace:
    def test_every_run_ends_in_a_documented_exit(self):
        # a caller with the collector on, as an interpreter starts; the
        # next test pins a caller that had turned it off
        gc.enable()
        limit = sys.get_int_max_str_digits()
        for argv in ARGUMENT_SPACE:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's, on a usage error
                    code = exc.code
            # main restores the caller's collector setting and digit limit
            assert gc.isenabled(), argv
            assert sys.get_int_max_str_digits() == limit, argv
            text, errors = out.getvalue(), err.getvalue()
            if argv in USAGE_ERRORS:
                # the one exit 2 without JSON
                assert (code, text) == (EXIT_INVALID, ""), argv
                assert errors.splitlines()[-1].startswith(
                    f"hurwitz {argv[0]}: error: argument "), argv
                continue
            assert code in (EXIT_OK, EXIT_INVALID), argv
            assert errors == "", argv
            if argv[-1] in ("aligned-text", "csv") and code == EXIT_OK:
                assert text.startswith("g"), argv
                continue
            payload = json.loads(text)
            assert payload["status"] == {EXIT_OK: "ok",
                                         EXIT_INVALID: "invalid-input"}[code]


class TestProcessEntry:
    # `python -m hurwitz.cli` and the `hurwitz` script run cli.run, which
    # freezes the heap on the way out; the process must still give
    # main()'s exit code and stdout bytes, and main() itself must leave
    # nothing frozen
    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("compute", "-g", "2", "-d", "20", "--method", "recursion"),
        ("compute", "-g", "3", "-d", "2", "--method", "recursion"),
        # a usage error exits 2 with argparse's usage text on stderr and
        # nothing on stdout, the one exit 2 without a JSON document
        ("compute", "-g", "one", "-d", "2"),
        ("crosscheck", "--gmax", "0", "--dmax", "2"),
        ("branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json")),
    ], ids=["help", "compute", "refused", "usage-error", "crosscheck",
            "branch-divisor"])
    def test_process_matches_main(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text in both runs
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's exit for --help and usage
            code = exc.code
        out = capsys.readouterr().out
        assert gc.get_freeze_count() == 0
        result = subprocess.run([sys.executable, "-m", "hurwitz.cli", *argv],
                                capture_output=True, check=False,
                                env=child_env())
        assert (result.returncode, result.stdout) == (code, out.encode())

    @pytest.mark.parametrize("name", [
        *sorted(path.name for path in FIXTURES.glob("*.json")), "shape-fault",
    ])
    def test_piped_input_reads_as_a_file(self, tmp_path, name):
        # every fixture, and one with a shape fault: the input is read
        # once, so a pipe gives the same exit code and stdout bytes as the
        # file
        path = FIXTURES / name
        if name == "shape-fault":
            document = json.loads(
                (FIXTURES / "elliptic_tail.json").read_text(encoding="utf-8"))
            document["components"][-1]["genus"] = "1"
            path = tmp_path / "faulty.json"
            path.write_text(json.dumps(document), encoding="utf-8")
        argv = [sys.executable, "-m", "hurwitz.cli", "branch-divisor",
                "--input"]
        piped = subprocess.run([*argv, "/dev/stdin"],
                               input=path.read_bytes(), capture_output=True,
                               check=False, env=child_env())
        read = subprocess.run([*argv, str(path)], capture_output=True,
                              check=False, env=child_env())
        if name == "shape-fault":
            assert read.returncode == EXIT_INVALID
        assert (piped.returncode, piped.stdout) == (read.returncode,
                                                    read.stdout)

    @pytest.mark.parametrize("sink", ["closed-pipe", "full-device",
                                      "closed-descriptor"])
    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("compute", "--help"),
        ("compute", "-g", "1", "-d", "3"),
        ("table", "--gmax", "1", "--dmax", "3"),
        ("branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json")),
    ], ids=["help", "compute-help", "compute", "table", "branch-divisor"])
    def test_unwritable_stdout_is_an_error_without_traceback(self, argv,
                                                             sink):
        # a pipe whose read end is closed before the child starts, a
        # device that is always full, or descriptor 1 closed in the child
        # before it starts (its sys.stdout is None); stdout buffered and
        # unbuffered, since a buffered child meets the error only when it
        # flushes
        if sink == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        for unbuffered in ("", "1"):
            env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
            if sink == "closed-pipe":
                read_end, stdout = os.pipe()
                os.close(read_end)
            else:
                stdout = os.open("/dev/full" if sink == "full-device"
                                 else os.devnull, os.O_WRONLY)
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "hurwitz.cli", *argv],
                    stdout=stdout, stderr=subprocess.PIPE, check=False,
                    env=env, preexec_fn=(lambda: os.close(1))
                    if sink == "closed-descriptor" else None)
            finally:
                os.close(stdout)
            lines = result.stderr.decode().splitlines()
            assert result.returncode == EXIT_ERROR, lines
            assert len(lines) == 1, lines
            assert lines[0].startswith("hurwitz: output not written: "
                                       "[Errno "), lines

    def test_console_script_is_the_process_entry(self):
        import tomllib
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert project["project"]["scripts"] == {"hurwitz": "hurwitz.cli:run"}


def test_main_leaves_a_disabled_collector_off(monkeypatch):
    collecting = gc.isenabled()
    gc.disable()
    try:
        assert main(["compute", "-g", "1", "-d", "3"]) == EXIT_OK
        assert not gc.isenabled()
        assert main(["branch-divisor", "--input",
                     str(FIXTURES / "elliptic_tail.json")]) == EXIT_OK
        assert not gc.isenabled()
        monkeypatch.setattr(recursion, "h0_closed", lambda d: 1 / 0)
        assert main(["compute", "-g", "0", "-d", "3",
                     "--method", "closed-form"]) == EXIT_ERROR
        assert not gc.isenabled()
    finally:
        if collecting:
            gc.enable()


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("crosscheck", "--gmax", "1", "--dmax", "3"),
        ("table", "--gmax", "1", "--dmax", "4", "--format", "json"),
        ("table", "--gmax", "0", "--dmax", "6", "--format", "csv"),
        ("compute", "-g", "1", "-d", "3", "--method", "recursion"),
    ])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_mismatch_exit_code_is_distinct(self):
        assert EXIT_OK == 0
        assert EXIT_MISMATCH == 1
        assert EXIT_INVALID == 2
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID}) == 3
        assert EXIT_ERROR == 3
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID, EXIT_ERROR}) == 4
