"""Command-line interface: payloads, exit codes, and determinism.

Every check of a CLI output lives in one place. Every CLI byte,
refusals of a cell or a range included, is pinned by the exit code and
stdout lines of its run in tests/golden_outputs.json, where
test_golden.py also checks that each run of make_golden.py's one list
of command lines ends in a documented exit, a refusal within a second
and any run within `make_golden.BOUND` seconds. The tests here check
what the list cannot: properties across commands, faults put in by
monkeypatch, values past the digit limit, and child processes, whose
command lines are rows of `TestProcessEntry::test_process_matches_main`.
In-process runs go through the list's runner, `make_golden.run`, so
each is bounded the same way. The violation and fault wordings
`branch-divisor` prints, and every unreadable input, are pinned in the
tables of test_stablemap.py, and a pipe read as a file in its
`TestLoadGraph::test_fifo_reads_as_a_file`. A new refusal, like any new
command line, a table in the default format among them, is a run in
make_golden.py's list.
"""

import gc
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import cli, recursion, routes
from hurwitz.cli import EXIT_ERROR, EXIT_INVALID, EXIT_MISMATCH, EXIT_OK
from hurwitz.routes import applicable_methods
from make_golden import run
from test_routes import child_env

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def run_cli(*argv):
    return run(list(argv))[:2]


def run_json(*argv):
    code, out = run_cli(*argv)
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
    def test_values_of_any_size_print(self):
        # H_{0,740} has more digits than str(int) converts by default
        code, payload = run_json("compute", "-g", "0", "-d", "740",
                                 "--method", "closed-form")
        assert code == EXIT_OK
        assert len(payload["value"]) > sys.get_int_max_str_digits()
        with unlimited_digits():
            assert int(payload["value"]) == recursion.h0_closed(740)

    @pytest.mark.parametrize("broken, error", [
        (_broken_route, "RuntimeError: broken route"),
        (Decimal, "TypeError: Object of type Decimal is not JSON "
                  "serializable"),
    ], ids=["route-raises", "value-json-refuses"])
    def test_internal_error_is_reported(self, monkeypatch, broken, error):
        monkeypatch.setattr(recursion, "h0_closed", broken)
        code, out, err, _ = run(["compute", "-g", "0", "-d", "3",
                                 "--method", "closed-form"])
        assert code == EXIT_ERROR
        assert json.loads(out) == {"status": "error", "error": error}
        assert "Traceback" in err


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


class TestCrosscheck:
    def test_disagreeing_route_is_a_mismatch(self, monkeypatch):
        closed = recursion.h0_closed
        monkeypatch.setattr(recursion, "h0_closed",
                            lambda d: closed(d) + (d == 3))
        code, payload = run_json("crosscheck", "--gmax", "1", "--dmax", "4")
        assert code == EXIT_MISMATCH
        assert payload["status"] == "mismatch"
        disagreeing = [(c["genus"], c["degree"]) for c in payload["cells"]
                       if not c["agree"]]
        assert disagreeing == [(0, 3)]


class TestSharedCell:
    """`compute`, `table` and `crosscheck` give a cell one shape, and
    `table` and `crosscheck` one refusal of a range."""

    @pytest.mark.parametrize("g, d", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_commands_agree_on_a_cell(self, g, d):
        _code, checked = run_json("crosscheck", "--gmax", str(g),
                                  "--dmax", str(d))
        crosscheck = next(cell for cell in checked["cells"]
                          if (cell["genus"], cell["degree"]) == (g, d))
        methods = [method.value for method in applicable_methods(g, d)]
        assert sorted(crosscheck["values"]) == sorted(methods)
        for method in methods:
            code, computed = run_json("compute", "-g", str(g),
                                      "-d", str(d), "--method", method)
            assert code == EXIT_OK
            _code, table = run_json("table", "--gmax", str(g),
                                    "--dmax", str(d), "--method", method,
                                    "--format", "json")
            cell = next(cell for cell in table["cells"]
                        if (cell["genus"], cell["degree"]) == (g, d))
            assert cell == {key: computed[key] for key in
                            ("genus", "degree", "branch_points", "value")}
            assert crosscheck["branch_points"] == cell["branch_points"]
            assert crosscheck["values"][method] == cell["value"]

    @pytest.mark.parametrize("gmax, dmax", [(-1, 3), (0, 0)])
    def test_table_and_crosscheck_refuse_a_range_alike(self, gmax, dmax):
        bounds = ("--gmax", str(gmax), "--dmax", str(dmax))
        table = run_cli("table", *bounds)
        assert table[0] == EXIT_INVALID
        assert table == run_cli("crosscheck", *bounds)


class TestBranchDivisor:
    def test_huge_genus_values_print_in_full(self, tmp_path):
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
        code, out = run_cli("branch-divisor", "--input", str(path))
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

    def test_broken_degree_law_is_an_internal_error(self, monkeypatch):
        # every valid graph meets the degree law, so a divisor that breaks
        # it is a fault in the program, not a mismatch (exit 1)
        count = routes.branch_count
        monkeypatch.setattr(routes, "branch_count",
                            lambda *args: count(*args) + 1)
        code, out, err, _ = run(["branch-divisor", "--input",
                                 str(FIXTURES / "elliptic_tail.json")])
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "status": "error",
            "error": "ArithmeticError: branch divisor of degree 4 is not an "
                     "effective divisor of degree 5",
        }
        assert err.count("Traceback") == 1


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
    def test_process_matches_main(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # help text in both runs
        code, out = run_cli(*argv)
        assert gc.get_freeze_count() == 0
        result = subprocess.run([sys.executable, "-m", "hurwitz.cli", *argv],
                                capture_output=True, check=False,
                                env=child_env())
        assert (result.returncode, result.stdout) == (code, out.encode())

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
        assert run_cli("compute", "-g", "1", "-d", "3")[0] == EXIT_OK
        assert not gc.isenabled()
        assert run_cli("branch-divisor", "--input",
                       str(FIXTURES / "elliptic_tail.json"))[0] == EXIT_OK
        assert not gc.isenabled()
        monkeypatch.setattr(recursion, "h0_closed", lambda d: 1 / 0)
        assert run_cli("compute", "-g", "0", "-d", "3",
                       "--method", "closed-form")[0] == EXIT_ERROR
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
    def test_repeat_runs_are_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second

    def test_mismatch_exit_code_is_distinct(self):
        assert EXIT_OK == 0
        assert EXIT_MISMATCH == 1
        assert EXIT_INVALID == 2
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID}) == 3
        assert EXIT_ERROR == 3
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID, EXIT_ERROR}) == 4
