"""Command-line interface: payloads, exit codes, and determinism."""

import gc
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurwitz
from hurwitz import recursion
from hurwitz.cli import EXIT_ERROR, EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main
from hurwitz.routes import Method

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


@contextmanager
def unlimited_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestCompute:
    def test_character_value(self, capsys):
        code, payload = run_json(
            capsys, "compute", "--genus", "2", "--degree", "3",
            "--method", "character",
        )
        assert code == EXIT_OK
        assert payload["status"] == "ok"
        assert payload["value"] == "364"
        assert payload["branch_points"] == 8

    def test_short_flags_and_default_method(self, capsys):
        code, payload = run_json(capsys, "compute", "-g", "0", "-d", "3")
        assert code == EXIT_OK
        assert payload["method"] == "character"
        assert payload["value"] == "4"

    def test_rational_serialization(self, capsys):
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "2",
            "--method", "closed-form",
        )
        assert code == EXIT_OK
        assert payload["value"] == "1/2"

    def test_degenerate_degrees_route_through_elsv(self, capsys):
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "2", "--method", "elsv-g0",
        )
        assert code == EXIT_OK
        assert payload["value"] == "1/2"

    def test_recursion_beyond_genus_two_is_invalid_input(self, capsys):
        code, payload = run_json(
            capsys, "compute", "--genus", "3", "--degree", "2",
            "--method", "recursion",
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "genus" in payload["error"]

    def test_oracle_bound_is_invalid_input(self, capsys):
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "6", "--method", "oracle",
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"

    def test_negative_genus_is_invalid_input(self, capsys):
        code, payload = run_json(capsys, "compute", "-g", "-1", "-d", "2")
        assert code == EXIT_INVALID

    def test_elsv_bound_is_invalid_input(self, capsys):
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "41", "--method", "elsv-g0",
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "d <= 40" in payload["error"]

    def test_values_of_any_size_print(self, capsys):
        # H_{0,740} has more digits than str(int) converts by default
        code, payload = run_json(
            capsys, "compute", "-g", "0", "-d", "740",
            "--method", "closed-form",
        )
        assert code == EXIT_OK
        limit = sys.get_int_max_str_digits()
        assert len(payload["value"]) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert int(payload["value"]) == recursion.h0_closed(740)
        finally:
            sys.set_int_max_str_digits(limit)


    def test_internal_error_is_reported(self, capsys, monkeypatch):
        def broken(d):
            raise RuntimeError("broken route")

        monkeypatch.setattr(recursion, "h0_closed", broken)
        code = main(["compute", "-g", "0", "-d", "3",
                     "--method", "closed-form"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(captured.out) == {
            "status": "error", "error": "RuntimeError: broken route",
        }
        assert "Traceback" in captured.err


# every way a method refuses a cell, with the exact stdout it prints
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
}


@pytest.mark.parametrize("argv, error", REFUSALS.values(), ids=REFUSALS)
def test_refusal_prints_exact_bytes(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == (
        f'{{\n  "error": "{error}",\n  "status": "invalid-input"\n}}\n'
    )


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

    def test_json_format(self, capsys):
        code, payload = run_json(
            capsys, "table", "--gmax", "2", "--dmax", "3",
            "--method", "recursion", "--format", "json",
        )
        assert code == EXIT_OK
        cells = {(c["genus"], c["degree"]): c["value"]
                 for c in payload["cells"]}
        assert len(cells) == 9
        assert cells[(1, 3)] == "40"
        assert cells[(2, 3)] == "364"

    def test_method_out_of_range_is_invalid_input(self, capsys):
        code, payload = run_json(
            capsys, "table", "--gmax", "3", "--dmax", "2",
            "--method", "recursion",
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"

    def test_bad_range_is_invalid_input(self, capsys):
        code, payload = run_json(capsys, "table", "--gmax", "0",
                                 "--dmax", "0")
        assert code == EXIT_INVALID


class TestCrosscheck:
    def test_canonical_range_agrees(self, capsys):
        code, payload = run_json(
            capsys, "crosscheck", "--gmax", "1", "--dmax", "4",
        )
        assert code == EXIT_OK
        assert payload["status"] == "ok"
        assert len(payload["cells"]) == 8
        for cell in payload["cells"]:
            assert cell["agree"] is True
            # every cell in this range is covered by several methods
            assert len(cell["values"]) >= 2

    def test_values_match_known_table(self, capsys):
        _code, payload = run_json(
            capsys, "crosscheck", "--gmax", "1", "--dmax", "4",
        )
        by_cell = {(c["genus"], c["degree"]): c for c in payload["cells"]}
        assert by_cell[(0, 4)]["values"]["closed-form"] == "120"
        assert by_cell[(1, 3)]["values"]["recursion"] == "40"
        assert by_cell[(1, 4)]["values"]["character"] == "5460"
        assert by_cell[(0, 2)]["values"]["oracle"] == "1/2"

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


class TestBranchDivisor:
    def test_elliptic_tail_fixture(self, capsys):
        code, payload = run_json(
            capsys, "branch-divisor", "--input",
            str(FIXTURES / "elliptic_tail.json"),
        )
        assert code == EXIT_OK
        assert payload["status"] == "ok"
        assert payload["divisor"] == {"p": 2, "q1": 1, "q2": 1}
        assert payload["divisor_degree"] == 4
        assert payload["expected_degree"] == 4
        assert payload["degree_check"] == "ok"
        assert payload["source_genus"] == 1
        assert payload["effective"] is True

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

    def test_identity_fixture(self, capsys):
        code, payload = run_json(
            capsys, "branch-divisor", "--input",
            str(FIXTURES / "identity_map.json"),
        )
        assert code == EXIT_OK
        assert payload["divisor"] == {}
        assert payload["divisor_degree"] == 0

    def test_unstable_fixture_is_invalid_input(self, capsys):
        code, payload = run_json(
            capsys, "branch-divisor", "--input",
            str(FIXTURES / "unstable_tail.json"),
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert any("contracted genus-0" in v for v in payload["violations"])

    def test_missing_file_is_invalid_input(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "branch-divisor", "--input",
            str(tmp_path / "nope.json"),
        )
        assert code == EXIT_INVALID

    def test_malformed_json_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"target_genus": 0', encoding="utf-8")
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(path),
        )
        assert code == EXIT_INVALID
        assert "JSON" in payload["error"]

    def test_directory_is_invalid_input(self, capsys, tmp_path):
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(tmp_path),
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "cannot read input" in payload["error"]

    def test_binary_file_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(bytes([0xff, 0xfe, 0x00, 0x9c, 0x80]) * 64)
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(path),
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "UTF-8" in payload["error"]

    def test_deep_nesting_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(path),
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "nested" in payload["error"]

    def test_oversized_integer_is_invalid_input(self, capsys, tmp_path):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "huge.json"
        path.write_text('{"target_genus": ' + digits + "}", encoding="utf-8")
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(path),
        )
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        assert "digits" in payload["error"]


    def test_huge_genus_violation_prints_in_full(self, capsys, tmp_path):
        # the largest genus the JSON parser accepts; 2g-2 has one digit
        # more than str(int) converts by default
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        with unlimited_digits():
            path.write_text(json.dumps({
                "target_genus": 0,
                "components": [{"kind": "dominant", "id": "A",
                                "genus": int("9" * limit), "degree": 1}],
            }), encoding="utf-8")
        code, payload = run_json(
            capsys, "branch-divisor", "--input", str(path),
        )
        assert sys.get_int_max_str_digits() == limit
        assert code == EXIT_INVALID
        assert payload["status"] == "invalid-input"
        two_g_minus_2 = "1" + "9" * (limit - 1) + "6"
        assert payload["violations"] == [
            f"component 'A': Riemann-Hurwitz fails (2g-2 = {two_g_minus_2}, "
            "degree and profiles give -2)"
        ]

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


def _compute_argv():
    return st.builds(
        lambda g, d, m: ["compute", "-g", str(g), "-d", str(d),
                         "--method", m],
        st.integers(-2, 4), st.integers(-1, 9),
        st.sampled_from([m.value for m in Method]),
    )


def _table_argv():
    return st.builds(
        lambda g, d, m, f: ["table", "--gmax", str(g), "--dmax", str(d),
                            "--method", m, "--format", f],
        st.integers(-1, 3), st.integers(-1, 6),
        st.sampled_from([m.value for m in Method]),
        st.sampled_from(["aligned-text", "json", "csv"]),
    )


def _crosscheck_argv():
    return st.builds(
        lambda g, d: ["crosscheck", "--gmax", str(g), "--dmax", str(d)],
        st.integers(-1, 3), st.integers(-1, 5),
    )


# the three fixtures, a missing path and a directory
_BRANCH_DIVISOR_ARGV = [
    ["branch-divisor", "--input", str(path)] for path in (
        FIXTURES / "identity_map.json", FIXTURES / "elliptic_tail.json",
        FIXTURES / "unstable_tail.json", FIXTURES / "missing.json",
        FIXTURES,
    )
]


class TestArgumentSpace:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_compute_argv(), _table_argv(), _crosscheck_argv(),
                     st.sampled_from(_BRANCH_DIVISOR_ARGV)))
    @example(_BRANCH_DIVISOR_ARGV[0])
    @example(_BRANCH_DIVISOR_ARGV[1])
    @example(_BRANCH_DIVISOR_ARGV[2])
    @example(_BRANCH_DIVISOR_ARGV[3])
    @example(_BRANCH_DIVISOR_ARGV[4])
    def test_every_run_ends_in_a_documented_exit(self, argv):
        # a caller with the collector on, as an interpreter starts; the
        # next test pins a caller that had turned it off
        gc.enable()
        limit = sys.get_int_max_str_digits()
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        # main restores the caller's collector setting and digit limit
        assert gc.isenabled()
        assert sys.get_int_max_str_digits() == limit
        assert code in (EXIT_OK, EXIT_INVALID)
        text = out.getvalue()
        if argv[-1] in ("aligned-text", "csv") and code == EXIT_OK:
            assert text.startswith("g")
            return
        payload = json.loads(text)
        assert isinstance(payload, dict)
        assert payload["status"] == {EXIT_OK: "ok",
                                     EXIT_INVALID: "invalid-input"}[code]


def child_env() -> dict[str, str]:
    # a child process imports the same hurwitz package as this process
    src = str(Path(hurwitz.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


class TestProcessEntry:
    # `python -m hurwitz.cli` and the `hurwitz` script run cli.run, which
    # freezes the heap on the way out; the process must still give
    # main()'s exit code and stdout bytes, and main() itself must leave
    # nothing frozen
    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("compute", "-g", "2", "-d", "20", "--method", "recursion"),
        ("compute", "-g", "3", "-d", "2", "--method", "recursion"),
        ("compute", "-g", "one", "-d", "2"),
        ("branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json")),
    ], ids=["help", "compute", "refused", "usage-error", "branch-divisor"])
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

    @pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
    @pytest.mark.parametrize("argv", [
        ("--help",),
        ("compute", "--help"),
        ("compute", "-g", "1", "-d", "3"),
        ("table", "--gmax", "1", "--dmax", "3"),
        ("branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json")),
    ], ids=["help", "compute-help", "compute", "table", "branch-divisor"])
    def test_unwritable_stdout_is_an_error_without_traceback(self, argv,
                                                             sink):
        # a pipe whose read end is closed before the child starts, or a
        # device that is always full; stdout buffered and unbuffered, since
        # a buffered child meets the error only when it flushes
        if sink == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        for unbuffered in ("", "1"):
            env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
            if sink == "closed-pipe":
                read_end, stdout = os.pipe()
                os.close(read_end)
            else:
                stdout = os.open("/dev/full", os.O_WRONLY)
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "hurwitz.cli", *argv],
                    stdout=stdout, stderr=subprocess.PIPE, check=False,
                    env=env)
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

    def test_console_script_smoke(self):
        # the installed entry point must behave like main()
        result = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "crosscheck",
             "--gmax", "0", "--dmax", "2"],
            capture_output=True, text=True, check=False, env=child_env(),
        )
        assert result.returncode == EXIT_OK
        payload = json.loads(result.stdout)
        assert payload["status"] == "ok"

    def test_mismatch_exit_code_is_distinct(self):
        assert EXIT_OK == 0
        assert EXIT_MISMATCH == 1
        assert EXIT_INVALID == 2
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID}) == 3
        assert EXIT_ERROR == 3
        assert len({EXIT_OK, EXIT_MISMATCH, EXIT_INVALID, EXIT_ERROR}) == 4
