"""The command line, run whole: every run that make_golden.py lists
prints the exit code and stdout stored in golden_outputs.json, and ends
in a documented exit.

A change that alters output on purpose rebuilds the file with
`python tests/make_golden.py`, whose diff shows what each changed run
prints, and explains every changed run.
"""

import gc
import json
import sys

import pytest

import make_golden
from hurwitz.cli import EXIT_INVALID, EXIT_OK


@pytest.fixture(scope="module")
def runs():
    """Every run once, each with whether `main` restored the caller's
    collector and digit limit. The caller has the collector on and the
    default limit, as an interpreter starts; test_cli.py pins a caller
    that had turned the collector off."""
    gc.enable()
    limit = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    return [(*run, gc.isenabled() and sys.get_int_max_str_digits() == limit)
            for run in make_golden.runs()]


def test_cli_outputs_match_the_golden_file(runs):
    text = make_golden.GOLDEN.read_text(encoding="utf-8")
    golden = json.loads(text)
    # no entry hides its lines from a diff of the file
    assert text == make_golden.render(golden)
    lines = make_golden.differences(golden, runs)
    assert not lines, "\n".join(lines)


def _documented(argv, code, out, err) -> bool:
    # only argparse writes to stderr, on a usage error: the one exit 2
    # without JSON
    if err:
        return ((code, out) == (EXIT_INVALID, "")
                and err.splitlines()[-1].startswith(
                    f"hurwitz {argv[0]}: error: argument "))
    if code not in (EXIT_OK, EXIT_INVALID):
        return False
    if argv[-1] == "--help":
        return out.startswith("usage: hurwitz")
    if argv[-1] in ("aligned-text", "csv") and code == EXIT_OK:
        return out.startswith("g")
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("status") == {
        EXIT_OK: "ok", EXIT_INVALID: "invalid-input"}[code]


def test_every_run_ends_in_a_documented_exit(runs):
    broken = [f"{key}: exit {code}, collector and digit limit restored "
              f"{restored}, stderr ending {err.strip()[-200:]!r}"
              for key, argv, code, out, err, restored in runs
              if not (restored and _documented(argv, code, out, err))]
    assert not broken, "\n".join(broken)
