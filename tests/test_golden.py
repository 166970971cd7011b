"""The command line, run whole: every run that make_golden.py lists
prints the exit code and stdout stored in golden_outputs.json, and ends
in a documented exit, a refusal (exit 2) within a second. Every run
goes through `make_golden.run`, which stops the list at a run that
takes more than `make_golden.BOUND` seconds and names it, so a route
that loses its bound fails here instead of hanging the suite.

A change that alters output on purpose rebuilds the file with
`python tests/make_golden.py`, whose diff shows what each changed run
prints, and explains every changed run.
"""

import gc
import json
import signal
import sys
import time

import pytest

import make_golden
from hurwitz import cli, recursion
from hurwitz.cli import EXIT_INVALID, EXIT_OK

# the most seconds a refusal may take; the slowest of the list's 1,033
# takes 0.01-0.03 s (Python 3.11, 2-CPU Xeon)
REFUSAL_SECONDS = 1


@pytest.fixture(scope="module")
def runs():
    """Every run once, each with whether `main` restored the caller's
    collector and digit limit. The caller has the collector on and the
    default limit, as an interpreter starts; test_cli.py pins a caller
    that had turned the collector off. An overrun fails the fixture
    once: pytest would run it again for each test on an exception that
    is not an Exception."""
    gc.enable()
    limit = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    try:
        return [(*run, gc.isenabled()
                 and sys.get_int_max_str_digits() == limit)
                for run in make_golden.runs()]
    except make_golden.Overrun as exc:
        pytest.fail(str(exc))


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
    broken = [f"{key}: exit {code} in {seconds:.2f} s, collector and digit "
              f"limit restored {restored}, stderr ending "
              f"{err.strip()[-200:]!r}"
              for key, argv, code, out, err, seconds, restored in runs
              if not (restored and _documented(argv, code, out, err))
              or code == EXIT_INVALID and seconds >= REFUSAL_SECONDS]
    assert not broken, "\n".join(broken)


def _spin(*args):
    while True:
        pass


class _RestoreSpins:
    """`sys` as cli.py sees it, but restoring the digit limit, the first
    step of `main`'s `finally`, spins."""

    def __getattr__(self, name):
        return getattr(sys, name)

    def set_int_max_str_digits(self, limit):
        if limit:
            _spin()
        sys.set_int_max_str_digits(limit)


def test_an_overrun_stops_the_run_and_names_it(monkeypatch):
    # one route spins, then `main`'s `finally`, before it restores the
    # digit limit and the collector, so the runner must restore both
    monkeypatch.setattr(make_golden, "BOUND", 0.2)
    argv = ["compute", "-g", "0", "-d", "3", "--method", "closed-form"]
    limit = sys.get_int_max_str_digits()
    handler = signal.getsignal(signal.SIGALRM)
    spinning = {"route": (recursion, "h0_closed", _spin),
                "finally": (cli, "sys", _RestoreSpins())}
    for where, patch in spinning.items():
        with monkeypatch.context() as patched:
            patched.setattr(*patch)
            gc.enable()
            start = time.perf_counter()
            with pytest.raises(make_golden.Overrun,
                               match=f"^{' '.join(argv)}: more than 0.2 s$"):
                make_golden.run(argv)
        assert time.perf_counter() - start < 1, where
        assert gc.isenabled(), where
        assert sys.get_int_max_str_digits() == limit, where
        assert signal.getsignal(signal.SIGALRM) is handler, where
