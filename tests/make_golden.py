"""Rebuild or check tests/golden_outputs.json, the exit code and stdout
of every command line tier-1 runs.

`ARGVS` is the one list of command lines: every `--help`; `compute` by
every method on genus -2..4 and degree -1..9, by recursion and closed
form at genus 0, degree 500, by the default method at genus 10,000,
degree 3, and past every bound, by every method; `table` by every
method on genus -1..3 and degree -1..6 and a few wider ranges, in every
format, by the default method and format on one range, and past every
bound; `crosscheck` on genus -1..3 and degree -1..5, and up to genus 10
and degree 30; `branch-divisor` on every docs/fixtures/*.json in sorted
order, a missing path and a directory; and the usage errors argparse
refuses. After them run seeded mutations of
docs/fixtures/elliptic_tail.json from graphgen.mutate_document, each
keyed by its seed, and that fixture's graphgen.misplaced_documents,
each keyed by what moved. Every run goes through `run`, which calls
`cli.main` in this process, from the repository root with COLUMNS
pinned so that help text does not follow the terminal. `run` stops a
run after BOUND seconds with Overrun, which names it, so a route that
loses its bound stops the list instead of hanging it; tier-1's other
in-process CLI runs go through `run` too, and its tests that call a
route directly run under `bounded`, the same timer.

Each entry maps an argv, joined by spaces, to [exit code, stdout split
at newlines], one output line a file line, so that the diff of a
rebuild shows what each changed run prints. Help text also depends on
the interpreter: Python 3.13's argparse prints `--genus, -g GENUS`
where 3.11 and 3.12 print `--genus GENUS, -g GENUS`. A `--help` entry
therefore maps each Python version to its own pair; a rebuild writes
the running version's and keeps the others, so run it under every
supported version after a change to the help.

    python tests/make_golden.py          # rebuild
    python tests/make_golden.py --check  # show every run that differs

test_golden.py checks every run against its entry, and that it ends in
a documented exit, a refusal within a second. tests/mutants.py runs
tier-1 on mutated copies of the checkout.
"""

import argparse
import difflib
import gc
import io
import json
import os
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # run as a script from a checkout
    sys.path.insert(0, str(ROOT / "src"))

from graphgen import misplaced_documents, mutate_document  # noqa: E402
from hurwitz.cli import main  # noqa: E402
from hurwitz.routes import Method  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
METHODS = [method.value for method in Method]
# every document in docs/fixtures, in the order CI runs them
FIXTURES = sorted(path.name for path in
                  (ROOT / "docs" / "fixtures").glob("*.json"))
MUTATED = "elliptic_tail"
MUTATIONS = 300
# diff lines shown for one differing run
DIFF_LINES = 20
# seconds one run may take: more than ten times the slowest,
# `crosscheck --gmax 10 --dmax 30` at about 1.5 s (Python 3.11, 2-CPU
# Xeon)
BOUND = 20

HUGE = str(10 ** 15)
# a range of 10^12 cells, past routes.MAX_CELLS
HUGE_RANGE = ["--gmax", "1000000", "--dmax", "1000000"]

HELP = [["--help"]] + [[command, "--help"] for command in
                       ("compute", "table", "crosscheck", "branch-divisor")]

# (gmax, dmax): every range on genus -1..3 and degree -1..6, refusals and
# both kinds of invalid range among them, then the oracle's refusal of
# (0, 6) and the character route to degree 20
TABLE_RANGES = ([(g, d) for g in range(-1, 4) for d in range(-1, 7)]
                + [(0, 7), (0, 20)])
# (gmax, dmax): every range on genus -1..3 and degree -1..5, then wider
# ones, and last the headline cross-check of every route
CROSSCHECK_RANGES = ([(g, d) for g in range(-1, 4) for d in range(-1, 6)]
                     + [(2, 6), (5, 10), (10, 30)])

ARGVS = (
    HELP
    + [["compute", "-g", str(g), "-d", str(d), "--method", method]
       for method in METHODS for g in range(-2, 5) for d in range(-1, 10)]
    # the two genus-0 routes that reach degree 500
    + [["compute", "-g", "0", "-d", "500", "--method", method]
       for method in ("recursion", "closed-form")]
    # the first degree the intersection formula refuses
    + [["compute", "-g", "0", "-d", "41", "--method", "elsv-g0"]]
    # a value of about 9,500 digits, past the 20,000 bits above which
    # the CLI prints through decimal
    + [["compute", "-g", "10000", "-d", "3"]]
    # the first genus past routes.MAX_VALUE_BITS at d = 3, and a genus or
    # a degree of 10^15 by every method
    + [["compute", "-g", "1048575", "-d", "3"]]
    + [["compute", "-g", "1048575", "-d", "3", "--method", method]
       for method in METHODS]
    + [["compute", "-g", HUGE, "-d", str(d), "--method", method]
       for d in (1, 2, 3) for method in METHODS]
    + [["compute", "-g", "0", "-d", HUGE, "--method", method]
       for method in METHODS]
    + [["table", "--method", method, "--gmax", str(g), "--dmax", str(d),
        "--format", fmt]
       for method in METHODS for g, d in TABLE_RANGES
       for fmt in ("aligned-text", "csv", "json")]
    # the first cell each route refuses lies past every computed cell
    + [["table", "--method", "recursion", "--gmax", "3", "--dmax", "150"],
       ["table", "--method", "elsv-g0", "--gmax", "0", "--dmax", "41"]]
    # the default method and format, then two refusals in that format
    + [["table", "--gmax", "1", "--dmax", "2"],
       ["table", "--method", "oracle", "--gmax", "0", "--dmax", "7"],
       ["table", "--method", "elsv-g0", "--gmax", "1", "--dmax", "3"]]
    + [["table", *HUGE_RANGE]]
    + [["table", "--method", method, *HUGE_RANGE] for method in METHODS]
    + [["table", "--gmax", HUGE, "--dmax", "1"],
       ["table", "--gmax", "0", "--dmax", HUGE]]
    + [["crosscheck", "--gmax", str(g), "--dmax", str(d)]
       for g, d in CROSSCHECK_RANGES]
    + [["crosscheck", *HUGE_RANGE], ["crosscheck", "--gmax", HUGE,
                                     "--dmax", HUGE]]
    + [["branch-divisor", "--input", f"docs/fixtures/{name}"]
       for name in [*FIXTURES, "missing.json"]]
    + [["branch-divisor", "--input", "docs/fixtures"]]
    # values argparse refuses before any command runs
    + [["compute", "-g", value, "-d", "3"]
       for value in ("x", "1.5", "", "0x10")]
    + [["table", "--gmax", "1", "--dmax", "two"]]
)


class Overrun(BaseException):
    """A run took more than BOUND seconds. Not an Exception, so that
    `main` cannot turn it into an exit 3."""


def _overrun(signum, frame):
    raise Overrun


@contextmanager
def bounded(name: str):
    """Run the block under a timer: past BOUND seconds, Overrun naming
    `name`. The block must not call `run`, which arms the same timer."""
    handler = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, BOUND)
    try:
        yield
    except Overrun:
        raise Overrun(f"{name}: more than {BOUND} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def run(argv: list[str], name: str = "") -> tuple[int, str, str, float]:
    """The exit code, stdout, stderr and seconds of `main(argv)` in this
    process, `bounded` by its name (`name`, or else the argv). An overrun
    can land in `main`'s `finally`, so the collector, the digit limit
    and stdio are then restored here."""
    collecting, limit = gc.isenabled(), sys.get_int_max_str_digits()
    stdio = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with bounded(name or " ".join(argv)):
            code = main(argv)
    except SystemExit as exc:  # argparse's, on --help or a usage error
        code = exc.code
    except Overrun:
        sys.set_int_max_str_digits(limit)
        if collecting:
            gc.enable()
        raise
    finally:
        sys.stdout, sys.stderr = stdio
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def runs():
    """(key, argv, exit code, stdout, stderr, seconds) for every run, in
    file order, each yielded as soon as it has run."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        for argv in ARGVS:
            yield " ".join(argv), argv, *run(argv)
        source = json.loads(
            (ROOT / "docs" / "fixtures" / f"{MUTATED}.json").read_text())
        documents = [(f"{MUTATED} mutation {seed}",
                      mutate_document(source, random.Random(seed)))
                     for seed in range(MUTATIONS)]
        documents += [(f"{MUTATED}, {moved}", document) for moved, document
                      in misplaced_documents(source).items()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutation.json"
            argv = ["branch-divisor", "--input", str(path)]
            for name, document in documents:
                path.write_text(json.dumps(document), encoding="utf-8")
                key = f"branch-divisor --input <{name}>"
                yield key, argv, *run(argv, key)
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def render(golden: dict) -> str:
    """The file's text: one output line a file line."""
    return json.dumps(golden, indent=1) + "\n"


def differences(golden: dict, results) -> list[str]:
    """For each of `results` (rows as `runs` yields them) whose exit code
    or stdout differs from `golden`: the stored and new exit code and a
    diff of stdout of at most DIFF_LINES lines; then each stored key that
    no run produces, and the number of differing runs per subcommand."""
    lines, seen, counts = [], set(), Counter()
    for key, _argv, code, out, *_ in results:
        seen.add(key)
        stored = golden.get(key)
        if isinstance(stored, dict):  # help text, per Python version
            stored = stored.get(VERSION)
        got = [code, out.split("\n")]
        if stored == got:
            continue
        old_code, old_lines = stored or ("nothing", [])
        counts[key.split()[0]] += 1
        lines.append(f"{key}: exit {old_code} stored, {code} now")
        diff = list(difflib.unified_diff(old_lines, got[1], "stored", "now",
                                         lineterm=""))
        lines += diff[:DIFF_LINES]
        if len(diff) > DIFF_LINES:
            lines.append(f"... {len(diff) - DIFF_LINES} more diff lines")
    for key in golden:
        if key not in seen:
            counts[key.split()[0]] += 1
            lines.append(f"{key}: stored, but not run")
    if counts:
        lines.append(f"{sum(counts.values())} runs differ: " + ", ".join(
            f"{command} {count}" for command, count in sorted(counts.items())))
    return lines


def rebuild() -> dict:
    old = load() if GOLDEN.exists() else {}
    golden = {}
    for key, _argv, code, out, *_ in runs():
        got = [code, out.split("\n")]
        if key.endswith("--help"):  # keep the other versions' text
            got = dict(sorted({**old.get(key, {}), VERSION: got}.items()))
        golden[key] = got
    GOLDEN.write_text(render(golden), encoding="utf-8")
    return golden


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored file; exit 1 on "
                             "any difference")
    if not parser.parse_args().check:
        golden = rebuild()
        print(f"wrote {len(golden)} entries to {GOLDEN.name}")
        return 0
    lines = differences(load(), runs())
    print("\n".join(lines) if lines else "all runs match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(_main())
