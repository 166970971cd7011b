"""Rebuild or check tests/golden_outputs.json, the exit code and stdout
hash of a fixed list of CLI runs.

Each entry maps an argv, joined by spaces, to [exit code, sha256 of
stdout]. The runs are every `--help`, `compute` by every method over a
grid of cells, by recursion and closed form at genus 0, degree 500, and
by the default method at genus 10,000, degree 3, `table` by every
method over nine ranges in every format, `crosscheck` over eight ranges
up to genus 10 and degree 30, `branch-divisor` on every
docs/fixtures/*.json in sorted order and a missing path, seeded
mutations of docs/fixtures/elliptic_tail.json from
graphgen.mutate_document, each keyed by its seed, and that fixture's
graphgen.misplaced_documents, each keyed by what moved. Every run goes
through `cli.main` in this process, with COLUMNS pinned so that help
text does not follow the terminal.

Help text also depends on the interpreter: Python 3.13's argparse
prints `--genus, -g GENUS` where 3.11 and 3.12 print `--genus GENUS,
-g GENUS`. A `--help` entry therefore maps each Python version to its
own pair; a rebuild writes the running version's and keeps the others,
so run it under every supported version after a change to the help.

    python tests/make_golden.py          # rebuild
    python tests/make_golden.py --check  # list every run that differs

An output-changing change rebuilds the file; its diff names exactly the
runs whose output changed.
"""

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
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

HELP = [["--help"]] + [[command, "--help"] for command in
                       ("compute", "table", "crosscheck", "branch-divisor")]

# (gmax, dmax): refusals, both invalid ranges, and the character route
# to degree 20
TABLE_RANGES = [(0, 1), (0, 5), (0, 7), (1, 4), (2, 6), (3, 2), (0, 20),
                (-1, 3), (0, 0)]
# (gmax, dmax): both invalid ranges, and last the headline cross-check
# of every route
CROSSCHECK_RANGES = [(0, 3), (1, 4), (2, 6), (3, 5), (5, 10), (-1, 3),
                     (0, 0), (10, 30)]

ARGVS = (
    HELP
    + [["compute", "-g", str(g), "-d", str(d), "--method", method]
       for method in METHODS for g in range(-1, 5) for d in range(8)]
    # the two genus-0 routes that reach degree 500
    + [["compute", "-g", "0", "-d", "500", "--method", method]
       for method in ("recursion", "closed-form")]
    # a value of about 9,500 digits, past the 20,000 bits above which
    # the CLI prints through decimal
    + [["compute", "-g", "10000", "-d", "3"]]
    + [["table", "--method", method, "--gmax", str(g), "--dmax", str(d),
        "--format", fmt]
       for method in METHODS for g, d in TABLE_RANGES
       for fmt in ("aligned-text", "csv", "json")]
    # the first cell each route refuses lies past every computed cell
    + [["table", "--method", "recursion", "--gmax", "3", "--dmax", "150"],
       ["table", "--method", "elsv-g0", "--gmax", "0", "--dmax", "41"]]
    + [["crosscheck", "--gmax", str(g), "--dmax", str(d)]
       for g, d in CROSSCHECK_RANGES]
    + [["branch-divisor", "--input", f"docs/fixtures/{name}"]
       for name in FIXTURES]
    + [["branch-divisor", "--input", "docs/fixtures/missing.json"]]
)


def _run(argv: list[str]) -> list:
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]


def runs():
    """(key, [exit code, stdout sha256]) for every run, in file order,
    run from the repository root with COLUMNS=80."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        for argv in ARGVS:
            yield " ".join(argv), _run(argv)
        source = json.loads(
            (ROOT / "docs" / "fixtures" / f"{MUTATED}.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutation.json"
            for seed in range(MUTATIONS):
                mutated = mutate_document(source, random.Random(seed))
                path.write_text(json.dumps(mutated), encoding="utf-8")
                yield (f"branch-divisor --input <{MUTATED} mutation {seed}>",
                       _run(["branch-divisor", "--input", str(path)]))
            for moved, document in misplaced_documents(source).items():
                path.write_text(json.dumps(document), encoding="utf-8")
                yield (f"branch-divisor --input <{MUTATED}, {moved}>",
                       _run(["branch-divisor", "--input", str(path)]))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def differences(golden: dict) -> list[str]:
    """One line per run whose exit code or stdout hash differs from
    `golden`, and one per stored key that no run produces."""
    lines = []
    seen = set()
    for key, got in runs():
        seen.add(key)
        expected = golden.get(key)
        if isinstance(expected, dict):  # help text, per Python version
            expected = expected.get(VERSION, f"nothing for Python {VERSION}")
        if expected != got:
            lines.append(f"{key}: stored {expected}, now {got}")
    lines += [f"{key}: stored, but not run" for key in golden
              if key not in seen]
    return lines


def rebuild() -> dict:
    old = load() if GOLDEN.exists() else {}
    golden = {}
    for key, got in runs():
        if key.endswith("--help"):  # keep the other versions' hashes
            got = dict(sorted({**old.get(key, {}), VERSION: got}.items()))
        golden[key] = got
    # one entry a line, so that a diff names exactly the runs that changed
    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                      for key, value in golden.items())
    GOLDEN.write_text("{\n" + body + "\n}\n", encoding="utf-8")
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
    lines = differences(load())
    for line in lines:
        print(line)
    print(f"{len(lines)} runs differ" if lines else "all runs match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(_main())
