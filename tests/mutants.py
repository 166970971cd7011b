"""Run tier-1 on mutated copies of the checkout: every mutant must fail
it (mutation testing, after DeMillo, Lipton and Sayward, "Hints on test
data selection", 1978).

`MUTANTS` lists hand-made faults, each one edit `(name, path, old,
new)` of a file of the checkout: `old`, which occurs exactly once in
`path` (OWN_TEST checks that), becomes `new`. Each is a fault that a
test folded into another one caught, and that its keeper must catch
now, or a fault that a bound's test must catch. For each mutant the
checkout, without .git, is copied into a temporary directory, the edit
is made there, and `python -m pytest -q -x -p no:cacheprovider` runs
tier-1 but OWN_TEST in the copy for at most TIMEOUT seconds. One line
per mutant says whether tier-1 caught it, naming the first test that
failed, let it survive, or timed out, with the seconds it took.

    python tests/mutants.py  # exit 1 unless every mutant is caught

A change that moves the code a mutant edits updates its row here.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds one mutant's tier-1 may take: more than ten times a whole
# tier-1 run, which takes 17-27 s (Python 3.11, 2-CPU Xeon)
TIMEOUT = 300
# the test that finds each edit's text in the checkout, which a mutant
# has edited away: a copy runs the rest of tier-1
OWN_TEST = "tests/test_golden.py::test_every_mutant_edits_one_place"

STABLEMAP, ROUTES = "src/hurwitz/stablemap.py", "src/hurwitz/routes.py"
INTERSECTION = "src/hurwitz/intersection.py"
MUTANTS = [
    ("the stream never matches a document's opening", STABLEMAP,
     "_OPEN = _grammar(r' ", "_OPEN = _grammar(r'(?!) "),
    ("a missing file is worded otherwise", STABLEMAP,
     "no such file: {path}", "file not found: {path}"),
    ("a window keeps the text already scanned", STABLEMAP,
     "self.text, self.at = text[at:] + window, 0",
     "self.text, self.at = text + window, at"),
    ("a pipe is read as a regular file", STABLEMAP,
     "piped = not handle.seekable()", "piped = False"),
    ("the default table format is csv", "src/hurwitz/cli.py",
     'default="aligned-text",', 'default="csv",'),
    ("a coefficient of the genus-2 step is off by one",
     "src/hurwitz/recursion.py", "(97 * d - 160)", "(97 * d - 161)"),
    ("branch_count weighs the target genus 3 times", ROUTES,
     "(2 * target_genus - 2)", "(3 * target_genus - 2)"),
    ("the divisor keeps zero coefficients", STABLEMAP,
     "{point: c for point, c in self.coeffs.items() if c}",
     "dict(self.coeffs)"),
    ("the tests' conjugate returns its input", "tests/test_character.py",
     "    return tuple(columns)", "    return tuple(shape)"),
    ("the oracle covers every cell", "src/hurwitz/oracle.py",
     "if d > MAX_DEGREE or r > MAX_BRANCH_POINTS:", "if False:"),
    ("the intersection formula covers every degree", INTERSECTION,
     "if d > MAX_DEGREE:", "if False:"),
    ("the recursions' refusal is worded otherwise",
     "src/hurwitz/recursion.py", "no recursion is available for genus",
     "no recursion for genus"),
    ("the value bound refuses the cell at its edge", ROUTES,
     ".bit_length() > MAX_VALUE_BITS:", ".bit_length() >= MAX_VALUE_BITS:"),
    ("the intersection formula takes 2 s to refuse a degree", INTERSECTION,
     "if d > MAX_DEGREE:",
     'if d > MAX_DEGREE and not __import__("time").sleep(2):'),
]


def tier1(path: str, old: str, new: str) -> str:
    """What tier-1 makes of a copy of the checkout with `old` in `path`
    replaced by `new`: caught, naming the first test that failed,
    survived, or timed out."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        target = tree / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", "--deselect", OWN_TEST],
                cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timed out"
    if result.returncode == 0:
        return "survived"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", result.stdout,
                      re.MULTILINE)
    return f"caught {first[1] if first else f'(exit {result.returncode})'}"


def main() -> int:
    missed = 0
    for name, path, old, new in MUTANTS:
        start = time.perf_counter()
        outcome = tier1(path, old, new)
        missed += not outcome.startswith("caught")
        print(f"{name}: {outcome} [{time.perf_counter() - start:.0f} s]",
              flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
