"""The method dispatch: route independence, the coverage it states,
the value bound, and `branch_count`'s refusals; its values are the
golden `branch_points` and criterion 7 of test_acceptance.py.

The cross-check means something only while the routes share no code,
so the import structure is pinned here, together with what each command
loads at start-up; the two routes that share recursion.py must each
compute with the other's entry point broken. `applicable_methods` decides
which routes a cross-check runs and which cells a table may ask of one
route, so it must say exactly where `hurwitz_value` succeeds. The exact
text of each refusal of a cell or a range, by every method, is a golden
run, which must end within a second; the tests here pin the value bound
at its edge, how it fits the range bound, and each route's own bound on
a direct call: its error and the cells just past it. Each test that
computes a value runs it under `make_golden.bounded`, so a route that
loses its bound fails there instead of hanging the suite. That a bound's
refusal has the text of the route's own error on a direct call, that a
table computes nothing before it refuses, and the cell bound at its
edge are `TestDispatch` and `TestTable` in test_recursion.py. The
oracle's backend string is pinned with the exports, and every public
name, exported or not, is read by the CLI or the benchmark.
"""

import ast
import functools
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest

import hurwitz
from hurwitz import intersection, oracle, recursion, routes
from hurwitz.routes import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    branch_count,
    hurwitz_value,
)
from make_golden import bounded
from test_recursion import reference_h0, reference_h1, reference_h2, \
    reset_recursion_lists

PACKAGE = Path(hurwitz.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "docs" / "fixtures"


def package_imports(module: str) -> set[str]:
    """Names of the hurwitz modules that hurwitz/<module>.py imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "hurwitz" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                head, _, rest = node.module.partition(".")
                if head != "hurwitz":
                    continue
            elif node.level == 1:
                rest = node.module or ""
            else:
                continue
            if rest:
                found.add(rest.split(".")[0])
            else:  # from . import x, y
                found.update(alias.name for alias in node.names)
    return found


# the route modules, read off the imports of routes.py, the one module
# that combines routes
ROUTES = package_imports("routes")
ROUTE_MODULES = {f"hurwitz.{route}" for route in ROUTES}


def test_routes_import_no_other_route():
    # the same set read off the calls that the methods resolve to, so a
    # new route module is checked here without an edit
    resolved = {routes._route(0, 3, method).func.__module__
                for method in Method}
    assert resolved == ROUTE_MODULES
    for route in ROUTES:
        assert not package_imports(route), route


def test_recursion_and_closed_form_share_no_function(monkeypatch):
    # the check above sees modules, and recursion.py holds two routes:
    # each must give its values with the other's entry point broken. The
    # recursions start from their lists' seeds, so that every step runs
    def broken(*args):
        raise RuntimeError("one route of recursion.py called the other")

    references = (reference_h0, reference_h1, reference_h2)
    with monkeypatch.context() as patch:
        patch.setattr(recursion, "h0_closed", broken)
        reset_recursion_lists()
        for g, reference in enumerate(references):
            for d in range(1, 21):
                value = hurwitz_value(g, d, Method.RECURSION)
                assert value == reference(d), (g, d)
    monkeypatch.setattr(recursion, "_twice", broken)
    for d in range(1, 21):
        assert hurwitz_value(0, d, Method.CLOSED_FORM) == reference_h0(d), d


def test_no_function_in_the_package_is_cached():
    # a route keeps values across calls only in growing lists stored by
    # index
    cached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):  # lru_cache(...)
                    decorator = decorator.func
                name = getattr(decorator, "id",
                               getattr(decorator, "attr", None))
                if name in ("cache", "lru_cache"):
                    cached.add((path.stem, node.name))
    assert not cached, sorted(cached)


# run in a fresh interpreter: with arguments, cli.main(arguments) with
# stdout captured (`--help` ends in SystemExit); without, `import
# hurwitz`. Prints the modules the run added to those the probe itself
# needs, and those loaded before it ran. json is imported only to print
# the report, after the run, so a run that loads it shows it.
PROBE = """
import io, sys
from contextlib import redirect_stdout
before = set(sys.modules)
if sys.argv[1:]:
    from hurwitz import cli
    with redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
else:
    import hurwitz
    code = 0
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"exit": code, "loaded": loaded, "before": sorted(before)}))
"""


def child_env() -> dict[str, str]:
    # a child process imports the same hurwitz package as this process
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(PACKAGE.parent)
            + (os.pathsep + path if path else "")}


@functools.cache
def child_report(argv: tuple, flags: tuple) -> dict:
    # the probe's report, run with the interpreter's `flags`; each
    # command line starts one child however many tests read its report
    result = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *argv],
        capture_output=True, text=True, check=True, env=child_env(),
    )
    return json.loads(result.stdout)


def probe(*argv: str, expected_exit: int = 0, flags: tuple = ()) -> dict:
    report = child_report(argv, flags)
    assert report["exit"] == expected_exit
    return report


ELLIPTIC = str(FIXTURES / "elliptic_tail.json")
TABLE = ("table", "--gmax", "1", "--dmax", "3")
BRANCH_DIVISOR = ("branch-divisor", "--input", ELLIPTIC)
SUBMODULES = {f"hurwitz.{path.stem}" for path in PACKAGE.glob("*.py")
              if path.name != "__init__.py"}
# only a printed Hurwitz number or a Riemann-Hurwitz message needs them
NUMBERS = {"fractions", "decimal"}


def others(route: str) -> set[str]:
    # the route modules that a run of `route` alone leaves unloaded
    return ROUTE_MODULES - {f"hurwitz.{route}"}


# command line -> (exit code, modules the run must load, modules it must
# not load). Only a JSON payload needs json; the probe sees it where it
# loads. A cross-check loads every route, a refusal at most the refusing
# route, and branch-divisor no route, nor dataclasses on a valid graph.
# The value bound is refused on the first genus past it at d = 3
STARTUP = {
    "import": ((), 0, {"hurwitz"}, SUBMODULES),
    "help": (("--help",), 0, set(), ROUTE_MODULES | NUMBERS | {"json"}),
    "compute": (("compute", "-g", "1", "-d", "3"), 0,
                {"hurwitz.routes", "hurwitz.character"},
                others("character") | {"hurwitz.stablemap", "dataclasses"}),
    "compute-recursion": (("compute", "-g", "1", "-d", "3", "--method",
                           "recursion"), 0, {"hurwitz.recursion"},
                          others("recursion")),
    "refused-recursion": (("compute", "-g", "3", "-d", "2", "--method",
                           "recursion"), 2, {"hurwitz.recursion"},
                          others("recursion")),
    "refused-closed-form": (("compute", "-g", "1", "-d", "2", "--method",
                             "closed-form"), 2, {"hurwitz.recursion"},
                            others("recursion")),
    "refused-elsv-g0": (("compute", "-g", "1", "-d", "3", "--method",
                         "elsv-g0"), 2, {"hurwitz.intersection"},
                        others("intersection")),
    "refused-value-bound": (("compute", "-g", "1048575", "-d", "3"), 2,
                            set(), ROUTE_MODULES),
    "table": (TABLE, 0, {"hurwitz.character"},
              others("character") | {"json"}),
    "table-recursion": ((*TABLE, "--method", "recursion"), 0,
                        {"hurwitz.recursion"}, others("recursion")),
    "table-csv": ((*TABLE, "--format", "csv"), 0, set(), {"json"}),
    "table-json": ((*TABLE, "--format", "json"), 0, {"json"}, set()),
    "crosscheck": (("crosscheck", "--gmax", "1", "--dmax", "3"), 0,
                   ROUTE_MODULES | NUMBERS | {"json"},
                   {"hurwitz.stablemap", "dataclasses"}),
    "branch-divisor": (BRANCH_DIVISOR, 0, {"hurwitz.stablemap"},
                       NUMBERS | ROUTE_MODULES | {"dataclasses"}),
    "branch-divisor-invalid": (("branch-divisor", "--input",
                                str(FIXTURES / "unstable_tail.json")), 2,
                               set(), NUMBERS | ROUTE_MODULES),
}


@pytest.mark.parametrize("argv, code, loads, avoids", STARTUP.values(),
                         ids=STARTUP)
def test_startup_imports(argv, code, loads, avoids):
    # every run also leaves __future__ alone: no module of the package
    # postpones its annotations
    loaded = set(probe(*argv, expected_exit=code)["loaded"])
    assert loads <= loaded, loads - loaded
    avoided = loaded & (avoids | {"__future__"})
    assert not avoided, avoided


def test_branch_divisor_loads_no_typing():
    # with -S: a site that preloads typing, as a .pth file can, would
    # leave nothing for the probe to see
    report = probe(*BRANCH_DIVISOR, flags=("-S",))
    assert "hurwitz.stablemap" in report["loaded"]
    assert "typing" not in report["before"]
    assert "typing" not in report["loaded"]


def test_exports_are_their_modules_objects():
    modules = [importlib.import_module(f"hurwitz.{name}")
               for name in hurwitz._MODULE_EXPORTS]
    assert len(hurwitz.__all__) == 36
    assert not ({"HurwitzTable", "FormalDivisor", "DegenerateCaseError",
                 "conjugate_partition", "partition_count",
                 "disconnected_hurwitz", "graph_to_dict"}
                & set(hurwitz.__all__))
    for name in hurwitz.__all__:
        if name == "ORACLE_BACKEND":
            continue
        value = getattr(hurwitz, name)
        assert any(getattr(m, name, None) is value for m in modules), name
    assert hurwitz.ORACLE_BACKEND == "python"
    namespace = {}
    exec("from hurwitz import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hurwitz.__all__)
    assert set(hurwitz.__all__) <= set(dir(hurwitz))


def used_names(path: Path, strings: bool, skip=()) -> set[str]:
    """The NAME tokens of a source file, less the name each def or class
    statement introduces and those that start at a (line, column) in
    `skip`, and with `strings` every word inside a string too. Comments
    hold no tokens of either kind."""
    texts = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", None)}
    names, previous = set(), None
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if (token.type == tokenize.NAME and token.start not in skip
                    and previous not in ("def", "class")):
                names.add(token.string)
            elif strings and token.type in texts:
                names.update(re.findall(r"\w+", token.string))
            previous = token.string
    return names


def names_only_tests_use(package: Path) -> list[str]:
    """The public top-level defs, classes and assignments of the modules
    in `package` (as "module.name") that are not read by the package
    outside their own definition and not named by the benchmark, under
    their own name or the name they are exported as (oracle.BACKEND as
    ORACLE_BACKEND). A def's calls to itself are part of its
    definition."""
    export_names = {target: name
                    for name, target in hurwitz._EXPORTS.items()}
    used, public = set(), set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        own = set()  # positions of each definition's own names
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.add((path.stem, node.name))
            if isinstance(node, ast.FunctionDef):
                own |= {(name.lineno, name.col_offset)
                        for statement in node.body
                        for name in ast.walk(statement)
                        if isinstance(name, ast.Name)
                        and name.id == node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            public.add((path.stem, name.id))
                            own.add((name.lineno, name.col_offset))
        used |= used_names(path, strings=False, skip=own)
    for path in (REPO / "perfbench").glob("*.py"):
        used |= used_names(path, strings=True)
    return sorted(f"{module}.{name}" for module, name in public
                  if not name.startswith("_") and name not in used
                  and export_names.get((module, name)) not in used)


def test_no_public_name_is_only_for_tests():
    # exported or not; ORACLE_BACKEND is named only inside perfbench's
    # probe string
    assert names_only_tests_use(PACKAGE) == []


def test_a_recursive_call_is_no_use_by_the_package(tmp_path):
    # a public function that only calls itself is still only for tests
    package = tmp_path / "hurwitz"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "oracle.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef spare(x):\n    return spare(x)\n")
    assert names_only_tests_use(package) == ["oracle.spare"]


def test_benchmark_reference_table_matches_the_routes():
    # make_reference.py recomputes every value of perfbench/reference.json
    # by a route of its own, compares it with the genus-2 recursion or the
    # character route, and checks the benchmark's closed forms; --check
    # writes nothing and exits nonzero on the first disagreement
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "make_reference.py"),
         "--check"],
        capture_output=True, text=True, check=False, env=child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_applicable_methods_are_exactly_where_values_exist():
    cells = [(g, d) for g in range(5) for d in range(1, 9)]
    # the character route covers every cell (checked on the grid) and
    # takes about 17 s at d=41, so the bound cell runs the others
    cells += [(0, 41)]
    for g, d in cells:
        applicable = applicable_methods(g, d)
        for method in Method:
            if d > 8 and method is Method.CHARACTER:
                continue
            try:
                with bounded(f"{method.value} at ({g}, {d})"):
                    hurwitz_value(g, d, method)
                covered = True
            except MethodNotApplicableError:
                covered = False
            assert covered == (method in applicable), (g, d, method)


class TestValueBound:
    def test_value_bound_refuses_huge_cells_at_once(self):
        # the bound's edge at d = 3, where bit_length(3) = 2: (2^20 - 2, 3)
        # takes exactly 2^22 bits and is admitted, (2^20 - 1, 3) takes
        # 2^22 + 4 and is not. Then a genus or a degree of 5,000 digits,
        # more than str() converts. Every method refuses each with the one
        # refusal type, at once; a lost bound fails on the edge cell,
        # which the character route computes in about a second
        routes._route(2**20 - 2, 3, Method.CHARACTER)
        huge = 10 ** 4999
        for method in Method:
            for g, d in ((2**20 - 1, 3), (huge, 3), (0, huge)):
                start = time.perf_counter()
                with pytest.raises(MethodNotApplicableError):
                    hurwitz_value(g, d, method)
                assert time.perf_counter() - start < 1, (
                    method, g.bit_length(), d.bit_length())

    @pytest.mark.parametrize("method, digits", [
        (Method.CHARACTER, None),  # H_{g,1} = 0 for g > 0
        (Method.RECURSION, "1" + "0" * 5000),  # the genus
        (Method.CLOSED_FORM, ""),
        (Method.ELSV_G0, ""),
        (Method.ORACLE, "2" + "0" * 5000),  # r = 2g - 2 + 2d
    ], ids=["character", "recursion", "closed-form", "elsv-g0", "oracle"])
    def test_degree_one_at_any_genus(self, method, digits):
        # the value bound admits d = 1 at every genus, so a genus of 5,001
        # digits reaches each route's own rule; a refusal prints the
        # genus, or r, in full
        huge = 10 ** 5000
        with bounded(f"{method.value} at (10^5000, 1)"):
            if digits is None:
                assert hurwitz_value(huge, 1, method) == 0
                return
            with pytest.raises(MethodNotApplicableError) as refused:
                hurwitz_value(huge, 1, method)
        assert digits in str(refused.value)

    @pytest.mark.parametrize("route, error, cells, digits", [
        (intersection.elsv_genus0, intersection.IntersectionBoundError,
         [(41,), (10 ** 5000,)], "1" + "0" * 5000),
        (oracle.oracle_connected, oracle.OracleBoundError,
         [(0, 6), (4, 3), (10 ** 5000, 1)], "2" + "0" * 5000),
    ], ids=["elsv-g0", "oracle"])
    def test_direct_calls_print_their_bound_in_full(self, route, error,
                                                    cells, digits):
        # a route's own error is a ValueError, so callers can catch
        # broadly. The cells just past the bound come first (the
        # oracle's (0, 6) has d = 6, its (4, 3) r = 12): a route that
        # lost its bound fails on them, not in a 5,001-digit loop. The
        # last refusal prints the degree, or r, in full
        assert issubclass(error, ValueError)
        for cell in cells:
            with bounded(route.__name__), \
                    pytest.raises(error) as refused:
                route(*cell)
        assert digits in str(refused.value)

    def test_every_cell_a_range_may_hold_is_inside_the_value_bound(self):
        # a range inside MAX_CELLS holds only cells with
        # (g + 1) * d <= MAX_CELLS, the largest value among them (0, 1000)
        # at 37,962 bits. A cell past the value bound has no method, and
        # a cross-check would read it as a disagreement
        for g in range(routes.MAX_CELLS):
            for d in range(1, routes.MAX_CELLS // (g + 1) + 1):
                routes._route(g, d, Method.CHARACTER)


OUT_OF_DOMAIN = "genus and target_genus must be >= 0, degree >= 1"
# Riemann-Hurwitz: no connected cover has negative branching
NO_COVER = "no connected cover: 2*genus - 2 < degree*(2*target_genus - 2)"


# branch_count's two refusals; riemann_hurwitz_degree passes them on, in
# test_stablemap.py::TestRandomizedStructure
@pytest.mark.parametrize("args, message", [
    ((-1, 2), OUT_OF_DOMAIN),
    ((0, 0), OUT_OF_DOMAIN),
    ((0, 2, -1), OUT_OF_DOMAIN),
    ((0, 2, 1), NO_COVER),
    ((1, 2, 2), NO_COVER),
], ids=["negative-genus", "degree-0", "negative-target-genus",
        "genus-0-over-elliptic", "genus-1-over-genus-2"])
def test_branch_count_refusals(args, message):
    with pytest.raises(ValueError) as refused:
        branch_count(*args)
    assert str(refused.value) == message
