"""The method dispatch: route independence and the coverage it states.

The cross-check means something only while the routes share no code,
so the import structure is pinned here, together with what each command
loads at start-up. `applicable_methods` decides
which routes a cross-check runs and which cells a table may ask of one
route, so it must say exactly where `hurwitz_value` succeeds.
"""

import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tokenize
from pathlib import Path

import hurwitz
from hurwitz import routes
from hurwitz.routes import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    hurwitz_value,
)

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


def probe(*argv: str, expected_exit: int = 0, flags: tuple = ()) -> dict:
    # the probe's report, run with the interpreter's `flags`
    result = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *argv],
        capture_output=True, text=True, check=True, env=child_env(),
    )
    report = json.loads(result.stdout)
    assert report["exit"] == expected_exit
    return report


def loaded_modules(*argv: str, expected_exit: int = 0) -> set[str]:
    return set(probe(*argv, expected_exit=expected_exit)["loaded"])


def test_import_loads_no_submodule():
    loaded = loaded_modules()
    assert "hurwitz" in loaded
    assert not {m for m in loaded if m.startswith("hurwitz.")}


def test_compute_loads_neither_stablemap_nor_dataclasses():
    loaded = loaded_modules("compute", "-g", "1", "-d", "3")
    assert "hurwitz.routes" in loaded
    assert "hurwitz.stablemap" not in loaded
    assert "dataclasses" not in loaded


def test_branch_divisor_loads_no_dataclasses():
    loaded = loaded_modules(
        "branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json"),
    )
    assert "hurwitz.stablemap" in loaded
    assert "dataclasses" not in loaded


def test_branch_divisor_loads_no_route():
    loaded = loaded_modules(
        "branch-divisor", "--input", str(FIXTURES / "elliptic_tail.json"),
    )
    assert not loaded & ROUTE_MODULES


def test_help_loads_no_route():
    assert not loaded_modules("--help") & ROUTE_MODULES


def test_help_and_branch_divisor_load_neither_fractions_nor_decimal():
    # only a printed Hurwitz number or a Riemann-Hurwitz message needs them
    assert not loaded_modules("--help") & {"fractions", "decimal"}
    for fixture, code in (("elliptic_tail.json", 0),
                          ("unstable_tail.json", 2)):
        loaded = loaded_modules("branch-divisor", "--input",
                                str(FIXTURES / fixture), expected_exit=code)
        assert not loaded & {"fractions", "decimal"}, fixture


def test_help_and_text_tables_load_no_json():
    # only a JSON payload needs json; the probe sees it where it loads
    table = ("table", "--gmax", "1", "--dmax", "3")
    assert "json" not in loaded_modules("--help")
    assert "json" not in loaded_modules(*table)
    assert "json" not in loaded_modules(*table, "--format", "csv")
    assert "json" in loaded_modules(*table, "--format", "json")


def test_no_command_loads_future():
    # no module of the package postpones its annotations
    elliptic = str(FIXTURES / "elliptic_tail.json")
    for argv in (("--help",), ("compute", "-g", "1", "-d", "3"),
                 ("table", "--gmax", "1", "--dmax", "3"),
                 ("crosscheck", "--gmax", "1", "--dmax", "3"),
                 ("branch-divisor", "--input", elliptic)):
        assert "__future__" not in loaded_modules(*argv), argv


def test_branch_divisor_loads_no_typing():
    # with -S: a site that preloads typing, as a .pth file can, would
    # leave nothing for the probe to see
    report = probe("branch-divisor", "--input",
                   str(FIXTURES / "elliptic_tail.json"), flags=("-S",))
    assert "hurwitz.stablemap" in report["loaded"]
    assert "typing" not in report["before"]
    assert "typing" not in report["loaded"]


def test_compute_loads_only_the_route_it_runs():
    loaded = loaded_modules("compute", "-g", "1", "-d", "3",
                            "--method", "recursion")
    assert loaded & ROUTE_MODULES == {"hurwitz.recursion"}
    loaded = loaded_modules("compute", "-g", "1", "-d", "3")
    assert loaded & ROUTE_MODULES == {"hurwitz.character"}


def test_table_loads_only_the_route_it_runs():
    for method in ("character", "recursion"):
        loaded = loaded_modules("table", "--gmax", "1", "--dmax", "3",
                                "--method", method)
        assert loaded & ROUTE_MODULES == {f"hurwitz.{method}"}, method


def test_refusal_loads_at_most_the_refusing_route():
    loaded = loaded_modules("compute", "-g", "3", "-d", "2",
                            "--method", "recursion", expected_exit=2)
    assert loaded & ROUTE_MODULES == {"hurwitz.recursion"}
    loaded = loaded_modules("compute", "-g", "1", "-d", "2",
                            "--method", "closed-form", expected_exit=2)
    assert not loaded & ROUTE_MODULES


def test_exports_are_their_modules_objects():
    modules = [
        importlib.import_module(f"hurwitz.{name}")
        for name in ("character", "intersection", "oracle", "recursion",
                     "routes", "stablemap")
    ]
    assert len(hurwitz.__all__) == 35
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


def test_no_export_is_only_for_tests():
    # each public name is used by the package's own modules or by the
    # benchmark (ORACLE_BACKEND only inside run.py's probe string)
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path, strings=False)
    for path in (REPO / "perfbench").glob("*.py"):
        used |= used_names(path, strings=True)
    assert set(hurwitz.__all__) <= used, set(hurwitz.__all__) - used


def names_only_tests_use(package: Path) -> list[str]:
    """The public top-level defs, classes and assignments of the modules
    in `package` (as "module.name") that are not exported, not read by
    the package outside their own definition and not named by the
    benchmark; oracle.BACKEND is exported as ORACLE_BACKEND. A def's
    calls to itself are part of its definition."""
    exported = set(hurwitz._EXPORTS.values())
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
                  if not name.startswith("_")
                  and (module, name) not in exported and name not in used)


def test_no_public_name_is_only_for_tests():
    unused = names_only_tests_use(PACKAGE)
    assert not unused, unused


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
                hurwitz_value(g, d, method)
                covered = True
            except MethodNotApplicableError:
                covered = False
            assert covered == (method in applicable), (g, d, method)
