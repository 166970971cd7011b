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
import subprocess
import sys
from pathlib import Path

import hurwitz
from hurwitz.routes import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    hurwitz_value,
)

PACKAGE = Path(hurwitz.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"

# the hurwitz modules each route may import; routes.py alone combines them
ROUTE_IMPORTS = {
    "character": {"partitions"},
    "recursion": set(),
    "intersection": set(),
    "oracle": set(),
}


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


def test_routes_import_no_other_route():
    for module, allowed in ROUTE_IMPORTS.items():
        assert package_imports(module) <= allowed, module


# a route keeps values across calls in growing lists stored by index; a
# cache stays only where the benchmark reads its cache_info()
ALLOWED_CACHES = {
    # perfbench/replay.py sums both into the traced counters
    # character.cache_hits and character.cache_misses
    ("character", "factorization_count"),
    ("character", "connected_hurwitz"),
}


def test_only_the_benchmark_counted_functions_are_cached():
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
    assert cached == ALLOWED_CACHES


# run in a fresh interpreter: with arguments, cli.main(arguments) with
# stdout captured (`--help` ends in SystemExit); without, `import
# hurwitz`. Prints the modules the run added to those the probe itself
# needs.
PROBE = """
import io, json, sys
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
print(json.dumps({"exit": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def loaded_modules(*argv: str, expected_exit: int = 0) -> set[str]:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)
           + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(result.stdout)
    assert report["exit"] == expected_exit
    return set(report["loaded"])


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


ROUTE_MODULES = {f"hurwitz.{route}" for route in ROUTE_IMPORTS}


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
        for name in ("character", "intersection", "oracle", "partitions",
                     "recursion", "routes", "stablemap")
    ]
    assert len(hurwitz.__all__) == 39
    assert not ({"HurwitzTable", "FormalDivisor", "DegenerateCaseError"}
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
