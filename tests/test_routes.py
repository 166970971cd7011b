"""The method dispatch: route independence and the coverage it states.

The cross-check means something only while the routes share no code,
so the import structure is pinned here. `applicable_methods` decides
which routes a cross-check runs and which cells a table may ask of one
route, so it must say exactly where `hurwitz_value` succeeds.
"""

import ast
from pathlib import Path

import hurwitz
from hurwitz.intersection import IntersectionBoundError
from hurwitz.oracle import OracleBoundError
from hurwitz.routes import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    hurwitz_value,
)

PACKAGE = Path(hurwitz.__file__).resolve().parent

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
            except (MethodNotApplicableError, OracleBoundError,
                    IntersectionBoundError):
                covered = False
            assert covered == (method in applicable), (g, d, method)
