"""Exact Hurwitz numbers by independent methods, and branch divisors of
combinatorially described stable maps.

Everything is computed in exact rational arithmetic; no floating point
appears anywhere in the package.

The public names below are loaded on first use: `import hurwitz` alone
imports no submodule, and `hurwitz.X` or `from hurwitz import X` imports
only the module that defines X.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines under the same name
_MODULE_EXPORTS = {
    "character": ("connected_hurwitz", "disconnected_hurwitz",
                  "factorization_count"),
    "intersection": ("DEGENERATE_DEGREES", "DegenerateCaseError",
                     "IntersectionBoundError", "elsv_genus0",
                     "psi_integral_genus0"),
    "oracle": ("OracleBoundError", "oracle_connected"),
    "partitions": ("conjugate_partition", "content_sum",
                   "enumerate_partitions", "irrep_dimension",
                   "partition_count"),
    "recursion": ("h0_closed", "h0_recursion", "h1_recursion",
                  "h2_recursion"),
    "routes": ("Method", "MethodNotApplicableError", "applicable_methods",
               "branch_count", "build_table", "hurwitz_value"),
    "stablemap": ("ContractedComponent", "DominantComponent",
                  "GraphFormatError", "InvalidGraphError", "Node",
                  "StableMapGraph", "arithmetic_genus", "branch_divisor",
                  "graph_from_dict", "graph_to_dict", "load_graph",
                  "riemann_hurwitz_degree", "total_degree", "validate"),
}

# public name -> (module, attribute)
_EXPORTS = {
    name: (module, name)
    for module, names in _MODULE_EXPORTS.items() for name in names
}
_EXPORTS["ORACLE_BACKEND"] = ("oracle", "BACKEND")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{module}", __name__), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
