"""Exact Hurwitz numbers by independent methods, and branch divisors of
combinatorially described stable maps.

Everything is computed in exact rational arithmetic; no floating point
appears anywhere in the package.
"""

from .character import (
    branch_count,
    connected_hurwitz,
    disconnected_hurwitz,
    factorization_count,
)
from .intersection import (
    DEGENERATE_DEGREES,
    DegenerateCaseError,
    IntersectionBoundError,
    elsv_genus0,
    psi_integral_genus0,
)
from .oracle import BACKEND as ORACLE_BACKEND
from .oracle import OracleBoundError, oracle_connected
from .partitions import (
    conjugate_partition,
    content_sum,
    enumerate_partitions,
    irrep_dimension,
    partition_count,
)
from .recursion import h0_closed, h0_recursion, h1_recursion, h2_recursion
from .routes import (
    HurwitzTable,
    Method,
    MethodNotApplicableError,
    applicable_methods,
    build_table,
    hurwitz_value,
)
from .stablemap import (
    ContractedComponent,
    DominantComponent,
    FormalDivisor,
    GraphFormatError,
    InvalidGraphError,
    Node,
    StableMapGraph,
    arithmetic_genus,
    branch_divisor,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    riemann_hurwitz_degree,
    total_degree,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ContractedComponent",
    "DEGENERATE_DEGREES",
    "DegenerateCaseError",
    "DominantComponent",
    "FormalDivisor",
    "GraphFormatError",
    "HurwitzTable",
    "IntersectionBoundError",
    "InvalidGraphError",
    "Method",
    "MethodNotApplicableError",
    "Node",
    "ORACLE_BACKEND",
    "OracleBoundError",
    "StableMapGraph",
    "applicable_methods",
    "arithmetic_genus",
    "branch_count",
    "branch_divisor",
    "build_table",
    "conjugate_partition",
    "connected_hurwitz",
    "content_sum",
    "disconnected_hurwitz",
    "elsv_genus0",
    "enumerate_partitions",
    "factorization_count",
    "graph_from_dict",
    "graph_to_dict",
    "h0_closed",
    "h0_recursion",
    "h1_recursion",
    "h2_recursion",
    "hurwitz_value",
    "irrep_dimension",
    "load_graph",
    "oracle_connected",
    "partition_count",
    "psi_integral_genus0",
    "riemann_hurwitz_degree",
    "total_degree",
    "validate",
]
