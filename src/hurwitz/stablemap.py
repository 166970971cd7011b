"""Combinatorial stable maps to a nonsingular target curve and their
branch divisors.

A map is described by its normalization data. Components of the source
either dominate the target (carrying a degree and ramification profiles
over named points) or are contracted to a point; nodes glue pairs of
component branches over a named image point. Everything is formal in
the point labels: two labels name the same target point exactly when
the strings are equal, and any point not listed in a profile is
unramified on that component.

The branch divisor assigns, to each target point, the ramification it
sees from the dominant components, 2*genus - 2 for each contracted
component sitting over it, and 2 for each node over it. For a valid
graph the divisor is effective, and its degree is the Riemann-Hurwitz
count `routes.branch_count` gives for the source genus, the map degree
and the target genus.

Cost: validation and evaluation share one walk over the components,
profile entries and nodes, which adds each term of the divisor in the
loop that checks the rules it comes from; with parsing and the one
union-find pass for connectedness, the work is linear in their number.
On the benchmark's generated graphs (Python 3.11.7, one core of a shared
2-CPU Xeon, in-process, median of 15 runs over five seeds)
`hurwitz branch-divisor` takes about 36 ms at 2,500 components and
175 ms at 10,000, of which `branch_divisor` is 10 ms and 59 ms. As a
library call with the cyclic garbage collector on, `load_graph` alone
takes 20-27 ms and 150-160 ms, against 17-24 ms and 86-105 ms with it
off: the collector's passes over the growing heap free nothing here, so
the CLI runs every command with it off.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from decimal import Decimal
from operator import ge
from typing import NamedTuple


class GraphFormatError(ValueError):
    """A graph document does not match the documented input shape."""


class InvalidGraphError(ValueError):
    """A structurally well-formed graph violates the validity rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DominantComponent(NamedTuple):
    """Normalization component mapping onto the target curve.

    `ramification` pairs a target point label with the partition of the
    degree giving the sheet multiplicities over that point; listing a
    point at most once is part of validity, not of construction.
    """

    id: str
    genus: int
    degree: int
    ramification: tuple[tuple[str, tuple[int, ...]], ...] = ()


class ContractedComponent(NamedTuple):
    """Normalization component mapped entirely to one target point."""

    id: str
    genus: int
    image: str


Component = DominantComponent | ContractedComponent


class Node(NamedTuple):
    """Two component branches glued over a target point.

    The pair is unordered; both entries naming the same component is a
    self-node and contributes two branches to that component.
    """

    branches: tuple[str, str]
    image: str


class StableMapGraph(NamedTuple):
    """Dual-graph description of a map from a nodal curve to a
    nonsingular curve of genus `target_genus`."""

    target_genus: int
    components: tuple[Component, ...]
    nodes: tuple[Node, ...]


def total_degree(graph: StableMapGraph) -> int:
    """Degree of the map: sum of the dominant components' degrees."""
    return sum(
        c.degree for c in graph.components
        if isinstance(c, DominantComponent)
    )


def _is_connected(graph: StableMapGraph) -> bool:
    # union-find over the component ids, merging along each node whose
    # branches both name components; the graph is connected when one
    # class is left. A duplicate id counts as a component that no node
    # can reach, so duplicates always read as disconnected.
    parent = {c.id: c.id for c in graph.components}
    classes = len(graph.components)
    for node in graph.nodes:
        a, b = node.branches
        if a not in parent or b not in parent:
            continue
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            classes -= 1
    return classes == 1


def _full(value, text=str) -> str:
    # str(int) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full. Other values print as text does.
    return str(Decimal(value)) if type(value) is int else text(value)


def _walk(graph: StableMapGraph) -> tuple[list[str], dict[str, int]]:
    # the rule violations, and the branch divisor's nonzero coefficients.
    # Each term of the divisor is added in the loop that checks the rules
    # it comes from; the coefficients mean something only when the
    # violation list is empty
    violations: list[str] = []
    coeffs: defaultdict[str, int] = defaultdict(int)
    components, nodes = graph.components, graph.nodes

    if graph.target_genus < 0:
        violations.append("target genus must be nonnegative")

    if not components:
        violations.append("graph has no components")
    by_id = {c.id: c for c in components}
    if len(by_id) != len(components):
        for cid, count in sorted(Counter(c.id for c in components).items()):
            if count > 1:
                violations.append(f"duplicate component id '{cid}'")

    ends = [cid for node in nodes for cid in node.branches]
    if not by_id.keys() >= set(ends):
        for idx, node in enumerate(nodes):
            for cid in node.branches:
                if cid not in by_id:
                    violations.append(
                        f"node {idx} references unknown component '{cid}'"
                    )

    if components and not _is_connected(graph):
        violations.append("dual graph is disconnected")

    if components and total_degree(graph) < 1:
        violations.append(
            "total degree is 0: at least one dominant component is required"
        )

    branch_counts = Counter(ends)
    two_h = 2 * graph.target_genus

    for comp in components:
        if comp.genus < 0:
            violations.append(
                f"component '{comp.id}': genus must be nonnegative"
            )
        if isinstance(comp, DominantComponent):
            degree = comp.degree
            if degree < 1:
                violations.append(
                    f"component '{comp.id}': degree must be at least 1"
                )
                continue
            profiles_ok = True
            extra = 0
            seen_points = set()
            for point, profile in comp.ramification:
                if point in seen_points:
                    violations.append(
                        f"component '{comp.id}': point '{point}' listed "
                        "more than once"
                    )
                    profiles_ok = False
                seen_points.add(point)
                # a partition of the degree: a weakly decreasing tuple of
                # positive entries summing to it
                total = sum(profile)
                if total != degree or profile and (
                        profile[-1] < 1 or
                        not all(map(ge, profile, profile[1:]))):
                    profile_text = ", ".join(
                        _full(e, repr) for e in profile)
                    violations.append(
                        f"component '{comp.id}': profile [{profile_text}] "
                        f"over point '{point}' is not a partition of "
                        f"{_full(degree)}"
                    )
                    profiles_ok = False
                extra += total - len(profile)
                coeffs[point] += total - len(profile)
            if profiles_ok and comp.genus >= 0:
                lhs = 2 * comp.genus - 2
                rhs = degree * (two_h - 2) + extra
                if lhs != rhs:
                    violations.append(
                        f"component '{comp.id}': Riemann-Hurwitz fails "
                        f"(2g-2 = {Decimal(lhs)}, degree and profiles give "
                        f"{Decimal(rhs)})"
                    )
        else:
            coeffs[comp.image] += 2 * comp.genus - 2
            branches = branch_counts[comp.id]
            if comp.genus == 0 and branches < 3:
                violations.append(
                    f"component '{comp.id}': contracted genus-0 component "
                    f"has {branches} node branch"
                    f"{'es' if branches != 1 else ''}, needs at least 3"
                )
            elif comp.genus == 1 and branches < 1:
                violations.append(
                    f"component '{comp.id}': contracted genus-1 component "
                    "has no node branches, needs at least 1"
                )

    for idx, node in enumerate(nodes):
        coeffs[node.image] += 2
        for cid in node.branches:
            comp = by_id.get(cid)
            if isinstance(comp, ContractedComponent) and \
                    comp.image != node.image:
                violations.append(
                    f"node {idx} lies over '{node.image}' but its branch "
                    f"on '{cid}' is contracted to '{comp.image}'"
                )

    return violations, {point: c for point, c in coeffs.items() if c}


def validate(graph: StableMapGraph) -> list[str]:
    """Every rule violation in the graph; an empty list means valid.

    Checks, in order: target genus sign, presence and uniqueness of
    components, node references, connectedness of the dual graph,
    positivity of the total degree, per-component genus/degree signs,
    well-formed ramification profiles, Riemann-Hurwitz on each dominant
    component, stability of contracted components (genus 0 needs at
    least three node branches, genus 1 at least one), and agreement of
    node images with contracted-branch images.
    """
    return _walk(graph)[0]


def _genus(graph: StableMapGraph) -> int:
    return (
        sum(c.genus for c in graph.components)
        + len(graph.nodes)
        - len(graph.components)
        + 1
    )


def arithmetic_genus(graph: StableMapGraph) -> int:
    """Genus of the glued source curve: the sum of the component genera,
    plus one for each node, minus one for each component, plus one.

    Requires a connected dual graph; disconnected input is an error.
    """
    if not _is_connected(graph):
        raise ValueError("dual graph is disconnected")
    return _genus(graph)


def riemann_hurwitz_degree(graph: StableMapGraph) -> int:
    """Degree the branch divisor must have: `routes.branch_count` of the
    source genus, the map degree and the target genus.

    Raises ValueError, as `arithmetic_genus` and `branch_count` do, on a
    disconnected graph, on one with no dominant component or a negative
    genus, and where that degree is negative. Every valid graph is in
    the domain.
    """
    from . import routes  # the degree law is stated there alone

    return routes.branch_count(arithmetic_genus(graph), total_degree(graph),
                               graph.target_genus)


def branch_divisor(graph: StableMapGraph) -> dict[str, int]:
    """Branch divisor of a valid stable map, as {point: coefficient}
    with zero coefficients omitted.

    Sum of three contributions: the classical ramification
    sum(e - 1) over each dominant component's profiles, the weight
    2*genus - 2 at the image of each contracted component, and 2 at the
    image of each node. Invalid graphs raise InvalidGraphError carrying
    the full violation list; their divisor is never returned.
    """
    violations, divisor = _walk(graph)
    if violations:
        raise InvalidGraphError(violations)
    return divisor


# keys each JSON object may carry
_TOP_KEYS = frozenset({"target_genus", "components", "nodes"})
_DOMINANT_KEYS = frozenset({"kind", "id", "genus", "degree", "ramification"})
_CONTRACTED_KEYS = frozenset({"kind", "id", "genus", "image"})
_PROFILE_KEYS = frozenset({"point", "profile"})
_NODE_KEYS = frozenset({"branches", "image"})


class _Fault(Exception):
    """A shape error, raised as text that starts with its location
    relative to the object being parsed: ": problem" for the object
    itself, ".ramification[1]: problem" for a part of it. Each list
    prepends the index of the entry that failed, so no location is
    formatted unless a check fails."""


_KIND_TEXT = {str: "a nonempty string", int: "an integer", list: "a list"}


def _field(data: dict, key: str, kind: type):
    try:
        value = data[key]
    except KeyError:
        raise _Fault(f": missing field '{key}'") from None
    # a string must be nonempty; a bool is an int, but not an integer here
    if isinstance(value, kind) and (value if kind is str else
                                    value is not True and value is not False):
        return value
    raise _Fault(f": field '{key}' must be {_KIND_TEXT[kind]}")


def _check_object(data, allowed: frozenset[str]) -> None:
    if not isinstance(data, dict):
        raise _Fault(": expected an object")
    if not allowed.issuperset(data):
        # name the first unknown key in document order
        key = next(key for key in data if key not in allowed)
        raise _Fault(f": unknown field '{key}'")


def _parse_list(raw: list, parse, name: str) -> tuple:
    parsed = []
    try:
        for entry in raw:
            parsed.append(parse(entry))
    except _Fault as fault:
        # the failing entry's index is the number parsed before it
        raise _Fault(f"{name}[{len(parsed)}]{fault}") from None
    return tuple(parsed)


def _profile_from_dict(data) -> tuple[str, tuple[int, ...]]:
    _check_object(data, _PROFILE_KEYS)
    point = _field(data, "point", str)
    try:
        profile = data["profile"]
    except KeyError:
        raise _Fault(": missing field 'profile'") from None
    if isinstance(profile, list) and profile and all(
            isinstance(e, int) and not isinstance(e, bool) for e in profile):
        return point, tuple(profile)
    raise _Fault(": field 'profile' must be a nonempty list of integers")


def _component_from_dict(data) -> Component:
    if not isinstance(data, dict):
        raise _Fault(": expected an object")
    kind = _field(data, "kind", str)
    cid = _field(data, "id", str)
    genus = _field(data, "genus", int)
    if kind == "dominant":
        _check_object(data, _DOMINANT_KEYS)
        degree = _field(data, "degree", int)
        raw = (_field(data, "ramification", list)
               if "ramification" in data else ())
        return DominantComponent(cid, genus, degree, _parse_list(
            raw, _profile_from_dict, ".ramification"))
    if kind == "contracted":
        _check_object(data, _CONTRACTED_KEYS)
        return ContractedComponent(cid, genus, _field(data, "image", str))
    raise _Fault(f": kind must be 'dominant' or 'contracted', not {kind!r}")


def _node_from_dict(data) -> Node:
    _check_object(data, _NODE_KEYS)
    if "branches" not in data:
        raise _Fault(": missing field 'branches'")
    branches = data["branches"]
    if isinstance(branches, list) and len(branches) == 2:
        a, b = branches
        if isinstance(a, str) and a and isinstance(b, str) and b:
            return Node((a, b), _field(data, "image", str))
    raise _Fault(": field 'branches' must be a pair of component ids")


def graph_from_dict(data) -> StableMapGraph:
    """Build a StableMapGraph from the documented JSON shape.

    Shape errors (missing or mistyped fields, unknown keys) raise
    GraphFormatError naming the first fault in document order; rule
    violations are left to `validate`.
    """
    try:
        _check_object(data, _TOP_KEYS)
        target_genus = _field(data, "target_genus", int)
        raw_components = _field(data, "components", list)
        raw_nodes = _field(data, "nodes", list) if "nodes" in data else ()
    except _Fault as fault:
        raise GraphFormatError(f"top level{fault}") from None
    try:
        return StableMapGraph(
            target_genus,
            _parse_list(raw_components, _component_from_dict, "components"),
            _parse_list(raw_nodes, _node_from_dict, "nodes"),
        )
    except _Fault as fault:
        raise GraphFormatError(str(fault)) from None


def graph_to_dict(graph: StableMapGraph) -> dict:
    """Inverse of graph_from_dict, for round trips and fixtures."""
    components = []
    for comp in graph.components:
        if isinstance(comp, DominantComponent):
            entry = {"kind": "dominant", **comp._asdict()}
            if comp.ramification:
                entry["ramification"] = [
                    {"point": point, "profile": list(profile)}
                    for point, profile in comp.ramification
                ]
            else:
                del entry["ramification"]
        else:
            entry = {"kind": "contracted", **comp._asdict()}
        components.append(entry)
    return {
        "target_genus": graph.target_genus,
        "components": components,
        "nodes": [
            {"branches": list(node.branches), "image": node.image}
            for node in graph.nodes
        ],
    }


def load_graph(path) -> StableMapGraph:
    """Read a graph document from a JSON file.

    A missing file raises FileNotFoundError; any other unreadable input
    (a directory, a permission error, bytes that are not UTF-8, nesting
    too deep for the parser, an integer literal over the interpreter's
    digit limit) raises GraphFormatError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError(f"JSON nested too deeply: {exc}") from exc
    except ValueError as exc:
        # int() refuses literals over sys.get_int_max_str_digits() digits
        raise GraphFormatError(f"unreadable JSON number: {exc}") from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc}") from exc
    return graph_from_dict(data)
