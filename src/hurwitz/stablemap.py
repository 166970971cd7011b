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
graph the divisor is effective of degree
2*genus(source) - 2 - degree*(2*genus(target) - 2).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from decimal import Decimal
from typing import NamedTuple

from .partitions import is_partition


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


def _adjacency(graph: StableMapGraph) -> dict[str, set[str]]:
    known = {c.id for c in graph.components}
    edges: dict[str, set[str]] = {cid: set() for cid in known}
    for node in graph.nodes:
        a, b = node.branches
        if a in known and b in known:
            edges[a].add(b)
            edges[b].add(a)
    return edges


def _is_connected(graph: StableMapGraph) -> bool:
    if not graph.components:
        return False
    edges = _adjacency(graph)
    start = graph.components[0].id
    seen = {start}
    stack = [start]
    while stack:
        for other in edges[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(graph.components)


def _branch_counts(graph: StableMapGraph) -> Counter:
    counts: Counter = Counter()
    for node in graph.nodes:
        a, b = node.branches
        counts[a] += 1
        counts[b] += 1
    return counts


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
    violations: list[str] = []

    if graph.target_genus < 0:
        violations.append("target genus must be nonnegative")

    if not graph.components:
        violations.append("graph has no components")
    ids = [c.id for c in graph.components]
    for cid, count in sorted(Counter(ids).items()):
        if count > 1:
            violations.append(f"duplicate component id '{cid}'")
    known = set(ids)
    by_id = {c.id: c for c in graph.components}

    for idx, node in enumerate(graph.nodes):
        for cid in node.branches:
            if cid not in known:
                violations.append(
                    f"node {idx} references unknown component '{cid}'"
                )

    if graph.components and not _is_connected(graph):
        violations.append("dual graph is disconnected")

    if graph.components and total_degree(graph) < 1:
        violations.append(
            "total degree is 0: at least one dominant component is required"
        )

    branch_counts = _branch_counts(graph)
    two_h = 2 * graph.target_genus

    for comp in graph.components:
        tag = f"component '{comp.id}'"
        if comp.genus < 0:
            violations.append(f"{tag}: genus must be nonnegative")
        if isinstance(comp, DominantComponent):
            if comp.degree < 1:
                violations.append(f"{tag}: degree must be at least 1")
                continue
            profiles_ok = True
            seen_points = set()
            for point, profile in comp.ramification:
                if point in seen_points:
                    violations.append(
                        f"{tag}: point '{point}' listed more than once"
                    )
                    profiles_ok = False
                seen_points.add(point)
                if not is_partition(profile) or sum(profile) != comp.degree:
                    violations.append(
                        f"{tag}: profile {list(profile)} over point "
                        f"'{point}' is not a partition of {comp.degree}"
                    )
                    profiles_ok = False
            if profiles_ok and comp.genus >= 0:
                extra = sum(
                    e - 1 for _point, profile in comp.ramification
                    for e in profile
                )
                lhs = 2 * comp.genus - 2
                rhs = comp.degree * (two_h - 2) + extra
                if lhs != rhs:
                    # 2g-2 may have a digit more than str(int) prints
                    # (sys.get_int_max_str_digits()); a Decimal prints
                    # in full
                    violations.append(
                        f"{tag}: Riemann-Hurwitz fails (2g-2 = "
                        f"{Decimal(lhs)}, degree and profiles give "
                        f"{Decimal(rhs)})"
                    )
        else:
            branches = branch_counts[comp.id]
            if comp.genus == 0 and branches < 3:
                violations.append(
                    f"{tag}: contracted genus-0 component has {branches} "
                    f"node branch{'es' if branches != 1 else ''}, needs "
                    "at least 3"
                )
            elif comp.genus == 1 and branches < 1:
                violations.append(
                    f"{tag}: contracted genus-1 component has no node "
                    "branches, needs at least 1"
                )

    for idx, node in enumerate(graph.nodes):
        for cid in node.branches:
            comp = by_id.get(cid)
            if isinstance(comp, ContractedComponent) and \
                    comp.image != node.image:
                violations.append(
                    f"node {idx} lies over '{node.image}' but its branch "
                    f"on '{cid}' is contracted to '{comp.image}'"
                )

    return violations


def arithmetic_genus(graph: StableMapGraph) -> int:
    """Genus of the glued source curve: the sum of the component genera,
    plus one for each node, minus one for each component, plus one.

    Requires a connected dual graph; disconnected input is an error.
    """
    if not _is_connected(graph):
        raise ValueError("dual graph is disconnected")
    return (
        sum(c.genus for c in graph.components)
        + len(graph.nodes)
        - len(graph.components)
        + 1
    )


def riemann_hurwitz_degree(graph: StableMapGraph) -> int:
    """Degree the branch divisor must have:
    2*genus(source) - 2 - degree*(2*genus(target) - 2).
    """
    return (
        2 * arithmetic_genus(graph) - 2
        - total_degree(graph) * (2 * graph.target_genus - 2)
    )


def branch_divisor(graph: StableMapGraph) -> dict[str, int]:
    """Branch divisor of a valid stable map, as {point: coefficient}
    with zero coefficients omitted.

    Sum of three contributions: the classical ramification
    sum(e - 1) over each dominant component's profiles, the weight
    2*genus - 2 at the image of each contracted component, and 2 at the
    image of each node. Invalid graphs raise InvalidGraphError carrying
    the full violation list; they are never evaluated.
    """
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    coeffs: defaultdict[str, int] = defaultdict(int)
    for comp in graph.components:
        if isinstance(comp, DominantComponent):
            for point, profile in comp.ramification:
                coeffs[point] += sum(e - 1 for e in profile)
        else:
            coeffs[comp.image] += 2 * comp.genus - 2
    for node in graph.nodes:
        coeffs[node.image] += 2
    return {point: c for point, c in coeffs.items() if c}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphFormatError(message)


def _str_field(data: dict, key: str, where: str) -> str:
    _require(key in data, f"{where}: missing field '{key}'")
    value = data[key]
    _require(isinstance(value, str) and value != "",
             f"{where}: field '{key}' must be a nonempty string")
    return value


def _int_field(data: dict, key: str, where: str) -> int:
    _require(key in data, f"{where}: missing field '{key}'")
    value = data[key]
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}: field '{key}' must be an integer")
    return value


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    for key in data:
        _require(key in allowed, f"{where}: unknown field '{key}'")


def _component_from_dict(data, index: int) -> Component:
    where = f"components[{index}]"
    _require(isinstance(data, dict), f"{where}: expected an object")
    kind = _str_field(data, "kind", where)
    cid = _str_field(data, "id", where)
    genus = _int_field(data, "genus", where)
    if kind == "dominant":
        _check_keys(data, {"kind", "id", "genus", "degree", "ramification"},
                    where)
        degree = _int_field(data, "degree", where)
        ramification = []
        raw = data.get("ramification", [])
        _require(isinstance(raw, list),
                 f"{where}: field 'ramification' must be a list")
        for j, entry in enumerate(raw):
            sub = f"{where}.ramification[{j}]"
            _require(isinstance(entry, dict), f"{sub}: expected an object")
            _check_keys(entry, {"point", "profile"}, sub)
            point = _str_field(entry, "point", sub)
            profile = entry.get("profile")
            _require(
                isinstance(profile, list) and profile != [] and all(
                    isinstance(e, int) and not isinstance(e, bool)
                    for e in profile
                ),
                f"{sub}: field 'profile' must be a nonempty list of integers",
            )
            ramification.append((point, tuple(profile)))
        return DominantComponent(
            id=cid, genus=genus, degree=degree,
            ramification=tuple(ramification),
        )
    if kind == "contracted":
        _check_keys(data, {"kind", "id", "genus", "image"}, where)
        return ContractedComponent(
            id=cid, genus=genus, image=_str_field(data, "image", where)
        )
    raise GraphFormatError(
        f"{where}: kind must be 'dominant' or 'contracted', not {kind!r}"
    )


def _node_from_dict(data, index: int) -> Node:
    where = f"nodes[{index}]"
    _require(isinstance(data, dict), f"{where}: expected an object")
    _check_keys(data, {"branches", "image"}, where)
    _require("branches" in data, f"{where}: missing field 'branches'")
    branches = data["branches"]
    _require(
        isinstance(branches, list) and len(branches) == 2 and all(
            isinstance(b, str) and b != "" for b in branches
        ),
        f"{where}: field 'branches' must be a pair of component ids",
    )
    return Node(
        branches=(branches[0], branches[1]),
        image=_str_field(data, "image", where),
    )


def graph_from_dict(data) -> StableMapGraph:
    """Build a StableMapGraph from the documented JSON shape.

    Shape errors (missing or mistyped fields, unknown keys) raise
    GraphFormatError; rule violations are left to `validate`.
    """
    _require(isinstance(data, dict), "top level: expected an object")
    _check_keys(data, {"target_genus", "components", "nodes"}, "top level")
    target_genus = _int_field(data, "target_genus", "top level")
    _require("components" in data, "top level: missing field 'components'")
    raw_components = data["components"]
    _require(isinstance(raw_components, list),
             "top level: field 'components' must be a list")
    raw_nodes = data.get("nodes", [])
    _require(isinstance(raw_nodes, list),
             "top level: field 'nodes' must be a list")
    return StableMapGraph(
        target_genus=target_genus,
        components=tuple(
            _component_from_dict(c, i) for i, c in enumerate(raw_components)
        ),
        nodes=tuple(_node_from_dict(n, i) for i, n in enumerate(raw_nodes)),
    )


def graph_to_dict(graph: StableMapGraph) -> dict:
    """Inverse of graph_from_dict, for round trips and fixtures."""
    components = []
    for comp in graph.components:
        if isinstance(comp, DominantComponent):
            entry = {
                "kind": "dominant",
                "id": comp.id,
                "genus": comp.genus,
                "degree": comp.degree,
            }
            if comp.ramification:
                entry["ramification"] = [
                    {"point": point, "profile": list(profile)}
                    for point, profile in comp.ramification
                ]
        else:
            entry = {
                "kind": "contracted",
                "id": comp.id,
                "genus": comp.genus,
                "image": comp.image,
            }
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
