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
`load_graph` decodes its input into the graph directly: each component
and node becomes its named tuple as soon as the parser has read it, so
the document's dict tree never exists whole, and one table per load
makes equal labels one string and equal profiles one tuple (equal
strings still name the same point; nothing is kept between loads). The
input is read once, so it may be a pipe or a FIFO; a faulty document
is decoded a second time, into dicts, and `graph_from_dict` reports
the fault. docs/branch_divisor_format.md gives the measured time and
peak memory; the CLI runs every command with the cyclic garbage
collector off, whose passes over the growing heap free nothing.
"""

import json
from collections import Counter, defaultdict, namedtuple
from operator import countOf, ge


class GraphFormatError(ValueError):
    """A graph document does not match the documented input shape."""


class InvalidGraphError(ValueError):
    """A structurally well-formed graph violates the validity rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DominantComponent(namedtuple(
        "DominantComponent", "id genus degree ramification", defaults=((),))):
    """Normalization component mapping onto the target curve: an `id`
    (str), a `genus` and a `degree` (int), and a `ramification` tuple,
    empty by default.

    `ramification` pairs a target point label with the partition of the
    degree giving the sheet multiplicities over that point, as a tuple
    of (str, tuple of int) pairs; listing a point at most once is part
    of validity, not of construction.
    """

    __slots__ = ()


class ContractedComponent(namedtuple("ContractedComponent",
                                     "id genus image")):
    """Normalization component mapped entirely to one target point: an
    `id` (str), a `genus` (int) and the `image` point's label (str)."""

    __slots__ = ()


Component = DominantComponent | ContractedComponent


class Node(namedtuple("Node", "branches image")):
    """Two component branches glued over a target point: `branches`, a
    pair of component ids (str), and the `image` point's label (str).

    The pair is unordered; both entries naming the same component is a
    self-node and contributes two branches to that component.
    """

    __slots__ = ()


class StableMapGraph(namedtuple("StableMapGraph",
                                "target_genus components nodes")):
    """Dual-graph description of a map from a nodal curve to a
    nonsingular curve of genus `target_genus` (int): `components`, a
    tuple of DominantComponent and ContractedComponent, and `nodes`, a
    tuple of Node."""

    __slots__ = ()


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
    from decimal import Decimal  # loaded only when a message needs it
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

    branch_counts = Counter([cid for node in nodes for cid in node.branches])
    if not by_id.keys() >= branch_counts.keys():
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
                        f"(2g-2 = {_full(lhs)}, degree and profiles give "
                        f"{_full(rhs)})"
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


class _Fault(Exception):
    """A shape error, raised as text that starts with its location
    relative to the object being parsed: ": problem" for the object
    itself, ".ramification[1]: problem" for a part of it. Each list
    prepends the index of the entry that failed, so no location is
    formatted unless a check fails."""


def _integer(value) -> bool:
    # a bool is an int, but not an integer here
    return isinstance(value, int) and value is not True and value is not False


def _text(value) -> bool:
    return isinstance(value, str) and value != ""


# The document schema. Each kind of field value is a test and the words
# a fault names it by; an optional kind adds what an absent field stands
# for. Each object lists its fields in the order they are checked, which
# is the order graph_to_dict writes them in.
_TEXT = _text, "a nonempty string"
_INT = _integer, "an integer"
_LIST = (lambda value: isinstance(value, list)), "a list"
_OPTIONAL_LIST = *_LIST, ()
_INTEGERS = (lambda value: isinstance(value, list) and value != [] and all(
    map(_integer, value))), "a nonempty list of integers"
_PAIR = (lambda value: isinstance(value, list) and len(value) == 2 and all(
    map(_text, value))), "a pair of component ids"

_TOP = {"target_genus": _INT, "components": _LIST, "nodes": _OPTIONAL_LIST}
# a component's kind picks its fields, so kind, id and genus are checked
# before its unknown keys; every other object checks unknown keys first
_HEAD = {"kind": _TEXT, "id": _TEXT, "genus": _INT}
_DOMINANT = {**_HEAD, "degree": _INT, "ramification": _OPTIONAL_LIST}
_CONTRACTED = {**_HEAD, "image": _TEXT}
_PROFILE = {"point": _TEXT, "profile": _INTEGERS}
_NODE = {"branches": _PAIR, "image": _TEXT}


def _check(data, fields: dict, closed: bool = True) -> list:
    # the values of an object's fields, in the order `fields` lists them,
    # or its first fault: not an object, then (in a closed check) the
    # first unknown key in document order, then each field in turn
    if not isinstance(data, dict):
        raise _Fault(": expected an object")
    if closed and not fields.keys() >= data.keys():
        key = next(key for key in data if key not in fields)
        raise _Fault(f": unknown field '{key}'")
    values = []
    for key, (test, text, *absent) in fields.items():
        if key not in data:
            if not absent:
                raise _Fault(f": missing field '{key}'")
            values.append(absent[0])
        elif test(data[key]):
            values.append(data[key])
        else:
            raise _Fault(f": field '{key}' must be {text}")
    return values


def _parse_list(raw: list, parse, name: str, share) -> tuple:
    parsed = []
    try:
        for entry in raw:
            parsed.append(parse(entry, share))
    except _Fault as fault:
        # the failing entry's index is the number parsed before it
        raise _Fault(f"{name}[{len(parsed)}]{fault}") from None
    return tuple(parsed)


# Each parser tests a group of fields for exact types and a key count
# that leaves no room for an unknown key. Only when that fails does it
# run the ordered check of the group's schema, which raises the first
# fault or accepts a subclass. `share` is the setdefault of one dict per
# load.
def _profile_from_dict(data, share) -> tuple[str, tuple[int, ...]]:
    point = profile = None
    if type(data) is dict and len(data) == 2:
        point, profile = data.get("point"), data.get("profile")
    if not (type(point) is str and point and type(profile) is list and
            profile and countOf(map(type, profile), int) == len(profile)):
        point, profile = _check(data, _PROFILE)
    profile = tuple(profile)
    return share(point, point), share(profile, profile)


def _component_from_dict(data, share) -> Component:
    if not isinstance(data, dict):
        raise _Fault(": expected an object")
    kind, cid, genus = data.get("kind"), data.get("id"), data.get("genus")
    if not (type(kind) is type(cid) is str and kind and cid and
            type(genus) is int):
        kind, cid, genus = _check(data, _HEAD, closed=False)
    keys = len(data)
    if kind == "dominant":
        degree, raw = data.get("degree"), data.get("ramification", ())
        if not (type(degree) is int and (
                keys == 4 or keys == 5 and type(raw) is list)):
            *_, degree, raw = _check(data, _DOMINANT)
        return DominantComponent(share(cid, cid), genus, degree, _parse_list(
            raw, _profile_from_dict, ".ramification", share))
    if kind == "contracted":
        image = data.get("image")
        if not (keys == 4 and type(image) is str and image):
            *_, image = _check(data, _CONTRACTED)
        return ContractedComponent(share(cid, cid), genus,
                                   share(image, image))
    raise _Fault(f": kind must be 'dominant' or 'contracted', not {kind!r}")


def _node_from_dict(data, share) -> Node:
    branches = image = None
    if type(data) is dict and len(data) == 2:
        branches, image = data.get("branches"), data.get("image")
    if not (type(branches) is list and len(branches) == 2 and
            type(branches[0]) is type(branches[1]) is str and
            all(branches) and type(image) is str and image):
        branches, image = _check(data, _NODE)
    a, b = branches
    return Node((share(a, a), share(b, b)), share(image, image))


def _top(data) -> list:
    # target genus, components and nodes: the top level's checks, for
    # both ways a document is read
    try:
        return _check(data, _TOP)
    except _Fault as fault:
        raise GraphFormatError(f"top level{fault}") from None


def graph_from_dict(data) -> StableMapGraph:
    """Build a StableMapGraph from the documented JSON shape.

    Shape errors (missing or mistyped fields, unknown keys) raise
    GraphFormatError naming the first fault in document order; rule
    violations are left to `validate`.
    """
    target_genus, raw_components, raw_nodes = _top(data)
    share = {}.setdefault
    try:
        return StableMapGraph(
            target_genus,
            _parse_list(raw_components, _component_from_dict, "components",
                        share),
            _parse_list(raw_nodes, _node_from_dict, "nodes", share),
        )
    except _Fault as fault:
        raise GraphFormatError(str(fault)) from None


def graph_to_dict(graph: StableMapGraph) -> dict:
    """Inverse of graph_from_dict, for round trips and fixtures.

    Each object takes its keys, in order, from the schema row that
    reads it; an empty ramification is left out, and nodes never are.
    """
    components = []
    for comp in graph.components:
        if isinstance(comp, ContractedComponent):
            components.append(dict(zip(_CONTRACTED, ("contracted", *comp))))
            continue
        profiles = [dict(zip(_PROFILE, (point, list(profile))))
                    for point, profile in comp.ramification]
        values = "dominant", *comp[:3], profiles
        # zip stops at the shorter side, so four values leave it out
        components.append(dict(zip(_DOMINANT,
                                   values if profiles else values[:-1])))
    nodes = [dict(zip(_NODE, (list(node.branches), node.image)))
             for node in graph.nodes]
    return dict(zip(_TOP, (graph.target_genus, components, nodes)))


_COMPONENT_TYPES = frozenset({DominantComponent, ContractedComponent})


def _built(text: str) -> StableMapGraph:
    # the graph built while the text decodes. Anything wrong raises, and
    # a named tuple where the document wants a dict (or a dict left where
    # it wants a named tuple) fails a check here or in the parser
    share = {}.setdefault

    def build(data: dict):
        # json's object_hook. Profile dicts are parsed by their
        # component's call; any other dict is returned as it is
        if "kind" in data:
            return _component_from_dict(data, share)
        if "branches" in data:
            return _node_from_dict(data, share)
        return data

    target_genus, components, nodes = _top(
        json.loads(text, object_hook=build))
    # the graph holds every shared label and profile by now. With the
    # table gone, the copies of the lists into tuples below fit in the
    # memory the decode peaked at, though the caller still holds the text
    del share
    # one type check per list at C speed, not a Python call per entry
    if set(map(type, components)) <= _COMPONENT_TYPES and \
            set(map(type, nodes)) <= {Node}:
        return StableMapGraph(target_genus, tuple(components), tuple(nodes))
    raise _Fault(": misplaced object")


def _plain(text: str):
    # the dict tree, decoded one frame below load_graph as json.load did:
    # the depth at which the parser runs out of stack is part of what it
    # reports
    return json.loads(text)


def load_graph(path) -> StableMapGraph:
    """Read a graph document from a JSON file, pipe or FIFO.

    A missing file raises FileNotFoundError; any other unreadable input
    (a directory, a permission error, bytes that are not UTF-8, nesting
    too deep for the parser, an integer literal over the interpreter's
    digit limit) raises GraphFormatError.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc}") from exc
    try:
        return _built(text)
    except (_Fault, ValueError, RecursionError):
        # a faulty document is decoded again, into the dict tree that
        # graph_from_dict reports on, so every error text comes from one
        # place
        pass
    try:
        data = _plain(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError(f"JSON nested too deeply: {exc}") from exc
    except ValueError as exc:
        # int() refuses literals over sys.get_int_max_str_digits() digits
        raise GraphFormatError(f"unreadable JSON number: {exc}") from exc
    del text  # graph_from_dict needs only the tree
    return graph_from_dict(data)
