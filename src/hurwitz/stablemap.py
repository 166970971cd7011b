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

Cost: validation and evaluation are one fold over the records. A step
for each component and one for each node check the rules that record
takes part in and add its terms of the divisor; a finish takes the
target genus and lists the violations in their documented order. The
fold keeps state per component id (a union-find table, which also
finds duplicates and unknown references, each contracted component's
image and node branches, and each dominant component's
Riemann-Hurwitz inputs until the target genus is known), never a
record, so the work is linear in the number of records. `validate`,
`branch_divisor` and `arithmetic_genus` drive it from a graph.
`evaluate`, which the CLI runs, drives it from the JSON decoder: each
component and node is parsed as soon as the parser has read it, folded
and dropped, so neither the graph nor the document's dict tree ever
exists whole. `load_graph` builds the graph the same way, each record
becoming its named tuple as it is read, with one table per load that
makes equal labels one string and equal profiles one tuple (equal
strings still name the same point; nothing is kept between loads).
Both read their input once, so it may be a pipe or a FIFO; a faulty
document is decoded a second time, into dicts, and `graph_from_dict`
reports the fault. docs/branch_divisor_format.md gives the measured
time and peak memory; the CLI runs every command with the cyclic
garbage collector off, whose passes over the growing heap free
nothing.
"""

import json
from collections import defaultdict, namedtuple
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


def _full(value, text=str) -> str:
    # str(int) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full. Other values print as text does.
    from decimal import Decimal  # loaded only when a message needs it
    return str(Decimal(value)) if type(value) is int else text(value)


class _Fold:
    # the rule violations and the branch divisor, settled one record at a
    # time: `component` for every component, then `node` for every node,
    # then `finish` with the target genus. Each term of the divisor is
    # added in the step that checks the rules it comes from. What a check
    # needs of records still to come is kept until they have come: each
    # dominant component's Riemann-Hurwitz inputs until the target genus,
    # each contracted component's genus and image until the nodes. The
    # state grows with the number of components, never with the records
    __slots__ = ("parent", "duplicates", "components", "classes", "nodes",
                 "genus", "degree", "coeffs", "images", "branches",
                 "pending", "unknown", "misfits")

    def __init__(self):
        # union-find over the component ids: the table answers duplicates
        # and unknown references too. A repeated id counts as a class that
        # no node can reach, so duplicates always read as disconnected
        self.parent: dict[str, str] = {}
        self.duplicates: set[str] = set()
        self.components = self.classes = self.nodes = 0
        self.genus = 1  # of the glued source, as the records come
        self.degree = 0  # of the map
        self.coeffs: defaultdict[str, int] = defaultdict(int)
        # the image of each id whose last component is contracted, and the
        # node branches on each contracted genus-0 or genus-1 id
        self.images: dict[str, str] = {}
        self.branches: dict[str, int] = {}
        # each component's violations and deferred checks, in their order;
        # then each node's references to unknown ids, and each node off
        # the image of a contracted branch
        self.pending: list = []
        self.unknown: list[str] = []
        self.misfits: list[str] = []

    def component(self, comp) -> None:
        cid, genus = comp.id, comp.genus
        if cid in self.parent:
            self.duplicates.add(cid)
            self.images.pop(cid, None)  # the last component decides
        else:
            self.parent[cid] = cid
        self.components += 1
        self.classes += 1
        self.genus += genus - 1
        pending, coeffs = self.pending, self.coeffs
        if genus < 0:
            pending.append(f"component '{cid}': genus must be nonnegative")
        if not isinstance(comp, DominantComponent):
            self.images[cid] = comp.image
            coeffs[comp.image] += 2 * genus - 2
            if genus == 0 or genus == 1:  # stability, once nodes are in
                self.branches[cid] = 0
                pending.append((cid, genus))
            return
        degree = comp.degree
        self.degree += degree
        if degree < 1:
            pending.append(f"component '{cid}': degree must be at least 1")
            return
        profiles_ok = True
        extra = 0
        seen_points = set()
        for point, profile in comp.ramification:
            if point in seen_points:
                pending.append(
                    f"component '{cid}': point '{point}' listed more than "
                    "once"
                )
                profiles_ok = False
            seen_points.add(point)
            # a partition of the degree: a weakly decreasing tuple of
            # positive entries summing to it
            total = sum(profile)
            if total != degree or profile and (
                    profile[-1] < 1 or
                    not all(map(ge, profile, profile[1:]))):
                profile_text = ", ".join(_full(e, repr) for e in profile)
                pending.append(
                    f"component '{cid}': profile [{profile_text}] over "
                    f"point '{point}' is not a partition of {_full(degree)}"
                )
                profiles_ok = False
            extra += total - len(profile)
            coeffs[point] += total - len(profile)
        if profiles_ok and genus >= 0:  # Riemann-Hurwitz, once h is known
            pending.append((cid, 2 * genus - 2, degree, extra))

    def node(self, node) -> None:
        index = self.nodes
        self.nodes += 1
        self.genus += 1
        image = node.image
        self.coeffs[image] += 2
        parent = self.parent
        a, b = node.branches
        if a in parent and b in parent:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[a] = b
                self.classes -= 1
        for cid in node.branches:
            if cid not in parent:
                self.unknown.append(
                    f"node {index} references unknown component '{cid}'")
            if cid in self.branches:
                self.branches[cid] += 1
            if self.images.get(cid, image) != image:
                self.misfits.append(
                    f"node {index} lies over '{image}' but its branch on "
                    f"'{cid}' is contracted to '{self.images[cid]}'"
                )

    def finish(self, target_genus: int) -> tuple[list[str], dict[str, int]]:
        # the violations in validate's order, and the divisor's nonzero
        # coefficients, which mean something only when there are none
        violations = []
        if target_genus < 0:
            violations.append("target genus must be nonnegative")
        if not self.components:
            violations.append("graph has no components")
        for cid in sorted(self.duplicates):
            violations.append(f"duplicate component id '{cid}'")
        violations += self.unknown
        if self.components and self.classes != 1:
            violations.append("dual graph is disconnected")
        if self.components and self.degree < 1:
            violations.append(
                f"total degree is {_full(self.degree)}: at least one "
                "dominant component is required"
            )
        two_h = 2 * target_genus
        for check in self.pending:
            if type(check) is str:
                violations.append(check)
            elif len(check) == 2:
                cid, genus = check
                branches = self.branches[cid]
                if genus == 0 and branches < 3:
                    violations.append(
                        f"component '{cid}': contracted genus-0 component "
                        f"has {branches} node branch"
                        f"{'es' if branches != 1 else ''}, needs at least 3"
                    )
                elif genus == 1 and branches < 1:
                    violations.append(
                        f"component '{cid}': contracted genus-1 component "
                        "has no node branches, needs at least 1"
                    )
            else:
                cid, lhs, degree, extra = check
                rhs = degree * (two_h - 2) + extra
                if lhs != rhs:
                    violations.append(
                        f"component '{cid}': Riemann-Hurwitz fails "
                        f"(2g-2 = {_full(lhs)}, degree and profiles give "
                        f"{_full(rhs)})"
                    )
        violations += self.misfits
        return violations, {point: c for point, c in self.coeffs.items() if c}


def _over(graph: StableMapGraph) -> _Fold:
    # the fold driven from a graph: its components, then its nodes
    fold = _Fold()
    for comp in graph.components:
        fold.component(comp)
    for node in graph.nodes:
        fold.node(node)
    return fold


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
    return _over(graph).finish(graph.target_genus)[0]


def arithmetic_genus(graph: StableMapGraph) -> int:
    """Genus of the glued source curve: the sum of the component genera,
    plus one for each node, minus one for each component, plus one.

    Requires a connected dual graph; disconnected input is an error.
    """
    fold = _over(graph)
    if fold.classes != 1:
        raise ValueError("dual graph is disconnected")
    return fold.genus


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
    violations, divisor = _over(graph).finish(graph.target_genus)
    if violations:
        raise InvalidGraphError(violations)
    return divisor


def _integer(value) -> bool:
    # a bool is an int, but not an integer here
    return isinstance(value, int) and value is not True and value is not False


def _text(value) -> bool:
    return isinstance(value, str) and value != ""


# The document schema. Each kind of field value is a test and the words
# a fault names it by; an optional kind adds what an absent field stands
# for. Each object lists its fields in the order they are checked.
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


# A shape fault is a GraphFormatError whose text starts with its location
# relative to the object being parsed: ": problem" for the object itself,
# ".ramification[1]: problem" for a part of it. Each list prepends the
# index of the entry that failed, and the top level its own name, so no
# location is formatted unless a check fails.
def _check(data, fields: dict, closed: bool = True) -> list:
    # the values of an object's fields, in the order `fields` lists them,
    # or its first fault: not an object, then (in a closed check) the
    # first unknown key in document order, then each field in turn
    if not isinstance(data, dict):
        raise GraphFormatError(": expected an object")
    if closed and not fields.keys() >= data.keys():
        key = next(key for key in data if key not in fields)
        raise GraphFormatError(f": unknown field '{key}'")
    values = []
    for key, (test, text, *absent) in fields.items():
        if key not in data:
            if not absent:
                raise GraphFormatError(f": missing field '{key}'")
            values.append(absent[0])
        elif test(data[key]):
            values.append(data[key])
        else:
            raise GraphFormatError(f": field '{key}' must be {text}")
    return values


def _parse_list(raw: list, parse, name: str, share) -> tuple:
    parsed = []
    try:
        for entry in raw:
            parsed.append(parse(entry, share))
    except GraphFormatError as fault:
        # the failing entry's index is the number parsed before it
        raise GraphFormatError(f"{name}[{len(parsed)}]{fault}") from None
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


def _component_from_dict(data, share):
    if not isinstance(data, dict):
        raise GraphFormatError(": expected an object")
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
    raise GraphFormatError(
        f": kind must be 'dominant' or 'contracted', not {kind!r}")


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


def graph_from_dict(data) -> StableMapGraph:
    """Build a StableMapGraph from the documented JSON shape.

    Shape errors (missing or mistyped fields, unknown keys) raise
    GraphFormatError naming the first fault in document order; rule
    violations are left to `validate`.
    """
    try:
        target_genus, raw_components, raw_nodes = _check(data, _TOP)
    except GraphFormatError as fault:
        raise GraphFormatError(f"top level{fault}") from None
    share = {}.setdefault
    return StableMapGraph(
        target_genus,
        _parse_list(raw_components, _component_from_dict, "components", share),
        _parse_list(raw_nodes, _node_from_dict, "nodes", share),
    )


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

    target_genus, components, nodes = _check(
        json.loads(text, object_hook=build), _TOP)
    # the graph holds every shared label and profile by now. With the
    # table gone, the copies of the lists into tuples below fit in the
    # memory the decode peaked at, though the caller still holds the text
    del share
    # one type check per list at C speed, not a Python call per entry
    if set(map(type, components)) <= _COMPONENT_TYPES and \
            set(map(type, nodes)) <= {Node}:
        return StableMapGraph(target_genus, tuple(components), tuple(nodes))
    raise GraphFormatError(": misplaced object")


# a faulty document's second decode, into the dict tree graph_from_dict
# reports on. It is json.loads itself, called from the frame that read the
# text, so the parser runs out of stack at the depth json.load reaches
# from the reader's caller: that depth is part of what a fault reports
_plain = json.loads


def _load(path, decode, then):
    # decode(text) of the document at `path`, read once, so that it may be
    # a pipe or a FIFO. A document that decode refuses is decoded again,
    # into dicts, and graph_from_dict names its fault, so every error text
    # comes from one place. Its graph, where the only fault was in a value
    # that a repeated key replaced, goes to `then` in place of decode
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError as exc:
        raise GraphFormatError(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc}") from exc
    try:
        return decode(text)
    except (ValueError, RecursionError):
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
    return then(graph_from_dict(data))


def load_graph(path) -> StableMapGraph:
    """Read a graph document from a JSON file, pipe or FIFO.

    Every input that cannot be read or parsed (a missing file, a
    directory, a permission error, bytes that are not UTF-8, nesting too
    deep for the parser, an integer literal over the interpreter's digit
    limit) raises GraphFormatError, with the error that caused it as
    __cause__.
    """
    return _load(path, _built, lambda graph: graph)


# what a folded record leaves in its list, so that a record out of its
# place still fails a check
_FOLDED_COMPONENT, _FOLDED_NODE = object(), object()


class _Reordered(Exception):
    """A component decoded after a node, which the fold cannot take."""


def _same(key, value):
    # the parsers' share where nothing is kept: the fold holds no record
    return value


def _folded(text: str) -> tuple[_Fold, int]:
    # the fold of the records as the text decodes, and the target genus;
    # no record outlives its step. A document the fold cannot take in
    # order is built into its graph instead, which raises any fault, and
    # the fold walks the graph: a component after a node, and a record
    # that is not in the one list its kind belongs to, or is in a list
    # that a repeated key replaced
    fold = _Fold()

    def step(data: dict):
        # json's object_hook, dispatching as _built's does
        if "kind" in data:
            if fold.nodes:
                raise _Reordered
            fold.component(_component_from_dict(data, _same))
            return _FOLDED_COMPONENT
        if "branches" in data:
            fold.node(_node_from_dict(data, _same))
            return _FOLDED_NODE
        return data

    try:
        target_genus, components, nodes = _check(
            json.loads(text, object_hook=step), _TOP)
    except _Reordered:
        pass
    else:
        if fold.components == components.count(_FOLDED_COMPONENT) == \
                len(components) and \
                fold.nodes == nodes.count(_FOLDED_NODE) == len(nodes):
            return fold, target_genus
    del fold, step  # gone before the graph is built
    return _walked(_built(text))


def _walked(graph: StableMapGraph) -> tuple[_Fold, int]:
    return _over(graph), graph.target_genus


class Evaluation(namedtuple("Evaluation", "target_genus map_degree "
                           "source_genus divisor divisor_degree "
                           "expected_degree")):
    """What `evaluate` finds for a valid graph: its target genus, the
    map degree, the source genus, the branch divisor as
    {point: coefficient} without zero coefficients, the divisor's degree
    and the degree `routes.branch_count` expects, which are equal."""

    __slots__ = ()


def evaluate(path) -> Evaluation:
    """The branch divisor of the graph document at `path`, read as
    `load_graph` reads it, with the same faults, but folded record by
    record as the text decodes, so the graph is never held whole.

    Raises GraphFormatError as `load_graph` does, and InvalidGraphError
    with `validate`'s list. Every valid graph meets the degree law and
    has an effective divisor (docs/branch_divisor_format.md says why),
    so a divisor that fails either raises ArithmeticError: a fault in
    the program.
    """
    from . import routes  # the degree law is stated there alone

    fold, target_genus = _load(path, _folded, _walked)
    violations, divisor = fold.finish(target_genus)
    if violations:
        raise InvalidGraphError(violations)
    # validated, connectedness included, so the genus formula applies and
    # the degree law's inputs are in its domain
    expected = routes.branch_count(fold.genus, fold.degree, target_genus)
    degree = sum(divisor.values())
    if degree != expected or min(divisor.values(), default=0) < 0:
        raise ArithmeticError(
            f"branch divisor of degree {_full(degree)} is not an "
            f"effective divisor of degree {_full(expected)}")
    return Evaluation(target_genus, fold.degree, fold.genus, divisor,
                      degree, expected)
