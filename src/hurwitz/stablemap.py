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

Cost: validation and evaluation are one fold over the records. The
fold is given the target genus, then takes a step for each component
and one for each node, each checking the rules that record takes part
in (Riemann-Hurwitz among them) and adding its terms of the divisor; a
finish lists the violations in their documented order. The fold keeps
state per component id (a union-find table, which also finds duplicates
and unknown references, and each contracted component's image and node
branches), never a record, so the work is linear in the number of
records. `validate`, `branch_divisor`, `arithmetic_genus` and
`riemann_hurwitz_degree` drive it from a graph.

`evaluate`, which the CLI runs, passes each record to the fold as it is
read. A document whose keys come in the documented order is streamed: a
regular file 65,536 characters at a time, and a pipe or a FIFO, which
gives its text once, from that text read whole; each component and node
is scanned, parsed and folded as it is read. So `evaluate` never holds
the graph, a dict tree or a regular file's text. Anything else (another
key order, a repeated or unknown key, anything that is not JSON, any
shape fault) is read whole, from its start, and decoded into dicts,
from which `graph_from_dict` builds the graph or words the fault; that
is the one path of `load_graph`. docs/branch_divisor_format.md gives the
measured time and peak memory of each path; the CLI runs every command
with the cyclic garbage collector off, whose passes over the growing
heap free nothing.
"""

import json
import re
from collections import defaultdict, namedtuple
from contextlib import suppress
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


def _full(value, text=str) -> str:
    # str(int) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full. Other values print as text does.
    from decimal import Decimal  # loaded only when a message needs it
    return str(Decimal(value)) if type(value) is int else text(value)


class _Fold:
    # the rule violations and the branch divisor, settled one record at a
    # time: `component` for every component, then `node` for every node,
    # then `finish`. Each term of the divisor is added in the step that
    # checks the rules it comes from, and Riemann-Hurwitz in the step of
    # its component, since the target genus is known from the start. What
    # a check needs of records still to come is kept until they have come:
    # each contracted component's genus and image until the nodes. The
    # state grows with the number of components, never with the records
    __slots__ = ("target_genus", "parent", "duplicates", "components",
                 "merges", "nodes", "genus", "degree", "coeffs", "images",
                 "branches", "pending", "unknown", "misfits")

    def __init__(self, target_genus: int):
        self.target_genus = target_genus
        # union-find over the component ids: the table answers duplicates
        # and unknown references too. A repeated id counts as a class that
        # no node can reach, so duplicates always read as disconnected
        self.parent, self.duplicates = {}, set()
        self.components = self.merges = self.nodes = 0
        self.genus = 1  # of the glued source, as the records come
        self.degree = 0  # of the map
        self.coeffs: defaultdict[str, int] = defaultdict(int)
        # the image of each id whose last component is contracted, and the
        # node branches on each contracted genus-0 or genus-1 id
        self.images, self.branches = {}, {}
        # each component's violations and stability checks, in their
        # order; then each node's references to unknown ids, and each node
        # off the image of a contracted branch
        self.pending, self.unknown, self.misfits = [], [], []

    def component(self, comp) -> None:
        cid, genus = comp.id, comp.genus
        if cid in self.parent:
            self.duplicates.add(cid)
            self.images.pop(cid, None)  # the last component decides
        self.parent[cid] = cid  # a root: no node has come yet
        self.components += 1
        self.genus += genus - 1
        pending, coeffs = self.pending, self.coeffs
        if genus < 0:
            pending.append(f"component '{cid}': genus must be nonnegative")
        if not isinstance(comp, DominantComponent):
            self.images[cid] = comp.image
            coeffs[comp.image] += 2 * genus - 2
            if genus == 0 or genus == 1:  # stability, once nodes are in
                self.branches[cid] = 0
                pending.append((cid, genus == 1))
            return
        degree = comp.degree
        self.degree += degree
        if degree < 1:
            pending.append(f"component '{cid}': degree must be at least 1")
            return
        profiles_ok, extra, seen_points = True, 0, set()
        for point, profile in comp.ramification:
            if point in seen_points:
                pending.append(f"component '{cid}': point '{point}' listed "
                               "more than once")
                profiles_ok = False
            seen_points.add(point)
            # a partition of the degree: a weakly decreasing tuple of
            # positive entries summing to it
            total = sum(profile)
            if total != degree or profile and (
                    profile[-1] < 1 or
                    not all(map(ge, profile, profile[1:]))):
                profile_text = ", ".join(_full(e, repr) for e in profile)
                pending.append(f"component '{cid}': profile [{profile_text}] "
                               f"over point '{point}' is not a partition of "
                               f"{_full(degree)}")
                profiles_ok = False
            extra += total - len(profile)
            coeffs[point] += total - len(profile)
        if profiles_ok and genus >= 0:  # Riemann-Hurwitz
            rhs = degree * (2 * self.target_genus - 2) + extra
            if 2 * genus - 2 != rhs:
                pending.append(f"component '{cid}': Riemann-Hurwitz fails "
                               f"(2g-2 = {_full(2 * genus - 2)}, degree and "
                               f"profiles give {_full(rhs)})")

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
                self.merges += 1
        for cid in node.branches:
            if cid not in parent:
                self.unknown.append(
                    f"node {index} references unknown component '{cid}'")
            if cid in self.branches:
                self.branches[cid] += 1
            if self.images.get(cid, image) != image:
                self.misfits.append(f"node {index} lies over '{image}' but "
                                    f"its branch on '{cid}' is contracted to "
                                    f"'{self.images[cid]}'")

    def finish(self) -> tuple[list[str], dict[str, int]]:
        # the violations in validate's order, and the divisor's nonzero
        # coefficients, which mean something only when there are none
        violations = []
        if self.target_genus < 0:
            violations.append("target genus must be nonnegative")
        if not self.components:
            violations.append("graph has no components")
        for cid in sorted(self.duplicates):
            violations.append(f"duplicate component id '{cid}'")
        violations += self.unknown
        if self.components and self.components - self.merges != 1:
            violations.append("dual graph is disconnected")
        if self.components and self.degree < 1:
            violations.append(f"total degree is {_full(self.degree)}: at "
                              "least one dominant component is required")
        for check in self.pending:
            if type(check) is str:
                violations.append(check)
                continue
            cid, one = check  # a contracted genus-1 component, or genus-0
            branches, need = self.branches[cid], 1 if one else 3
            if branches < need:
                violations.append(
                    f"component '{cid}': contracted genus-{int(one)} "
                    f"component has {'no' if one else branches} node branch"
                    f"{'es' if branches != 1 else ''}, needs at least {need}")
        violations += self.misfits
        return violations, {point: c for point, c in self.coeffs.items() if c}


def _over(graph: StableMapGraph) -> _Fold:
    # the fold driven from a graph: its components, then its nodes
    fold = _Fold(graph.target_genus)
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
    return _over(graph).finish()[0]


def _connected(graph: StableMapGraph) -> _Fold:
    # the fold of a graph whose dual graph is connected
    fold = _over(graph)
    if fold.components - fold.merges != 1:
        raise ValueError("dual graph is disconnected")
    return fold


def arithmetic_genus(graph: StableMapGraph) -> int:
    """Genus of the glued source curve: the sum of the component genera,
    plus one for each node, minus one for each component, plus one.

    Requires a connected dual graph; disconnected input is an error.
    """
    return _connected(graph).genus


def riemann_hurwitz_degree(graph: StableMapGraph) -> int:
    """Degree the branch divisor must have: `routes.branch_count` of the
    source genus, the map degree and the target genus.

    Raises ValueError, as `arithmetic_genus` and `branch_count` do, on a
    disconnected graph, on one with no dominant component or a negative
    genus, and where that degree is negative. Every valid graph is in
    the domain.
    """
    from . import routes  # the degree law is stated there alone

    fold = _connected(graph)
    return routes.branch_count(fold.genus, fold.degree, fold.target_genus)


def branch_divisor(graph: StableMapGraph) -> dict[str, int]:
    """Branch divisor of a valid stable map, as {point: coefficient}
    with zero coefficients omitted.

    Sum of three contributions: the classical ramification
    sum(e - 1) over each dominant component's profiles, the weight
    2*genus - 2 at the image of each contracted component, and 2 at the
    image of each node. Invalid graphs raise InvalidGraphError carrying
    the full violation list; their divisor is never returned.
    """
    violations, divisor = _over(graph).finish()
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


def _parse_list(raw: list, parse, name: str) -> tuple:
    parsed = []
    try:
        for entry in raw:
            parsed.append(parse(entry))
    except GraphFormatError as fault:
        # the failing entry's index is the number parsed before it
        raise GraphFormatError(f"{name}[{len(parsed)}]{fault}") from None
    return tuple(parsed)


# a named tuple from its fields with no call of its Python-level __new__
_new = tuple.__new__


# Each parser tests a group of fields for exact types and a key count
# that leaves no room for an unknown key. Only when that fails does it
# run the ordered check of the group's schema, which raises the first
# fault or accepts a subclass
def _profile_from_dict(data) -> tuple[str, tuple[int, ...]]:
    point = profile = None
    if type(data) is dict and len(data) == 2:
        point, profile = data.get("point"), data.get("profile")
    if not (type(point) is str and point and type(profile) is list and
            profile and countOf(map(type, profile), int) == len(profile)):
        point, profile = _check(data, _PROFILE)
    return point, tuple(profile)


def _component_from_dict(data):
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
        return _new(DominantComponent, (
            cid, genus, degree,
            _parse_list(raw, _profile_from_dict, ".ramification")))
    if kind == "contracted":
        image = data.get("image")
        if not (keys == 4 and type(image) is str and image):
            *_, image = _check(data, _CONTRACTED)
        return _new(ContractedComponent, (cid, genus, image))
    raise GraphFormatError(
        f": kind must be 'dominant' or 'contracted', not {kind!r}")


def _node_from_dict(data) -> Node:
    branches = image = None
    if type(data) is dict and len(data) == 2:
        branches, image = data.get("branches"), data.get("image")
    if not (type(branches) is list and len(branches) == 2 and
            type(branches[0]) is type(branches[1]) is str and
            all(branches) and type(image) is str and image):
        branches, image = _check(data, _NODE)
    return _new(Node, (tuple(branches), image))


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
    return StableMapGraph(target_genus, _parse_list(
        raw_components, _component_from_dict, "components"),
        _parse_list(raw_nodes, _node_from_dict, "nodes"))


# The streamed reader. Between its records a document in the documented
# order is matched by the patterns below, in which a space stands for
# JSON's white space: the target genus first, as an integer literal, then
# the components, then the nodes, which may be empty or left out. Each
# pattern that leads into a record asks for its opening brace, so white
# space that a window's edge cut is matched again whole. An empty list of
# components, which no valid graph has, is not streamed
def _grammar(pattern: str):
    return re.compile(pattern.replace(" ", "[ \t\n\r]*")).match


_OPEN = _grammar(r' \{ "target_genus" : (-?(?:0|[1-9][0-9]*)) , '
                 r'"components" : \[ (?=\{)')
_NEXT = _grammar(r" (?:(,) (?=\{)|\])")
_NODES = _grammar(r' (?:, "nodes" : \[ (?:(?=(\{))|\] \} \Z)|\} \Z)')
_CLOSE = _grammar(r" \} \Z")
_WINDOW = 1 << 16  # characters in each read
# a failure more characters than this before the end of the text read is
# not the edge's doing: only a string or a run of white space that long,
# cut by the edge, could put it there, and such a document is read whole
_CUT = 1 << 12
# a record with more opening brackets than this may nest deep enough for
# the parser's depth limit to decide its outcome, which the whole text
# reaches at another depth: such a record takes the whole-text path
_NESTED = 1 << 7
_scan = json.JSONDecoder().scan_once  # a JSON value at an index, and its end
_spent = "".__mul__  # the reader of a text held whole: "" for any size


class _Window:
    # text read a window at a time through `read`, after the `text` given.
    # `text[at:]` is what is not yet scanned, so a window is kept until its
    # last record has been; what is off the documented shape raises
    def __init__(self, read, text: str = ""):
        self.read, self.text, self.at = read, text, 0

    def more(self, at: int, failed: int) -> None:
        # the text from `at` on and as much again, a window at least, so
        # that what the edge cut at `failed` is scanned again whole
        text = self.text
        if len(text) - failed > _CUT or not (
                window := self.read(max(_WINDOW, len(text) - at))):
            raise ValueError("off the streamed shape")
        self.text, self.at = text[at:] + window, 0

    def match(self, grammar):
        # the grammar's match where the reader is, passed. Where it fails,
        # the edge may have cut what it matches: it is tried with more
        while not (found := grammar(self.text, self.at)):
            self.more(self.at, self.at)
        self.at = found.end()
        return found

    def each(self, parse, step) -> None:
        # step(parse(element)) for each element of the array the reader is
        # in, up to its "]". A number too long for int() raises at once
        text, at = self.text, self.at
        while True:
            try:
                data, end = _scan(text, at)
            except (json.JSONDecodeError, StopIteration) as fault:
                # cut by the edge, maybe: where the scan failed, which is
                # past the record's opening brace, so never index 0
                self.more(at, getattr(fault, "pos", None) or fault.value)
            else:
                if end - at > 2 * _NESTED and text.count("[", at, end) + \
                        text.count("{", at, end) > _NESTED:
                    raise ValueError("a record nested deeply")
                step(parse(data))
                if text.startswith(", {", end):  # as json.dumps separates
                    at = end + 2
                    continue
                self.at = end
                if not self.match(_NEXT)[1]:
                    return
            text, at = self.text, self.at


def _streamed(window: _Window) -> _Fold:
    # the fold, given each record of a document in the documented order,
    # its keys each once, as soon as the record is scanned
    fold = _Fold(int(window.match(_OPEN)[1]))
    window.each(_component_from_dict, fold.component)
    if window.match(_NODES)[1]:
        window.each(_node_from_dict, fold.node)
        window.match(_CLOSE)
    if window.read(-1).strip(" \t\n\r"):  # white space alone may follow
        raise ValueError("data after the document")
    return fold


# what the stream refuses, and every document load_graph reads, is
# decoded whole, into the dict tree that graph_from_dict reads. It is
# json.loads itself, called from the frame that read the text, so the
# parser runs out of stack at the depth json.load reaches from the
# reader's caller: that depth is part of what a fault reports
_plain = json.loads


def _load(path, stream: bool):
    # the document at `path`: its fold with `stream`, else its graph. The
    # fold is given each record as it is read: a regular file's a window
    # at a time, and a pipe's or a FIFO's, which give their text once,
    # from the text read whole. What the stream refuses, and every
    # document without `stream`, is read whole (a file from its start
    # again) and decoded into dicts, from which graph_from_dict builds the
    # graph, so every fault is worded in one place and from one frame
    try:
        with open(path, encoding="utf-8") as handle:
            piped = not handle.seekable()
            if stream and not piped:
                with suppress(ValueError, RecursionError):
                    return _streamed(_Window(handle.read))
                handle.seek(0)
            text = handle.read()
            if stream and piped:
                with suppress(ValueError, RecursionError):
                    return _streamed(_Window(_spent, text))
    except FileNotFoundError as exc:
        raise GraphFormatError(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc}") from exc
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
    graph = graph_from_dict(data)
    return _over(graph) if stream else graph


def load_graph(path) -> StableMapGraph:
    """Read a graph document from a JSON file, pipe or FIFO: its text
    whole, decoded into dicts, from which `graph_from_dict` builds the
    graph. Every input that cannot be read or parsed (a missing file, a
    directory, a permission error, bytes that are not UTF-8, nesting too
    deep for the parser, an integer literal over the interpreter's digit
    limit) raises GraphFormatError, with the error that caused it as
    __cause__.
    """
    return _load(path, stream=False)


class Evaluation(namedtuple("Evaluation", "target_genus map_degree "
                           "source_genus divisor divisor_degree "
                           "expected_degree")):
    """What `evaluate` finds for a valid graph: its target genus, the
    map degree, the source genus, the branch divisor as
    {point: coefficient} without zero coefficients, the divisor's degree
    and the degree `routes.branch_count` expects, which are equal."""

    __slots__ = ()


def evaluate(path) -> Evaluation:
    """The branch divisor of the graph document at `path`, with the
    faults `load_graph` finds, folded record by record as it is read,
    so the graph is never held whole. Nor is the text of a regular file
    whose keys come in the documented order: it is read a window at a
    time. A document in another key order is decoded into dicts first,
    as `load_graph` decodes every document.

    Raises GraphFormatError as `load_graph` does, and InvalidGraphError
    with `validate`'s list. Every valid graph meets the degree law and
    has an effective divisor (docs/branch_divisor_format.md says why),
    so a divisor that fails either raises ArithmeticError: a fault in
    the program.
    """
    from . import routes  # the degree law is stated there alone

    fold = _load(path, stream=True)
    violations, divisor = fold.finish()
    if violations:
        raise InvalidGraphError(violations)
    # validated, connectedness included, so the genus formula applies and
    # the degree law's inputs are in its domain
    expected = routes.branch_count(fold.genus, fold.degree, fold.target_genus)
    degree = sum(divisor.values())
    if degree != expected or min(divisor.values(), default=0) < 0:
        raise ArithmeticError(
            f"branch divisor of degree {_full(degree)} is not an "
            f"effective divisor of degree {_full(expected)}")
    return Evaluation(fold.target_genus, fold.degree, fold.genus, divisor,
                      degree, expected)
