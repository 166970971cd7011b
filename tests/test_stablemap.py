"""Stable-map graphs: validation, genus, branch divisors, and the JSON
format. The degree law and effectivity on random graphs, the refusal to
evaluate the unstable fixture, and continuity under collision are
criteria 7, 8 and 10 of test_acceptance.py.

Every check lives in one table, one reference comparison or the golden
file. Each rule's exact wording is pinned in one table: every validity
violation in `TestValidation::test_single_violations_are_worded_exactly`
and `::test_violations_come_in_rule_order`, every format fault in
`FORMAT_ERRORS`, `FIRST_FAULTS` and `TYPE_RULES`, and every input that
cannot be read in `TestLoadGraph::test_unreadable_files`. The divisor of
every fixture and of random valid graphs is compared with a reference in
`TestBranchDivisor::test_matches_the_reference_on_valid_graphs`, and
the CLI bytes of each fixture are in tests/golden_outputs.json. A new
case is one more row or input there, not a new test.
"""

import gc
import json
import os
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import pytest

from graphgen import (
    graph_to_dict,
    misplaced_documents,
    mutate_document,
    random_valid_graph,
)
from hurwitz import stablemap
from hurwitz.cli import main
from hurwitz.stablemap import (
    ContractedComponent,
    DominantComponent,
    GraphFormatError,
    InvalidGraphError,
    Node,
    StableMapGraph,
    arithmetic_genus,
    branch_divisor,
    graph_from_dict,
    load_graph,
    riemann_hurwitz_degree,
    total_degree,
    validate,
)
from test_routes import NO_COVER, OUT_OF_DOMAIN

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def two_sheets(tail_genus=None):
    """Degree-2 cover branched over q1 and q2, optionally with a
    contracted tail of the given genus attached over p."""
    components = [
        DominantComponent(
            id="A", genus=0, degree=2,
            ramification=(("q1", (2,)), ("q2", (2,))),
        ),
    ]
    nodes = ()
    if tail_genus is not None:
        components.append(
            ContractedComponent(id="B", genus=tail_genus, image="p")
        )
        nodes = (Node(branches=("A", "B"), image="p"),)
    return StableMapGraph(
        target_genus=0, components=tuple(components), nodes=nodes
    )


class TestValidation:
    @pytest.mark.parametrize("genus_field", ["genus", "target_genus"])
    def test_riemann_hurwitz_failure_prints_in_full(self, capsys, tmp_path,
                                                    genus_field):
        # the largest genus the JSON parser accepts; 2g-2 has one digit
        # more than str(int) converts by default. `branch-divisor` prints
        # the same list
        limit = sys.get_int_max_str_digits()
        genera = {"genus": "0", "target_genus": "0", genus_field: "9" * limit}
        path = tmp_path / "huge.json"
        path.write_text(
            '{"target_genus": ' + genera["target_genus"] + ', "components": '
            '[{"kind": "dominant", "id": "A", "genus": ' + genera["genus"]
            + ', "degree": 1}]}',
            encoding="utf-8",
        )
        problems = validate(load_graph(path))
        assert sys.get_int_max_str_digits() == limit
        huge = "1" + "9" * (limit - 1) + "6"
        lhs, rhs = (huge, "-2") if genus_field == "genus" else ("-2", huge)
        assert problems == [
            f"component 'A': Riemann-Hurwitz fails (2g-2 = {lhs}, "
            f"degree and profiles give {rhs})"
        ]
        assert main(["branch-divisor", "--input", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["violations"] == problems

    def test_self_node_counts_two_branches(self):
        # one self-node plus one ordinary node: three branches, stable
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(
                    id="A", genus=0, degree=2,
                    ramification=(("q1", (2,)), ("q2", (2,))),
                ),
                ContractedComponent(id="B", genus=0, image="p"),
            ),
            nodes=(
                Node(branches=("B", "B"), image="p"),
                Node(branches=("A", "B"), image="p"),
            ),
        )
        assert validate(graph) == []
        # dropping the self-node leaves one branch: unstable again
        smaller = StableMapGraph(
            target_genus=0,
            components=graph.components,
            nodes=graph.nodes[1:],
        )
        assert any("genus-0" in p for p in validate(smaller))

    def test_profile_failure_prints_in_full(self):
        # entries and degrees past the digit limit str(int) converts; a
        # graph built in Python can carry them
        huge = 10 ** (sys.get_int_max_str_digits() + 100)
        wide = "1" + "0" * (sys.get_int_max_str_digits() + 100)
        big_degree = StableMapGraph(0, (
            DominantComponent("A", 0, huge, (("q", (3,)),)),), ())
        assert validate(big_degree) == [
            f"component 'A': profile [3] over point 'q' is not a "
            f"partition of {wide}"
        ]
        big_entry = StableMapGraph(0, (
            DominantComponent("A", 0, 3, (("q", (huge, 1)),)),), ())
        assert validate(big_entry) == [
            f"component 'A': profile [{wide}, 1] over point 'q' is not a "
            "partition of 3"
        ]

    @pytest.mark.parametrize("graph, expected", [
        (StableMapGraph(0, (), ()), ["graph has no components"]),
        (StableMapGraph(0, (ContractedComponent("B", 2, "p"),), ()),
         ["total degree is 0: at least one dominant component is "
          "required"]),
        (StableMapGraph(0, (
            DominantComponent("A", 0, 2, (("q1", (2,)), ("q2", (2,)))),
            ContractedComponent("B", 0, "p"),
        ), (Node(("A", "B"), "p"), Node(("A", "B"), "p"))),
         ["component 'B': contracted genus-0 component has 2 node "
          "branches, needs at least 3"]),
        (StableMapGraph(0, (DominantComponent("A", 0, 1),
                            ContractedComponent("B", 0, "p"),
                            DominantComponent("C", 0, 1)),
                        (Node(("A", "C"), "p"),)),
         ["dual graph is disconnected",
          "component 'B': contracted genus-0 component has 0 node "
          "branches, needs at least 3"]),
        (StableMapGraph(1, (DominantComponent("A", 0, 1),), ()),
         ["component 'A': Riemann-Hurwitz fails (2g-2 = -2, degree and "
          "profiles give 0)"]),
        # a repeated id takes the kind of its last component, so a node
        # on it is checked against no contracted image
        (StableMapGraph(0, (ContractedComponent("A", 1, "p"),
                            DominantComponent("A", 0, 1)),
                        (Node(("A", "A"), "q"),)),
         ["duplicate component id 'A'", "dual graph is disconnected"]),
        # the total is printed as computed, below zero too
        (StableMapGraph(0, (DominantComponent("A", 0, -1),), ()),
         ["total degree is -1: at least one dominant component is "
          "required", "component 'A': degree must be at least 1"]),
        # the graph of unstable_tail.json
        (two_sheets(tail_genus=0),
         ["component 'B': contracted genus-0 component has 1 node branch, "
          "needs at least 3"]),
    ])
    def test_single_violations_are_worded_exactly(self, graph, expected):
        assert validate(graph) == expected

    def test_violations_come_in_rule_order(self):
        graph = StableMapGraph(
            target_genus=-1,
            components=(
                DominantComponent("A", -1, 2, (
                    ("q", (2,)), ("q", (1, 1)), ("r", (3,)))),
                ContractedComponent("B", 0, "p"),
                ContractedComponent("C", 1, "p"),
                DominantComponent("D", 0, 0),
                DominantComponent("E", 1, 1),
                ContractedComponent("B", 2, "s"),
            ),
            nodes=(
                Node(("A", "B"), "elsewhere"),
                Node(("X", "E"), "t"),
            ),
        )
        assert validate(graph) == [
            "target genus must be nonnegative",
            "duplicate component id 'B'",
            "node 1 references unknown component 'X'",
            "dual graph is disconnected",
            "component 'A': genus must be nonnegative",
            "component 'A': point 'q' listed more than once",
            "component 'A': profile [3] over point 'r' is not a "
            "partition of 2",
            "component 'B': contracted genus-0 component has 1 node "
            "branch, needs at least 3",
            "component 'C': contracted genus-1 component has no node "
            "branches, needs at least 1",
            "component 'D': degree must be at least 1",
            "component 'E': Riemann-Hurwitz fails (2g-2 = 0, degree and "
            "profiles give -4)",
            # the last component with an id decides its image
            "node 0 lies over 'elsewhere' but its branch on 'B' is "
            "contracted to 's'",
        ]


def connected_by_search(graph):
    """Reference: breadth-first search from the first component over the
    nodes whose branches both name components; duplicate ids never
    count as connected."""
    ids = [c.id for c in graph.components]
    if not ids or len(set(ids)) != len(ids):
        return False
    neighbours = {cid: [] for cid in ids}
    for a, b in (node.branches for node in graph.nodes):
        if a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
    seen, queue = {ids[0]}, deque([ids[0]])
    while queue:
        for other in neighbours[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return len(seen) == len(ids)


def perturbed(rng, graph):
    """A copy of the graph with one to four random edits to its
    components and nodes; the result may or may not be connected."""
    components = list(graph.components)
    nodes = list(graph.nodes)
    for _ in range(rng.randint(1, 4)):
        move = rng.randrange(5)
        ids = [c.id for c in components]
        if move == 0 and nodes:  # cut a node, maybe a bridge
            nodes.pop(rng.randrange(len(nodes)))
        elif move == 1:  # an isolated component
            components.append(DominantComponent(
                f"Z{len(components)}", 0, 1))
        elif move == 2:  # a node naming an unknown id
            nodes.append(Node((rng.choice(ids), "ghost"), "p"))
        elif move == 3:  # a self-node
            cid = rng.choice(ids)
            nodes.append(Node((cid, cid), "p"))
        elif rng.randrange(4) == 0:  # a repeated id
            components.append(rng.choice(components))
        else:  # a node joining two known components
            nodes.append(Node((rng.choice(ids), rng.choice(ids)), "p"))
    rng.shuffle(nodes)
    return graph._replace(components=tuple(components),
                          nodes=tuple(nodes))


class TestConnectivity:
    def test_matches_breadth_first_reference(self):
        rng = random.Random(4242)
        verdicts = Counter()
        for _ in range(300):
            graph = perturbed(rng, random_valid_graph(rng))
            connected = connected_by_search(graph)
            verdicts[connected] += 1
            assert ("dual graph is disconnected" not in validate(graph)) \
                == connected
            if connected:
                arithmetic_genus(graph)
            else:
                with pytest.raises(ValueError, match="disconnected"):
                    arithmetic_genus(graph)
        assert min(verdicts.values()) > 50


class TestGenusAndDegree:
    def test_single_component_genus(self):
        graph = StableMapGraph(
            target_genus=1,
            components=(DominantComponent(id="A", genus=3, degree=1),),
            nodes=(),
        )
        assert arithmetic_genus(graph) == 3
        assert total_degree(graph) == 1

    def test_nodes_raise_the_genus(self):
        stable = two_sheets(tail_genus=1)
        assert arithmetic_genus(stable) == 1
        with_self_node = StableMapGraph(
            target_genus=0,
            components=stable.components,
            nodes=stable.nodes + (Node(branches=("B", "B"), image="p"),),
        )
        assert arithmetic_genus(with_self_node) == 2


def reference_divisor(graph):
    """Reference: the three terms summed in a walk of their own over the
    components, profiles and nodes, zero coefficients dropped."""
    coeffs = Counter()
    for comp in graph.components:
        if isinstance(comp, DominantComponent):
            for point, profile in comp.ramification:
                coeffs[point] += sum(profile) - len(profile)
        else:
            coeffs[comp.image] += 2 * comp.genus - 2
    for node in graph.nodes:
        coeffs[node.image] += 2
    return {point: c for point, c in coeffs.items() if c}


class TestBranchDivisor:
    def test_smooth_cover(self):
        div = branch_divisor(two_sheets())
        assert div == {"q1": 1, "q2": 1}
        assert sum(div.values()) == riemann_hurwitz_degree(two_sheets()) == 2

    def test_elliptic_tail(self):
        graph = two_sheets(tail_genus=1)
        div = branch_divisor(graph)
        assert div == {"q1": 1, "q2": 1, "p": 2}
        assert sum(div.values()) == riemann_hurwitz_degree(graph) == 4

    def test_higher_genus_tail_adds_weight(self):
        graph = two_sheets(tail_genus=2)
        div = branch_divisor(graph)
        # 2g - 2 = 2 from the tail plus 2 from the node
        assert div["p"] == 4

    def test_zero_coefficients_are_dropped(self, capsys, tmp_path):
        # an all-ones profile lists a point that is not a branch point
        cover = two_sheets().components[0]
        graph = two_sheets()._replace(components=(cover._replace(
            ramification=cover.ramification + (("r", (1, 1)),)),))
        assert branch_divisor(graph) == {"q1": 1, "q2": 1}
        path = tmp_path / "ones.json"
        path.write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")
        assert main(["branch-divisor", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["divisor"] == \
            {"q1": 1, "q2": 1}

    def test_matches_the_reference_on_valid_graphs(self):
        rng = random.Random(1999)
        graphs = [random_valid_graph(rng) for _ in range(200)]
        graphs += [load_graph(FIXTURES / f"{name}.json")
                   for name in ("identity_map", "elliptic_tail")]
        for graph in graphs:
            divisor = branch_divisor(graph)
            assert divisor == reference_divisor(graph)
            # in the same point order too, as a library caller sees it
            assert list(divisor) == list(reference_divisor(graph))

    def test_raises_exactly_when_validate_objects(self):
        rng = random.Random(4242)
        graphs = [perturbed(rng, random_valid_graph(rng)) for _ in range(300)]
        source = json.loads(
            (FIXTURES / "elliptic_tail.json").read_text(encoding="utf-8"))
        for seed in range(300):
            try:
                graphs.append(graph_from_dict(
                    mutate_document(source, random.Random(seed))))
            except GraphFormatError:
                pass
        verdicts = Counter()
        for graph in graphs:
            violations = validate(graph)
            verdicts[bool(violations)] += 1
            if violations:
                with pytest.raises(InvalidGraphError) as info:
                    branch_divisor(graph)
                assert info.value.violations == violations
            else:
                assert branch_divisor(graph) == reference_divisor(graph)
        assert min(verdicts.values()) > 20


class TestJsonFormat:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_valid_graph(rng)
            assert graph_from_dict(graph_to_dict(graph)) == graph
        # the bytes too: key order, and no empty ramification list
        for path in sorted(FIXTURES.glob("*.json")):
            with open(path, encoding="utf-8") as handle:
                expected = json.dumps(json.load(handle))
            assert json.dumps(graph_to_dict(load_graph(path))) == expected

    def test_every_shape_fault_names_its_location(self):
        # each check raises GraphFormatError where it finds the fault and
        # no boundary converts it, so this is the test that stops a text
        # without its location from escaping
        located = r"^(top level|components\[\d+\]|nodes\[\d+\])[.:]"
        sources = {path.stem: json.loads(path.read_text(encoding="utf-8"))
                   for path in sorted(FIXTURES.glob("*.json"))}
        faults = 0
        for source in sources.values():
            for seed in range(300):
                document = mutate_document(source, random.Random(seed))
                try:
                    graph_from_dict(document)
                except GraphFormatError as fault:
                    assert re.match(located, str(fault)), str(fault)
                    faults += 1
        assert faults > 1000
        for document in misplaced_documents(sources["elliptic_tail"]).values():
            with pytest.raises(GraphFormatError, match=located):
                graph_from_dict(document)


def reference_load(path):
    """Reference: the whole document decoded into dicts first, then
    graph_from_dict, with load_graph's documented errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise GraphFormatError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError(f"JSON nested too deeply: {exc}") from exc
    except ValueError as exc:
        raise GraphFormatError(f"unreadable JSON number: {exc}") from exc
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc}") from exc
    return graph_from_dict(data)


def evaluation(graph):
    """Reference: what evaluate finds for `graph`, from the functions that
    walk a graph."""
    divisor = branch_divisor(graph)
    return stablemap.Evaluation(
        graph.target_genus, total_degree(graph), arithmetic_genus(graph),
        divisor, sum(divisor.values()), riemann_hurwitz_degree(graph))


def reference_evaluation(path):
    """Reference: what evaluate finds for the graph reference_load reads."""
    return evaluation(reference_load(path))


def load_outcome(load, path):
    """The graph `load` returns, or the type and text of what it raised."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def nested_document(depth, repeated=False):
    """A document whose only component has `depth` nested empty lists as
    its genus: a genus fault, or too deep for the parser. With `repeated`,
    a genus of 0 follows, which JSON keeps: a valid graph, or too deep."""
    return ('{"target_genus": 0, "components": [{"kind": "dominant", '
            '"id": "A", "genus": ' + "[" * depth + "]" * depth
            + (', "genus": 0' if repeated else '') + ', "degree": 1}]}')


class TestLoadGraph:
    """load_graph streams a document in the documented order and decodes
    any other into dicts first, the reference way; both must give the
    reference's graph or error."""

    def test_valid_documents_are_decoded_once(self, tmp_path, monkeypatch):
        # every fixture and 100 random graphs, each equal to the reference
        # load. A valid document in the documented order is parsed as it
        # is read: the decode into a dict tree, and graph_from_dict on it,
        # are for other documents
        rng = random.Random(1919)
        graphs = {path: reference_load(path)
                  for path in sorted(FIXTURES.glob("*.json"))}
        for k in range(100):
            path = tmp_path / f"graph-{k}.json"
            graphs[path] = random_valid_graph(rng)
            path.write_text(json.dumps(graph_to_dict(graphs[path])),
                            encoding="utf-8")
            assert reference_load(path) == graphs[path], path.name

        def second_decode(*args):
            raise AssertionError("a valid document was decoded whole")

        monkeypatch.setattr(stablemap, "_plain", second_decode)
        monkeypatch.setattr(stablemap, "graph_from_dict", second_decode)
        for path, graph in graphs.items():
            assert load_graph(path) == graph, path.name

    def test_mutations_of_every_fixture(self, tmp_path):
        path = tmp_path / "mutation.json"
        loaded = Counter()
        for name in ("elliptic_tail", "identity_map", "unstable_tail"):
            source = json.loads(
                (FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
            for seed in range(300):
                path.write_text(json.dumps(mutate_document(
                    source, random.Random(seed))), encoding="utf-8")
                got = load_outcome(load_graph, path)
                assert got == load_outcome(reference_load, path), seed
                loaded[isinstance(got, StableMapGraph)] += 1
        assert min(loaded.values()) > 50

    def test_misplaced_objects(self, tmp_path):
        # each moved object sits where it does not belong, which the
        # stream refuses; the fault is named by where it sits
        path = tmp_path / "misplaced.json"
        source = json.loads(
            (FIXTURES / "elliptic_tail.json").read_text(encoding="utf-8"))
        for moved, document in misplaced_documents(source).items():
            path.write_text(json.dumps(document), encoding="utf-8")
            got = load_outcome(load_graph, path)
            assert got == load_outcome(reference_load, path), moved
            assert got[0] is GraphFormatError

    def test_unreadable_files(self, tmp_path):
        (tmp_path / "noise.json").write_bytes(b"\xff\xfe\x00\x9c" * 64)
        (tmp_path / "broken.json").write_text('{"target_genus": 0, "comp',
                                              encoding="utf-8")
        (tmp_path / "huge.json").write_text(
            '{"target_genus": ' + "9" * (sys.get_int_max_str_digits() + 1)
            + "}", encoding="utf-8")
        (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
        for name in ("missing.json", "noise.json", "broken.json",
                     "huge.json", "deep.json", ""):
            path = tmp_path / name  # "" names the directory itself
            got = load_outcome(load_graph, path)
            assert got == load_outcome(reference_load, path), name
            assert got[0] is GraphFormatError

    def test_missing_file_is_a_format_error(self, tmp_path):
        # every unreadable input is one exception type, worded here; the
        # OS error stays as its cause
        path = tmp_path / "nope.json"
        with pytest.raises(GraphFormatError) as raised:
            load_graph(path)
        assert str(raised.value) == f"no such file: {path}"
        assert isinstance(raised.value.__cause__, FileNotFoundError)

    def test_nesting_boundary(self, tmp_path):
        # the depth at which the parser runs out of stack depends on the
        # frames below it, so a second decode from another frame would
        # move it. Run in a thread, whose stack starts nearly empty, the
        # boundary lies inside this window on Python 3.11; from 3.12 the
        # parser has a limit of its own, above it. evaluate scans a record
        # alone, nearer the start of the stack than the whole text, so
        # the nesting under a repeated key must send it to the whole text
        limit = sys.getrecursionlimit()
        paths = []
        for depth in range(limit - 45, limit + 6):
            for repeated in (False, True):
                paths.append(tmp_path / f"deep-{depth}-{repeated}.json")
                paths[-1].write_text(nested_document(depth, repeated),
                                     encoding="utf-8")
        results = []
        thread = threading.Thread(target=lambda: results.extend(
            (load_outcome(load_graph, path),
             load_outcome(reference_load, path),
             load_outcome(stablemap.evaluate, path)) for path in paths))
        thread.start()
        thread.join()
        assert len(results) == len(paths)
        for path, (got, expected, evaluated) in zip(paths, results):
            assert got == expected, path.name
            if isinstance(expected, StableMapGraph):
                expected = evaluation(expected)
            assert evaluated == expected, path.name
        texts = {got[1].split(":")[0] for got, _, _ in results
                 if type(got) is tuple}
        assert "components[0]" in texts
        assert any(isinstance(got, StableMapGraph) for got, _, _ in results)
        if sys.version_info < (3, 12):
            assert "JSON nested too deeply" in texts

    def test_fifo_reads_as_a_file(self, capsys, tmp_path, monkeypatch):
        # a FIFO gives its bytes to one reader once, so the load, and the
        # CLI's evaluation, must read it once to give the file's graph or
        # error, and a valid one streams its text without decoding it
        # whole. A second open would wait for a writer that never comes:
        # the reader runs in a thread too, and a test that fails leaves it
        # waiting
        source = (FIXTURES / "elliptic_tail.json").read_text(encoding="utf-8")
        faulty = json.loads(source)
        faulty["components"][-1]["genus"] = "1"
        documents = {
            "valid": source.encode(),
            "shape fault": json.dumps(faulty).encode(),
            "broken JSON": b'{"target_genus": 0, "comp',
            "not UTF-8": b"\xff\xfe\x00\x9c" * 64,
            "valid, target genus last": json.dumps({
                key: json.loads(source)[key]
                for key in ("components", "nodes", "target_genus")}).encode(),
        }
        path, fifo = tmp_path / "graph.json", tmp_path / "graph.fifo"
        os.mkfifo(fifo)

        def through_fifo(read, data):
            got = []
            threads = [threading.Thread(target=fifo.write_bytes, args=(data,),
                                        daemon=True),
                       threading.Thread(target=lambda: got.append(read(fifo)),
                                        daemon=True)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            return got

        def cli(name):
            code = main(["branch-divisor", "--input", str(name)])
            return code, capsys.readouterr().out

        decoded = []

        def plain(text):  # the whole-text decode, counted
            decoded.append(len(text))
            return json.loads(text)

        monkeypatch.setattr(stablemap, "_plain", plain)
        for name, data in documents.items():
            path.write_bytes(data)
            decoded.clear()
            got = through_fifo(lambda name: load_outcome(load_graph, name),
                               data)
            piped = through_fifo(cli, data)
            # a pipe's text in the documented order is streamed from memory
            assert decoded == [] or name != "valid", name
            assert got == [load_outcome(load_graph, path)], name
            assert isinstance(got[0], StableMapGraph) == \
                name.startswith("valid")
            assert piped == [cli(path)], name

    def test_peak_memory_is_below_a_bare_decode(self, tmp_path):
        # the union's dict tree outweighs its graph, and streamed, the
        # graph never needs the tree, nor the text, beside it
        union, path = union_document(tmp_path)

        def decode():
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)

        assert load_graph(path) == union
        assert traced_peak(lambda: load_graph(path)) < traced_peak(decode)

    def test_fault_path_peak_memory(self, tmp_path):
        # a fault near the end of the document is found late in the
        # streamed read, whose records are dropped before the text is
        # read whole, and the text is gone before graph_from_dict builds
        # the graph beside the tree
        _, path = union_document(tmp_path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["nodes"][-1]["image"] = ""
        path.write_text(json.dumps(data), encoding="utf-8")
        del data
        got = load_outcome(load_graph, path)
        assert got == load_outcome(reference_load, path)
        assert got[0] is GraphFormatError and got[1].startswith("nodes[")
        # measured with the collector off, as the CLI runs: its passes, at
        # no fixed point, move each peak by a few percent
        collecting = gc.isenabled()
        gc.disable()
        try:
            load = traced_peak(lambda: load_outcome(load_graph, path))
            reference = traced_peak(lambda: load_outcome(reference_load,
                                                         path))
        finally:
            if collecting:
                gc.enable()
        assert load <= 1.1 * reference, (load, reference)

    def test_cli_never_holds_the_graph(self, capsys, tmp_path):
        # branch-divisor folds each component and node as it decodes and
        # keeps state per component id, never the graph. Peaks measured
        # with the collector off, as the CLI runs, after one call of each
        # has loaded every module and cache it uses
        union, path = union_document(tmp_path, connected=True)
        assert validate(union) == []
        argv = ["branch-divisor", "--input", str(path)]
        collecting = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            load_graph(path)
            cli = traced_peak(lambda: main(argv))
            load = traced_peak(lambda: load_graph(path))
        finally:
            if collecting:
                gc.enable()
        capsys.readouterr()
        assert cli <= 0.75 * load, (cli, load)

    def test_cli_never_holds_the_text(self, capsys, tmp_path):
        # a regular file is read a window at a time, each record folded as
        # it is scanned, so branch-divisor peaks below the text of the
        # document read whole, with the bytes that decode to it
        _, path = union_document(tmp_path, connected=True)
        argv = ["branch-divisor", "--input", str(path)]

        def read():
            with open(path, encoding="utf-8") as handle:
                return handle.read()

        collecting = gc.isenabled()
        gc.disable()
        try:
            assert main(argv) == 0
            cli = traced_peak(lambda: main(argv))
            text = traced_peak(read)
        finally:
            if collecting:
                gc.enable()
        capsys.readouterr()
        assert cli < 0.75 * text, (cli, text)

    def test_window_edges_change_nothing(self, tmp_path, monkeypatch):
        # load_graph and evaluate read a regular file a few characters at
        # a time here, so a window's edge cuts every key, number and record
        # somewhere. Every document in the documented order, in each
        # rendering, is passed on as it is read, never decoded whole: it
        # loads as the reference's graph, and evaluates as that graph does
        rng = random.Random(4343)
        sources = [json.loads(path.read_text(encoding="utf-8"))
                   for path in sorted(FIXTURES.glob("*.json"))]
        sources += [graph_to_dict(random_valid_graph(rng))
                    for _ in range(100)]
        renderings = [(json.dumps, "\n"),
                      (lambda data: json.dumps(data, indent=1), "\n"),
                      (lambda data: json.dumps(data, indent=1), "\r\n")]
        paths = {}
        for k, data in enumerate(sources):
            for r, (render, newline) in enumerate(renderings):
                path = tmp_path / f"graph-{k}-{r}.json"
                path.write_text(render(data), encoding="utf-8",
                                newline=newline)
                paths[path] = (reference_load(path),
                               load_outcome(reference_evaluation, path))
        # a target genus of 25 digits, which the edges cut in every place
        genus = 10 ** 24 + 12345
        path = tmp_path / "long-genus.json"
        graph = StableMapGraph(genus, (DominantComponent("A", genus, 1),), ())
        path.write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")
        paths[path] = graph, stablemap.Evaluation(genus, 1, genus, {}, 0, 0)
        assert load_outcome(reference_load, path) == graph
        assert load_outcome(reference_evaluation, path) == paths[path][1]

        def whole_text(*args):
            raise AssertionError("a streamed document was read whole")

        monkeypatch.setattr(stablemap, "_plain", whole_text)
        for window in (1, 3, 7):
            monkeypatch.setattr(stablemap, "_WINDOW", window)
            for path, (graph, expected) in paths.items():
                assert load_graph(path) == graph, (window, path.name)
                got = load_outcome(stablemap.evaluate, path)
                assert got == expected, (window, path.name)

    @pytest.mark.parametrize("change", [
        lambda text: "\ufeff" + text,
        lambda text: text + " x",
        lambda text: text + "\n{}",
        lambda text: text + " \r\n\t",
        lambda text: text.replace('"target_genus": 0', '"target_genus": 00'),
        lambda text: text.replace('"target_genus": 0',
                                  '"target_genus": 5, "target_genus": 0'),
        lambda text: text.replace('"nodes": ', '"nodes": [], "nodes": '),
        lambda text: text.replace('"nodes": ', '"components": [], "nodes": '),
        lambda text: text.replace(", \"nodes\": []", ""),
        lambda text: text.replace("[{", "[ \n{").replace("}]", "}\n ]"),
    ], ids=["bom", "trailing-data", "second-document", "trailing-space",
            "leading-zero", "repeated-target-genus", "repeated-nodes", "repeated-components",
            "no-nodes", "spaced-lists"])
    def test_irregular_documents_read_as_the_reference(self, tmp_path,
                                                        monkeypatch, change):
        # what the streamed reader does not take is read whole, from the
        # start again, after it has folded some or all of the records.
        # Windows of 1 to 32 characters move the edges through the
        # document's end, where a fault can lie beyond the text read so far
        path = tmp_path / "changed.json"
        for source in ("elliptic_tail", "identity_map"):
            data = json.loads(
                (FIXTURES / f"{source}.json").read_text(encoding="utf-8"))
            path.write_text(change(json.dumps(data)), encoding="utf-8")
            expected = load_outcome(reference_evaluation, path)
            for window in (*range(1, 33), 1 << 16):
                monkeypatch.setattr(stablemap, "_WINDOW", window)
                assert load_outcome(stablemap.evaluate, path) == expected, \
                    (source, window)

    def test_a_refused_file_is_not_read_to_its_end(self, tmp_path,
                                                   monkeypatch):
        # the streamed attempt gives up where it fails well inside the text
        # read so far: after its first window on a document with its
        # components first, and on one whose first record is not JSON.
        # Each is then read whole and loads as the reference's
        _, path = union_document(tmp_path, connected=True)
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        first, faulty = tmp_path / "first.json", tmp_path / "faulty.json"
        first.write_text(json.dumps({key: data[key] for key in (
            "components", "target_genus", "nodes")}), encoding="utf-8")
        faulty.write_text(text.replace('"genus": ', '"genus" ', 1),
                          encoding="utf-8")
        counted = []

        class Window(stablemap._Window):
            def __init__(self, read, text=""):
                def counting(*size):
                    window = read(*size)
                    counted.append(len(window))
                    return window
                super().__init__(counting, text)

        monkeypatch.setattr(stablemap, "_Window", Window)
        for path in (first, faulty):
            size = len(path.read_text(encoding="utf-8"))
            assert size > 4 * stablemap._WINDOW
            for load, reference in ((load_graph, reference_load),
                                    (stablemap.evaluate,
                                     reference_evaluation)):
                counted.clear()
                got = load_outcome(load, path)
                assert got == load_outcome(reference, path), path.name
                assert sum(counted) == stablemap._WINDOW, (path.name,
                                                           counted)

    @pytest.mark.parametrize("name, change, code", [
        ("collision_limit", None, 0),
        # two rules: stability, and Riemann-Hurwitz, which waits for the
        # target genus
        ("unstable_tail", lambda d: d.update(target_genus=1), 2),
        # a node's fault is read first when the nodes come first; the
        # component's is named
        ("elliptic_tail", lambda d: d["nodes"][0].update(image="")
         or d["components"][1].update(genus="1"), 2),
    ], ids=["valid", "violations", "format-fault"])
    def test_key_order_changes_no_byte(self, capsys, tmp_path, name, change,
                                       code):
        # another order is decoded into dicts, and the graph built from
        # them is folded in the documented order: components, then nodes
        data = json.loads(
            (FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
        if change:
            change(data)
        outputs = set()
        for order in (("target_genus", "components", "nodes"),
                      ("components", "nodes", "target_genus"),
                      ("nodes", "components", "target_genus")):
            path = tmp_path / ("-".join(order) + ".json")
            path.write_text(json.dumps({key: data[key] for key in order}),
                            encoding="utf-8")
            outputs.add((main(["branch-divisor", "--input", str(path)]),
                         capsys.readouterr().out))
        assert len(outputs) == 1
        assert outputs.pop()[0] == code

    @pytest.mark.parametrize("key, value", [
        ("target_genus", '{"kind": "dominant", "id": "X", "genus": 0, '
                         '"degree": 1}'),
        ("components", '[{"kind": "dominant", "id": "X", "genus": 0, '
                       '"degree": 1}]'),
        ("nodes", '[{"branches": ["A", "X"], "image": "r"}]'),
        # a replaced record that fails to parse sends the document to the
        # whole-text path, whose dict tree holds the graph
        ("target_genus", '{"kind": "dominant"}'),
    ], ids=["target-genus", "components", "nodes", "faulty-record"])
    def test_a_replaced_record_is_not_folded(self, capsys, tmp_path, key,
                                            value):
        # json keeps the last value of a repeated key, so a record that
        # decoded in the value it replaced is no part of the graph
        source = FIXTURES / "elliptic_tail.json"
        path = tmp_path / "repeated.json"
        path.write_text(source.read_text(encoding="utf-8").replace(
            f'"{key}": ', f'"{key}": {value}, "{key}": ', 1),
            encoding="utf-8")
        outputs = [(main(["branch-divisor", "--input", str(name)]),
                    capsys.readouterr().out) for name in (path, source)]
        assert outputs[0] == outputs[1]

    def test_retained_size_with_shared_labels(self, tmp_path):
        # the same graph with every label and profile a fresh object
        # weighs about twice what the load keeps
        union, path = union_document(tmp_path)
        graph, shared = traced_size(lambda: load_graph(path))
        copy, fresh = traced_size(lambda: unshared_copy(graph))
        assert graph == copy == union
        assert shared <= 0.7 * fresh, (shared, fresh)

    def test_labels_and_profiles_are_one_object_each(self, tmp_path):
        union, path = union_document(tmp_path)
        data = json.loads(path.read_text(encoding="utf-8"))
        for graph in (load_graph(path), graph_from_dict(data)):
            ids = {c.id: c.id for c in graph.components}
            assert all(cid is ids[cid]
                       for node in graph.nodes for cid in node.branches)
            labels, profiles = labels_and_profiles(graph)
            for values in (labels, profiles):
                distinct = {value: value for value in values}
                assert all(value is distinct[value] for value in values)
        # the union repeats its point labels and profiles many times
        assert len(labels) > 3 * len(set(labels))
        assert len(profiles) > 10 * len(set(profiles))

    def test_no_table_outlives_the_load(self, tmp_path):
        _, path = union_document(tmp_path)
        # the same graph with every id and point label renamed: the union's
        # ids all hold a ".", its point labels all start with "q", and no
        # key or kind has either
        other = tmp_path / "other.json"
        other.write_text(path.read_text(encoding="utf-8").replace(
            '"q', '"r').replace(".", ","), encoding="utf-8")
        tracemalloc.start()
        try:
            load_graph(other)  # fills the interpreter's free lists
            before = tracemalloc.get_traced_memory()[0]
            graph = load_graph(path)
            assert tracemalloc.get_traced_memory()[0] - before > 500_000
            del graph
            assert tracemalloc.get_traced_memory()[0] - before < 20_000
        finally:
            tracemalloc.stop()

    def test_str_subclass_labels(self):
        # a bare sys.intern raises TypeError on these; the parser accepts
        # them, as it accepts int subclasses, and builds an equal graph
        class Label(str):
            pass

        class Count(int):
            pass

        def subclassed(value):
            if isinstance(value, dict):
                return {key: subclassed(v) for key, v in value.items()}
            if isinstance(value, list):
                return [subclassed(v) for v in value]
            if isinstance(value, str):
                return Label(value)
            return Count(value)

        rng = random.Random(2020)
        for _ in range(50):
            data = graph_to_dict(random_valid_graph(rng))
            assert graph_from_dict(subclassed(data)) == graph_from_dict(data)


def union_document(tmp_path, connected=False):
    """The disjoint union of random graphs, about 2,500 components, with
    component ids made distinct and point labels left as drawn; the
    graph and the path of its JSON document. With `connected`, only
    graphs over the line are drawn, and a node over "join" ties a
    dominant component of each to one of the first: a valid graph."""
    rng = random.Random(2500)
    components, nodes = [], []
    while len(components) < 2500:
        graph, k = random_valid_graph(rng), len(components)
        if connected and graph.target_genus:
            continue
        components += [c._replace(id=f"{c.id}.{k}")
                       for c in graph.components]
        nodes += [n._replace(branches=tuple(f"{b}.{k}"
                                            for b in n.branches))
                  for n in graph.nodes]
        if connected and k:
            hub, spoke = (next(c.id for c in comps
                               if isinstance(c, DominantComponent))
                          for comps in (components, components[k:]))
            nodes.append(Node((hub, spoke), "join"))
    union = StableMapGraph(0, tuple(components), tuple(nodes))
    path = tmp_path / "union.json"
    path.write_text(json.dumps(graph_to_dict(union)), encoding="utf-8")
    return union, path


def traced_size(call):
    """What call() returns, and the memory its allocations still hold."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def traced_peak(call):
    """The peak of the memory traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unshared_copy(graph):
    """An equal graph in which every label and profile is a new object
    (a one-character label is the interpreter's own either way)."""
    def fresh(label):
        return (label + " ")[:-1]

    components = []
    for comp in graph.components:
        if isinstance(comp, DominantComponent):
            components.append(comp._replace(
                id=fresh(comp.id), ramification=tuple(
                    (fresh(point), tuple(list(profile)))
                    for point, profile in comp.ramification)))
        else:
            components.append(comp._replace(id=fresh(comp.id),
                                            image=fresh(comp.image)))
    return StableMapGraph(graph.target_genus, tuple(components), tuple(
        Node(tuple(map(fresh, node.branches)), fresh(node.image))
        for node in graph.nodes))


def labels_and_profiles(graph):
    """Every label in the graph, and every profile, one per occurrence."""
    labels, profiles = [], []
    for comp in graph.components:
        labels.append(comp.id)
        if isinstance(comp, DominantComponent):
            for point, profile in comp.ramification:
                labels.append(point)
                profiles.append(profile)
        else:
            labels.append(comp.image)
    for node in graph.nodes:
        labels += [*node.branches, node.image]
    return labels, profiles


def edited(change):
    """The elliptic-tail document (dominant A with points q1 and q2,
    contracted B, one node) after change(document)."""
    data = graph_to_dict(two_sheets(tail_genus=1))
    change(data)
    return data


def dominant(data):
    return data["components"][0]


def contracted(data):
    return data["components"][1]


def entry(data):
    return data["components"][0]["ramification"][1]


def node(data):
    return data["nodes"][0]


PROFILE = "field 'profile' must be a nonempty list of integers"
PAIR = "field 'branches' must be a pair of component ids"

FORMAT_ERRORS = [
    ([], "top level: expected an object"),
    (edited(lambda d: d.update(extra=1)), "top level: unknown field 'extra'"),
    (edited(lambda d: d.pop("target_genus")),
     "top level: missing field 'target_genus'"),
    (edited(lambda d: d.update(target_genus=True)),
     "top level: field 'target_genus' must be an integer"),
    (edited(lambda d: d.pop("components")),
     "top level: missing field 'components'"),
    (edited(lambda d: d.update(components={})),
     "top level: field 'components' must be a list"),
    (edited(lambda d: d.update(nodes=None)),
     "top level: field 'nodes' must be a list"),
    (edited(lambda d: d["components"].append("C")),
     "components[2]: expected an object"),
    (edited(lambda d: dominant(d).pop("kind")),
     "components[0]: missing field 'kind'"),
    (edited(lambda d: dominant(d).update(kind="")),
     "components[0]: field 'kind' must be a nonempty string"),
    (edited(lambda d: contracted(d).pop("id")),
     "components[1]: missing field 'id'"),
    (edited(lambda d: contracted(d).update(id=7)),
     "components[1]: field 'id' must be a nonempty string"),
    (edited(lambda d: dominant(d).pop("genus")),
     "components[0]: missing field 'genus'"),
    (edited(lambda d: contracted(d).update(genus=1.0)),
     "components[1]: field 'genus' must be an integer"),
    (edited(lambda d: dominant(d).update(kind="smooth")),
     "components[0]: kind must be 'dominant' or 'contracted', not 'smooth'"),
    (edited(lambda d: dominant(d).update(image="p")),
     "components[0]: unknown field 'image'"),
    (edited(lambda d: dominant(d).pop("degree")),
     "components[0]: missing field 'degree'"),
    (edited(lambda d: dominant(d).update(degree="2")),
     "components[0]: field 'degree' must be an integer"),
    (edited(lambda d: dominant(d).update(ramification={})),
     "components[0]: field 'ramification' must be a list"),
    (edited(lambda d: contracted(d).update(degree=1)),
     "components[1]: unknown field 'degree'"),
    (edited(lambda d: contracted(d).pop("image")),
     "components[1]: missing field 'image'"),
    (edited(lambda d: contracted(d).update(image=["p"])),
     "components[1]: field 'image' must be a nonempty string"),
    (edited(lambda d: dominant(d)["ramification"].append(None)),
     "components[0].ramification[2]: expected an object"),
    (edited(lambda d: entry(d).update(sheets=2)),
     "components[0].ramification[1]: unknown field 'sheets'"),
    (edited(lambda d: entry(d).pop("point")),
     "components[0].ramification[1]: missing field 'point'"),
    (edited(lambda d: entry(d).update(point=None)),
     "components[0].ramification[1]: field 'point' must be a nonempty "
     "string"),
    (edited(lambda d: entry(d).pop("profile")),
     "components[0].ramification[1]: missing field 'profile'"),
    (edited(lambda d: entry(d).update(profile=[])),
     f"components[0].ramification[1]: {PROFILE}"),
    (edited(lambda d: entry(d).update(profile=[True])),
     f"components[0].ramification[1]: {PROFILE}"),
    (edited(lambda d: entry(d).update(profile=(2,))),
     f"components[0].ramification[1]: {PROFILE}"),
    (edited(lambda d: d["nodes"].append([])), "nodes[1]: expected an object"),
    (edited(lambda d: node(d).update(weight=1)),
     "nodes[0]: unknown field 'weight'"),
    (edited(lambda d: node(d).pop("branches")),
     "nodes[0]: missing field 'branches'"),
    (edited(lambda d: node(d).update(branches=["A", "B", "A"])),
     f"nodes[0]: {PAIR}"),
    (edited(lambda d: node(d).update(branches=["A", ""])),
     f"nodes[0]: {PAIR}"),
    (edited(lambda d: node(d).update(branches=("A", "B"))),
     f"nodes[0]: {PAIR}"),
    (edited(lambda d: node(d).pop("image")),
     "nodes[0]: missing field 'image'"),
    (edited(lambda d: node(d).update(image=0)),
     "nodes[0]: field 'image' must be a nonempty string"),
]

# documents with several faults: the first in document order is named,
# and within one object the checks run in a fixed order
FIRST_FAULTS = [
    # top-level keys before any field
    (edited(lambda d: d.update(components=3, zz=1)),
     "top level: unknown field 'zz'"),
    # the first unknown key in document order, not in sorted order
    ({"target_genus": 0, "b": 1, "a": 2, "components": []},
     "top level: unknown field 'b'"),
    (edited(lambda d: d.update(target_genus=None) or d.pop("components")),
     "top level: field 'target_genus' must be an integer"),
    (edited(lambda d: d.update(components={}, nodes={})),
     "top level: field 'components' must be a list"),
    # components before nodes, even when "nodes" comes first
    ({"target_genus": 0, "nodes": [{}], "components": [{}]},
     "components[0]: missing field 'kind'"),
    (edited(lambda d: d["components"].extend([{"kind": 1}, 2])),
     "components[2]: field 'kind' must be a nonempty string"),
    # kind, id and genus before the kind's verdict and its key check
    (edited(lambda d: dominant(d).update(kind="mystery", extra=1,
                                         genus="0")),
     "components[0]: field 'genus' must be an integer"),
    (edited(lambda d: dominant(d).update(kind="mystery", extra=1)),
     "components[0]: kind must be 'dominant' or 'contracted', not "
     "'mystery'"),
    # keys before degree, degree before ramification
    (edited(lambda d: dominant(d).update(extra=1, degree=None)),
     "components[0]: unknown field 'extra'"),
    (edited(lambda d: dominant(d).update(degree=None, ramification=1)),
     "components[0]: field 'degree' must be an integer"),
    (edited(lambda d: contracted(d).update(extra=1, image=None)),
     "components[1]: unknown field 'extra'"),
    # the first bad entry, and keys before point before profile
    (edited(lambda d: dominant(d).update(ramification=[
        {"point": "q"}, {"point": ""}])),
     "components[0].ramification[0]: missing field 'profile'"),
    (edited(lambda d: entry(d).update(extra=1) or entry(d).pop("point")),
     "components[0].ramification[1]: unknown field 'extra'"),
    (edited(lambda d: entry(d).update(point="", profile=None)),
     "components[0].ramification[1]: field 'point' must be a nonempty "
     "string"),
    # the first bad node; keys before branches before image
    (edited(lambda d: d["nodes"].extend([{"image": "p"}, 3])),
     "nodes[1]: missing field 'branches'"),
    (edited(lambda d: node(d).update(extra=1) or node(d).pop("branches")),
     "nodes[0]: unknown field 'extra'"),
    (edited(lambda d: node(d).update(branches=["A"], image=None)),
     f"nodes[0]: {PAIR}"),
]


# a bool or a float is not an integer, an empty string is not a nonempty
# string, and a bool is not a list (kept after the lists above, whose
# parameter ids are numbered by position)
TYPE_RULES = [
    (edited(lambda d: dominant(d).update(genus=True)),
     "components[0]: field 'genus' must be an integer"),
    (edited(lambda d: dominant(d).update(degree=False)),
     "components[0]: field 'degree' must be an integer"),
    (edited(lambda d: contracted(d).update(id="")),
     "components[1]: field 'id' must be a nonempty string"),
    (edited(lambda d: contracted(d).update(image="")),
     "components[1]: field 'image' must be a nonempty string"),
    (edited(lambda d: entry(d).update(point="")),
     "components[0].ramification[1]: field 'point' must be a nonempty "
     "string"),
    (edited(lambda d: node(d).update(image="")),
     "nodes[0]: field 'image' must be a nonempty string"),
    (edited(lambda d: d.update(components=False)),
     "top level: field 'components' must be a list"),
    (edited(lambda d: d.update(nodes=True)),
     "top level: field 'nodes' must be a list"),
    (edited(lambda d: dominant(d).update(ramification=False)),
     "components[0]: field 'ramification' must be a list"),
    (edited(lambda d: entry(d).update(profile=[2.0])),
     f"components[0].ramification[1]: {PROFILE}"),
]


@pytest.mark.parametrize("data, message",
                         FORMAT_ERRORS + FIRST_FAULTS + TYPE_RULES)
def test_format_errors_are_worded_exactly(data, message):
    with pytest.raises(GraphFormatError) as info:
        graph_from_dict(data)
    assert str(info.value) == message


class TestRandomizedStructure:
    @pytest.mark.parametrize("graph, message", [
        (StableMapGraph(0, (ContractedComponent("B", 1, "p"),), ()),
         OUT_OF_DOMAIN),
        (StableMapGraph(2, (DominantComponent("A", 0, 1),), ()), NO_COVER),
    ], ids=["no-dominant-component", "negative-count"])
    def test_degree_law_outside_its_domain(self, graph, message):
        # connected, so arithmetic_genus answers; branch_count refuses,
        # with the text its own table pins
        arithmetic_genus(graph)
        with pytest.raises(ValueError) as info:
            riemann_hurwitz_degree(graph)
        assert str(info.value) == message

    def test_breaking_a_profile_invalidates(self):
        rng = random.Random(2211)
        seen = 0
        for _ in range(40):
            graph = random_valid_graph(rng)
            victim = next(
                (c for c in graph.components
                 if isinstance(c, DominantComponent) and c.ramification),
                None,
            )
            if victim is None:
                continue
            seen += 1
            point, profile = victim.ramification[0]
            tampered = DominantComponent(
                id=victim.id, genus=victim.genus, degree=victim.degree,
                ramification=((point, profile + (1,)),)
                + victim.ramification[1:],
            )
            mutated = StableMapGraph(
                target_genus=graph.target_genus,
                components=tuple(
                    tampered if c.id == victim.id else c
                    for c in graph.components
                ),
                nodes=graph.nodes,
            )
            assert validate(mutated) != []
        assert seen > 10
