"""Stable-map graphs: validation, genus, branch divisors, and the JSON
format. The degree law and effectivity on random graphs, the refusal to
evaluate the unstable fixture, and continuity under collision are
criteria 7, 8 and 10 of test_acceptance.py; the arithmetic genus is
checked there, in the law, and against the formula of the reader
tests' reference `evaluation`.

Every check lives in one table, one reference comparison or the golden
file. Each rule's exact wording is pinned in one table: every validity
violation in `TestValidation::test_single_violations_are_worded_exactly`
and `::test_violations_come_in_rule_order`, every format fault in
`FORMAT_ERRORS`, `FIRST_FAULTS` and `TYPE_RULES`, and every input that
cannot be read, a missing file among them, in
`TestLoadGraph::test_unreadable_files`. A document the stream must read
as the reference does (a repeated key, data around the document) is a
row of the reader table,
`TestLoadGraph::test_irregular_documents_read_as_the_reference`; the
three key orders are `TestLoadGraph::test_key_order_changes_no_byte`,
the streamed read in every window `::test_window_edges_change_nothing`,
a pipe read as a file `::test_fifo_reads_as_a_file`, and the streamed
CLI's memory `::test_cli_never_holds_the_text`.
The divisor of every fixture and of random valid graphs is compared
with a reference, zero coefficients dropped, in
`TestBranchDivisor::test_matches_the_reference_on_valid_graphs`, and
the violations of valid, perturbed and mutated graphs with graphgen's
`reference_violations` in `::test_raises_exactly_when_validate_objects`;
the same walk guards the generated graphs, so no package rule vouches
for the test's own inputs. The refusal of a disconnected graph and of
a degree outside the law's domain is a row of
`TestRandomizedStructure::test_degree_law_outside_its_domain`. The CLI
output of each fixture, and of its seeded mutations and misplaced
documents, is stored line by line in tests/golden_outputs.json, whose
runs test_golden.py also holds to a documented exit. A new case is one
more row or input there, not a new test.
"""

import gc
import json
import os
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from graphgen import (
    connected_by_search,
    graph_to_dict,
    map_degree,
    misplaced_documents,
    mutate_document,
    random_valid_graph,
    reference_violations,
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
    validate,
)
from make_golden import run
from test_routes import NO_COVER, OUT_OF_DOMAIN

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def fixture(name):
    """The document docs/fixtures/<name>.json, decoded."""
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


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
    def test_riemann_hurwitz_failure_prints_in_full(self, tmp_path,
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
        code, out, *_ = run(["branch-divisor", "--input", str(path)])
        assert code == 2
        assert json.loads(out)["violations"] == problems

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
        source = fixture("elliptic_tail")
        for seed in range(300):
            try:
                graphs.append(graph_from_dict(
                    mutate_document(source, random.Random(seed))))
            except GraphFormatError:
                pass
        verdicts = Counter()
        for graph in graphs:
            violations = validate(graph)
            assert violations == reference_violations(graph)
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
            assert json.dumps(graph_to_dict(load_graph(path))) == \
                json.dumps(fixture(path.stem))

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
    """Reference: what evaluate finds for `graph`, from walks of its own:
    InvalidGraphError with reference_violations where there are any, else
    the map degree, the genus by its formula, reference_divisor and the
    degree law 2g - 2 - d(2h - 2)."""
    violations = reference_violations(graph)
    if violations:
        raise InvalidGraphError(violations)
    genus = sum(c.genus - 1 for c in graph.components) + len(graph.nodes) + 1
    degree, divisor = map_degree(graph), reference_divisor(graph)
    return stablemap.Evaluation(
        graph.target_genus, degree, genus, divisor, sum(divisor.values()),
        2 * genus - 2 - degree * (2 * graph.target_genus - 2))


def reference_evaluation(path):
    """Reference: what evaluate finds for the graph reference_load reads."""
    return evaluation(reference_load(path))


def load_outcome(load, path):
    """What `load` returns, or the type and text of what it raised and
    the type of its cause."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)


def replaced(key, value):
    """The change that gives the first `key` the value `value` and then
    its own, which JSON keeps."""
    return lambda text: text.replace(f'"{key}": ',
                                     f'"{key}": {value}, "{key}": ', 1)


def read_as_the_reference(tmp_path, documents):
    """Write each document (None: write nothing) and check that it loads,
    and evaluates, as the reference does: the same graph, evaluation or
    error, and the error's cause. The count of each outcome's type."""
    outcomes = Counter()
    for name, data in documents.items():
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data)
        got = load_outcome(load_graph, path)
        assert got == load_outcome(reference_load, path), name
        assert load_outcome(stablemap.evaluate, path) == \
            load_outcome(reference_evaluation, path), name
        outcomes[got[0] if type(got) is tuple else StableMapGraph] += 1
    return outcomes


def nested_document(depth, repeated=False):
    """A document whose only component has `depth` nested empty lists as
    its genus: a genus fault, or too deep for the parser. With `repeated`,
    a genus of 0 follows, which JSON keeps: a valid graph, or too deep."""
    return ('{"target_genus": 0, "components": [{"kind": "dominant", '
            '"id": "A", "genus": ' + "[" * depth + "]" * depth
            + (', "genus": 0' if repeated else '') + ', "degree": 1}]}')


class TestLoadGraph:
    """evaluate streams a document in the documented order and decodes
    any other into dicts first, the reference way, as load_graph decodes
    every document; evaluate must give the reference's evaluation or
    error, and load_graph the reference's graph or error."""

    @pytest.mark.parametrize("family", ["mutations", "misplaced"])
    def test_document_families_read_as_the_reference(self, tmp_path,
                                                     family):
        # the mutations of three fixtures give many graphs and many
        # errors; a moved object sits where the stream refuses it
        documents = {}
        if family == "mutations":
            for name in ("elliptic_tail", "identity_map", "unstable_tail"):
                source = fixture(name)
                for seed in range(300):
                    documents[f"{name}-{seed}.json"] = json.dumps(
                        mutate_document(source, random.Random(seed))).encode()
        else:
            documents = {f"{moved}.json": json.dumps(document).encode()
                         for moved, document in misplaced_documents(
                             fixture("elliptic_tail")).items()}
        outcomes = read_as_the_reference(tmp_path, documents)
        if family == "mutations":
            assert outcomes[StableMapGraph] > 50
            assert outcomes[GraphFormatError] > 50
        else:
            assert set(outcomes) == {GraphFormatError}

    def test_unreadable_files(self, tmp_path):
        # each input that cannot be read is a GraphFormatError, worded by
        # the reference
        text = union_document(tmp_path)[1].read_bytes()
        outcomes = read_as_the_reference(tmp_path, {
            "noise.json": b"\xff\xfe\x00\x9c" * 64,
            # past the first window, so the stream's read meets it first;
            # its position counts from the start of the file
            "late-noise.json": text[:150_000] + b"\xff" + text[150_000:],
            "broken.json": b'{"target_genus": 0, "comp',
            "huge.json": b'{"target_genus": %s}' % (
                b"9" * (sys.get_int_max_str_digits() + 1)),
            "deep.json": b"[" * 100_000,
            "missing.json": None,
            "": None,  # the directory itself
        })
        assert set(outcomes) == {GraphFormatError}

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
        # a FIFO gives its bytes to one reader once, so evaluate, and the
        # CLI, must read it once to give the file's evaluation or error,
        # and every fixture streams its text without decoding it whole. A
        # second open would wait for a writer that never comes:
        # the reader runs in a thread too, and a test that fails leaves it
        # waiting. The CLI reads a pipe, such as /dev/stdin, on this path
        source = fixture("elliptic_tail")
        faulty = fixture("elliptic_tail")
        faulty["components"][-1]["genus"] = "1"
        fixtures = {path.stem: path.read_bytes()
                    for path in sorted(FIXTURES.glob("*.json"))}
        documents = {
            **fixtures,
            "shape fault": json.dumps(faulty).encode(),
            "broken JSON": b'{"target_genus": 0, "comp',
            "not UTF-8": b"\xff\xfe\x00\x9c" * 64,
            "valid, target genus last": json.dumps({
                key: source[key]
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
            # main itself, not make_golden.run: a signal timer needs the
            # main thread
            code = main(["branch-divisor", "--input", str(name)])
            return code, capsys.readouterr().out

        decoded = []

        def plain(text):  # the whole-text decode, counted
            decoded.append(len(text))
            return json.loads(text)

        monkeypatch.setattr(stablemap, "_plain", plain)
        outcomes = Counter()
        for name, data in documents.items():
            path.write_bytes(data)
            decoded.clear()
            got = through_fifo(
                lambda name: load_outcome(stablemap.evaluate, name), data)
            piped = through_fifo(cli, data)
            # a pipe's text in the documented order is streamed from memory
            assert decoded == [] or name not in fixtures, name
            assert got == [load_outcome(stablemap.evaluate, path)], name
            assert piped == [cli(path)], name
            outcomes[got[0][0] if type(got[0]) is tuple else
                     stablemap.Evaluation] += 1
        assert outcomes == {stablemap.Evaluation: 4, InvalidGraphError: 1,
                            GraphFormatError: 3}

    def test_fault_path_peak_memory(self, tmp_path):
        # a fault near the end of the document is found late in
        # evaluate's streamed read, whose fold is dropped before the text
        # is read whole, and in both functions the text is gone before
        # graph_from_dict builds the graph beside the tree
        _, path = union_document(tmp_path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["nodes"][-1]["image"] = ""
        path.write_text(json.dumps(data), encoding="utf-8")
        del data
        reference = traced_peak(lambda: load_outcome(reference_load, path))
        got = load_outcome(reference_load, path)
        assert got[0] is GraphFormatError and got[1].startswith("nodes[")
        for load in (load_graph, stablemap.evaluate):
            assert load_outcome(load, path) == got, load.__name__
            peak = traced_peak(lambda: load_outcome(load, path))
            assert peak <= 1.1 * reference, (load.__name__, peak, reference)

    def test_cli_never_holds_the_text(self, tmp_path):
        # a regular file is read a window at a time, each record folded as
        # it is scanned, so branch-divisor peaks below the text of the
        # document read whole, with the bytes that decode to it, and so
        # below the dict tree and the graph, each larger than the text
        union, path = union_document(tmp_path, connected=True)
        assert reference_violations(union) == []
        assert stablemap.evaluate(path) == evaluation(union)
        argv = ["branch-divisor", "--input", str(path)]

        def read():
            with open(path, encoding="utf-8") as handle:
                return handle.read()

        assert run(argv)[0] == 0
        cli = traced_peak(lambda: run(argv))
        text = traced_peak(read)
        assert cli < 0.75 * text, (cli, text)

    def test_window_edges_change_nothing(self, tmp_path, monkeypatch):
        # evaluate reads a regular file a few characters at a time here,
        # so a window's edge cuts every key, number and record somewhere,
        # and then in its own windows. Every document in the documented
        # order, in each rendering, is folded as it is read, never decoded
        # whole nor built as a graph, and evaluates as the reference's
        # graph does
        rng = random.Random(4343)
        sources = [fixture(path.stem)
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
                paths[path] = load_outcome(reference_evaluation, path)
        # a target genus of 25 digits, which the edges cut in every place
        genus = 10 ** 24 + 12345
        path = tmp_path / "long-genus.json"
        graph = StableMapGraph(genus, (DominantComponent("A", genus, 1),), ())
        path.write_text(json.dumps(graph_to_dict(graph)), encoding="utf-8")
        paths[path] = stablemap.Evaluation(genus, 1, genus, {}, 0, 0)
        assert load_outcome(reference_evaluation, path) == paths[path]

        def whole_text(*args):
            raise AssertionError("a streamed document was read whole")

        monkeypatch.setattr(stablemap, "_plain", whole_text)
        monkeypatch.setattr(stablemap, "graph_from_dict", whole_text)
        for window in (1, 3, 7, 1 << 16):
            monkeypatch.setattr(stablemap, "_WINDOW", window)
            for path, expected in paths.items():
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
        lambda text: text.replace("}]", "},]", 1),
        # json keeps the last value of a repeated key, so a record in the
        # value it replaced is no part of the graph, though the stream may
        # have scanned it
        replaced("target_genus", '{"kind": "dominant", "id": "X", '
                                 '"genus": 0, "degree": 1}'),
        replaced("components", '[{"kind": "dominant", "id": "X", '
                               '"genus": 0, "degree": 1}]'),
        replaced("nodes", '[{"branches": ["A", "X"], "image": "r"}]'),
        replaced("target_genus", '{"kind": "dominant"}'),
    ], ids=["bom", "trailing-data", "second-document", "trailing-space",
            "leading-zero", "repeated-target-genus", "repeated-nodes", "repeated-components",
            "no-nodes", "spaced-lists", "trailing-comma",
            "replaced-target-genus", "replaced-components", "replaced-nodes",
            "replaced-faulty-record"])
    def test_irregular_documents_read_as_the_reference(self, tmp_path,
                                                        monkeypatch, change):
        # the reader table: what the streamed reader does not take is read
        # whole, from the start again, after it has folded some or all of
        # the records, and evaluates as the reference does. Its outcome is
        # what branch-divisor prints, so the CLI's bytes are the same too.
        # Windows of 1 to 32 characters move the edges through the
        # document's end, where a fault can lie beyond the text read so far
        path = tmp_path / "changed.json"
        for source in ("elliptic_tail", "identity_map"):
            data = fixture(source)
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
        # Each is then read whole and evaluates as the reference's graph
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
            counted.clear()
            got = load_outcome(stablemap.evaluate, path)
            assert got == load_outcome(reference_evaluation, path), path.name
            assert sum(counted) == stablemap._WINDOW, (path.name, counted)

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
    def test_key_order_changes_no_byte(self, tmp_path, name, change, code):
        # another order is decoded into dicts, and the graph built from
        # them is folded in the documented order: components, then nodes
        data = fixture(name)
        if change:
            change(data)
        outputs = set()
        for order in (("target_genus", "components", "nodes"),
                      ("components", "nodes", "target_genus"),
                      ("nodes", "components", "target_genus")):
            path = tmp_path / ("-".join(order) + ".json")
            path.write_text(json.dumps({key: data[key] for key in order}),
                            encoding="utf-8")
            outputs.add(run(["branch-divisor", "--input", str(path)])[:2])
        assert len(outputs) == 1
        assert outputs.pop()[0] == code

    def test_str_subclass_labels(self):
        # the exact-type tests refuse these, and the ordered checks then
        # accept them, as they accept int subclasses: an equal graph
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


def traced_peak(call):
    """The peak of the memory traced while call() runs, with the collector
    off, as the CLI runs: its passes, at no fixed point, move each peak by
    a few percent."""
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()


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
        (StableMapGraph(0, (DominantComponent("A", 0, 1),
                            DominantComponent("C", 0, 1)), ()),
         "dual graph is disconnected"),
    ], ids=["no-dominant-component", "negative-count", "disconnected"])
    def test_degree_law_outside_its_domain(self, graph, message):
        # a connected graph has a genus, and branch_count refuses its
        # degree with the text its own table pins; a disconnected graph
        # has no genus, and both refuse it
        if connected_by_search(graph):
            arithmetic_genus(graph)
        else:
            with pytest.raises(ValueError, match=message):
                arithmetic_genus(graph)
        with pytest.raises(ValueError) as info:
            riemann_hurwitz_degree(graph)
        assert str(info.value) == message
