"""Stable-map graphs: validation, genus, branch divisors, and the JSON
format. Randomized structure checks live at the end; the acceptance
suite reruns them at full volume.
"""

import json
import random
import sys
from collections import Counter, deque
from pathlib import Path

import pytest

from graphgen import mutate_document, random_valid_graph
from hurwitz.cli import main
from hurwitz.routes import branch_count
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
    graph_to_dict,
    load_graph,
    riemann_hurwitz_degree,
    total_degree,
    validate,
)

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
    def test_smooth_cover_is_valid(self):
        assert validate(two_sheets()) == []

    def test_elliptic_tail_is_valid(self):
        assert validate(two_sheets(tail_genus=1)) == []

    def test_rational_tail_is_unstable(self):
        problems = validate(two_sheets(tail_genus=0))
        assert len(problems) == 1
        assert "contracted genus-0" in problems[0]
        assert "'B'" in problems[0]

    def test_riemann_hurwitz_failure_is_reported(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(
                    id="A", genus=1, degree=2,
                    ramification=(("q1", (2,)), ("q2", (2,))),
                ),
            ),
            nodes=(),
        )
        problems = validate(graph)
        assert len(problems) == 1
        assert "Riemann-Hurwitz" in problems[0]

    @pytest.mark.parametrize("genus_field", ["genus", "target_genus"])
    def test_riemann_hurwitz_failure_prints_in_full(self, tmp_path,
                                                    genus_field):
        # the largest genus the JSON parser accepts; 2g-2 has one digit
        # more than str(int) converts by default
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

    def test_bad_profile_is_reported(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(
                    id="A", genus=0, degree=2,
                    ramification=(("q1", (3,)),),
                ),
            ),
            nodes=(),
        )
        assert any("not a partition of 2" in p for p in validate(graph))

    def test_point_listed_twice_is_reported(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(
                    id="A", genus=0, degree=2,
                    ramification=(("q1", (2,)), ("q1", (2,))),
                ),
            ),
            nodes=(),
        )
        assert any("listed more than once" in p for p in validate(graph))

    def test_disconnected_graph_is_reported(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(id="A", genus=0, degree=1),
                DominantComponent(id="C", genus=0, degree=1),
            ),
            nodes=(),
        )
        assert any("disconnected" in p for p in validate(graph))

    def test_all_contracted_has_no_degree(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                ContractedComponent(id="B", genus=2, image="p"),
            ),
            nodes=(),
        )
        assert any("total degree is 0" in p for p in validate(graph))

    def test_unknown_branch_reference_is_reported(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(DominantComponent(id="A", genus=0, degree=1),),
            nodes=(Node(branches=("A", "X"), image="p"),),
        )
        assert any("unknown component 'X'" in p for p in validate(graph))

    def test_node_image_must_match_contracted_image(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(
                    id="A", genus=0, degree=2,
                    ramification=(("q1", (2,)), ("q2", (2,))),
                ),
                ContractedComponent(id="B", genus=1, image="p"),
            ),
            nodes=(Node(branches=("A", "B"), image="elsewhere"),),
        )
        assert any(
            "contracted to 'p'" in p for p in validate(graph)
        )

    def test_multiple_violations_all_reported(self):
        # disconnected AND an unattached genus-1 tail: both must show up
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(id="A", genus=0, degree=1),
                ContractedComponent(id="B", genus=1, image="p"),
            ),
            nodes=(),
        )
        problems = validate(graph)
        assert any("disconnected" in p for p in problems)
        assert any("contracted genus-1" in p for p in problems)

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

    def test_disconnected_genus_is_an_error(self):
        graph = StableMapGraph(
            target_genus=0,
            components=(
                DominantComponent(id="A", genus=0, degree=1),
                DominantComponent(id="C", genus=0, degree=1),
            ),
            nodes=(),
        )
        with pytest.raises(ValueError, match="disconnected"):
            arithmetic_genus(graph)


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

    def test_invalid_graph_is_never_evaluated(self):
        with pytest.raises(InvalidGraphError) as info:
            branch_divisor(two_sheets(tail_genus=0))
        assert any("contracted genus-0" in v for v in info.value.violations)

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
        unstable = load_graph(FIXTURES / "unstable_tail.json")
        with pytest.raises(InvalidGraphError) as info:
            branch_divisor(unstable)
        assert info.value.violations == validate(unstable) != []

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
    def test_fixture_identity_map(self):
        graph = load_graph(FIXTURES / "identity_map.json")
        assert validate(graph) == []
        assert branch_divisor(graph) == {}
        assert riemann_hurwitz_degree(graph) == 0

    def test_fixture_elliptic_tail(self):
        graph = load_graph(FIXTURES / "elliptic_tail.json")
        assert validate(graph) == []
        assert branch_divisor(graph) == {"q1": 1, "q2": 1, "p": 2}

    def test_fixture_unstable_tail(self):
        graph = load_graph(FIXTURES / "unstable_tail.json")
        assert validate(graph) != []
        with pytest.raises(InvalidGraphError):
            branch_divisor(graph)

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

    def test_shape_errors(self):
        good = graph_to_dict(two_sheets())
        cases = [
            ({**good, "extra": 1}, "unknown field"),
            ({k: v for k, v in good.items() if k != "target_genus"},
             "missing field 'target_genus'"),
            ({**good, "target_genus": "zero"}, "must be an integer"),
            ({**good, "target_genus": True}, "must be an integer"),
            ({**good, "components": 3}, "must be a list"),
        ]
        for data, message in cases:
            with pytest.raises(GraphFormatError, match=message):
                graph_from_dict(data)

    def test_component_shape_errors(self):
        base = graph_to_dict(two_sheets())

        def broken(**changes):
            data = json.loads(json.dumps(base))
            data["components"][0].update(changes)
            return data

        with pytest.raises(GraphFormatError, match="kind"):
            graph_from_dict(broken(kind="mystery"))
        with pytest.raises(GraphFormatError, match="profile"):
            graph_from_dict(broken(ramification=[{"point": "q1",
                                                  "profile": []}]))
        with pytest.raises(GraphFormatError, match="profile"):
            graph_from_dict(broken(ramification=[{"point": "q1",
                                                  "profile": [2.0]}]))

    def test_node_shape_errors(self):
        base = graph_to_dict(two_sheets(tail_genus=1))
        data = json.loads(json.dumps(base))
        data["nodes"][0]["branches"] = ["A"]
        with pytest.raises(GraphFormatError, match="branches"):
            graph_from_dict(data)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            load_graph(path)


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


# a bool is not an integer, an empty string is not a nonempty string, and
# a bool is not a list (kept after the lists above, whose parameter ids
# are numbered by position)
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
]


@pytest.mark.parametrize("data, message",
                         FORMAT_ERRORS + FIRST_FAULTS + TYPE_RULES)
def test_format_errors_are_worded_exactly(data, message):
    with pytest.raises(GraphFormatError) as info:
        graph_from_dict(data)
    assert str(info.value) == message


class TestRandomizedStructure:
    def test_one_degree_law(self):
        rng = random.Random(3105)
        target_genera = Counter()
        for _ in range(100):
            graph = random_valid_graph(rng)
            target_genera[graph.target_genus] += 1
            assert riemann_hurwitz_degree(graph) == branch_count(
                arithmetic_genus(graph), total_degree(graph),
                graph.target_genus) == sum(branch_divisor(graph).values())
        assert sorted(target_genera) == [0, 1, 2]

    @pytest.mark.parametrize("graph, message", [
        (StableMapGraph(0, (ContractedComponent("B", 1, "p"),), ()),
         "genus and target_genus must be >= 0, degree >= 1"),
        (StableMapGraph(2, (DominantComponent("A", 0, 1),), ()),
         "no connected cover: 2*genus - 2 < degree*(2*target_genus - 2)"),
    ], ids=["no-dominant-component", "negative-count"])
    def test_degree_law_outside_its_domain(self, graph, message):
        # connected, so arithmetic_genus answers; branch_count refuses
        arithmetic_genus(graph)
        with pytest.raises(ValueError) as info:
            riemann_hurwitz_degree(graph)
        assert str(info.value) == message

    def test_degree_law_and_effectivity(self):
        rng = random.Random(1105)
        for _ in range(60):
            graph = random_valid_graph(rng)
            div = branch_divisor(graph)
            assert sum(div.values()) == riemann_hurwitz_degree(graph)
            assert all(c >= 0 for c in div.values())

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
