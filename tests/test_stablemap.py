"""Stable-map graphs: validation, genus, branch divisors, and the JSON
format. Randomized structure checks live at the end; the acceptance
suite reruns them at full volume.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from graphgen import random_valid_graph
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


class TestRandomizedStructure:
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
