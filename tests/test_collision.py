"""Continuity of the branch divisor under collision: when k simple
branch points of a cover come together, the stable limit's branch
divisor has k at the collision point and still 1 at every other branch
point, also where the dominant part ramifies less there and contracted
components and nodes make up the rest. Two disjoint runs may collide at
two points at once.

The limits come from graphgen.collision_limit, which builds them from
permutations alone, so nothing here checks the package against itself.
This module draws them and names the structures each has; criterion 10
of test_acceptance.py checks every limit, and the test below runs the
CLI on one limit of each structure.
"""

import json
import random

from graphgen import collision_limit
from hurwitz.cli import EXIT_OK, main
from hurwitz.stablemap import DominantComponent, graph_from_dict

SEED = 2024
LIMITS = 300


def structures(graph):
    """Which of the four structures a limit has that a smooth cover
    lacks."""
    dominant = {c.id for c in graph.components
                if isinstance(c, DominantComponent)}
    found = set()
    if any(c.genus > 0 for c in graph.components if c.id not in dominant):
        found.add("contracted of positive genus")
    joined = {cid: {cid} for cid in dominant}
    for a, b in (node.branches for node in graph.nodes):
        if a == b:
            found.add("self-node")
        elif a in dominant and b in dominant:
            found.add("node between dominant branches")
            merged = joined[a] | joined[b]
            for cid in merged:
                joined[cid] = merged
    if any(len(part) < len(dominant) for part in joined.values()):
        found.add("disconnected dominant part")
    return found


def limits():
    """LIMITS seeded (genus, degree, document, divisor), g <= 2 and
    2 <= d <= 6."""
    rng = random.Random(SEED)
    for _ in range(LIMITS):
        g, d = rng.randint(0, 2), rng.randint(2, 6)
        yield (g, d, *collision_limit(rng, g, d))


def two_point_limits():
    """LIMITS seeded (genus, degree, document, divisor) with two
    collision points, g <= 3, 2 <= d <= 7 and r = 2g + 2d - 2 >= 4."""
    rng = random.Random(SEED + 2)
    for _ in range(LIMITS):
        g = rng.randint(0, 3)
        d = rng.randint(max(2, 3 - g), 7)
        yield (g, d, *collision_limit(rng, g, d, points=2))


def test_one_cli_run_per_structure(capsys, tmp_path):
    seen = {}
    for g, d, document, divisor in limits():
        for structure in structures(graph_from_dict(document)):
            seen.setdefault(structure, (g, d, document, divisor))
    assert len(seen) == 4
    path = tmp_path / "limit.json"
    for structure, (g, d, document, divisor) in sorted(seen.items()):
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["branch-divisor", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK, structure
        assert payload["divisor"] == divisor, structure
        assert payload["source_genus"] == g, structure
        assert payload["divisor_degree"] == payload["expected_degree"] \
            == 2 * g + 2 * d - 2, structure
