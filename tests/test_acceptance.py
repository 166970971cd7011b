"""End-to-end acceptance checks for the package's headline guarantees.

The pinned Hurwitz numbers and the ranges on which two routes must
agree are the two tables below. `KNOWN` holds the pinned values, each
checked by every method that covers its cell (criterion 1), and
`AGREEMENT` holds one row per cross-check criterion, its two routes
compared on every cell of its range. Both call each route through
`routes.hurwitz_value`; the two exceptions are test-side counts: the
oracle's unbounded state count in criterion 12, and in criterion 13 the
Fraction recursions of test_recursion.py, which the integer recursions
replaced. Each value is computed under `make_golden.bounded`, so a
route that loses its bound fails its row instead of hanging the suite.
A new route or a wider bound is a new row or a wider range here, not an
edit in each route's test file.
Criteria 7, 8 and 10 check the branch divisor: its degree law and its
effectivity on 1,000 random graphs, its refusal on the unstable fixture,
and its continuity under collision on the limits that test_collision.py
draws.

Each criterion prints a single PASS/FAIL line (run with
`pytest -s tests/test_acceptance.py` to see them). All comparisons are
exact rational equality; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from functools import cache
from math import factorial
from pathlib import Path

import pytest

from graphgen import graph_to_dict, map_degree, random_valid_graph
from hurwitz import oracle
from hurwitz.routes import Method, applicable_methods, branch_count, \
    hurwitz_value
from hurwitz.stablemap import (
    ContractedComponent,
    InvalidGraphError,
    arithmetic_genus,
    branch_divisor,
    graph_from_dict,
    load_graph,
    riemann_hurwitz_degree,
    validate,
)
from make_golden import bounded
from test_collision import LIMITS, limits, structures, two_point_limits
from test_recursion import reference_h0, reference_h1, reference_h2

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
GRAPH_SEED = 20260819
# random graphs for criteria 7 and 8, drawn once
GRAPH_COUNT = 1000

# H_{g,d} as pinned by hand or frozen from an independent count. Degree
# 1: the one connected degree-1 cover is the identity of the line, so
# H_{0,1} = 1 and H_{g,1} = 0 beyond genus 0. Degree 2: a double cover
# is fixed by its 2g + 2 branch points up to the hyperelliptic
# involution, so H_{g,2} = 1/2. Genus 0 is Hurwitz's d^(d-3) (2d-2)!/d!.
# H_{1,3} = 40 and H_{2,3} = 364 come with the recursions' source, and
# H_{1,4} = 5460 was frozen from the brute-force oracle (131040
# transitive tuples / 4!).
KNOWN = {
    (0, 1): Fraction(1), (0, 2): Fraction(1, 2), (0, 3): Fraction(4),
    (0, 4): Fraction(120), (0, 5): Fraction(8400),
    (0, 6): Fraction(1088640),
    (1, 1): Fraction(0), (1, 2): Fraction(1, 2), (1, 3): Fraction(40),
    (1, 4): Fraction(5460),
    (2, 1): Fraction(0), (2, 2): Fraction(1, 2), (2, 3): Fraction(364),
    (3, 1): Fraction(0), (4, 1): Fraction(0), (5, 1): Fraction(0),
    (3, 2): Fraction(1, 2),
}


def oracle_state_count(g, d):
    # H_{g,d} from the oracle's unbounded state count, which the
    # Hurwitz-number wrapper refuses past the bound
    _, transitive = oracle.count_factorizations(d, branch_count(g, d))
    return Fraction(transitive, factorial(d))


def fraction_recursion(g, d):
    # H_{g,d} from the Fraction recursions that the integer ones replaced
    return (reference_h0, reference_h1, reference_h2)[g](d)


def _degrees(g, low, high):
    return [(g, d) for d in range(low, high + 1)]


def _oracle_cells(r_low, r_high):
    # every cell with d <= oracle.MAX_DEGREE and r_low <= r <= r_high
    return [(g, d) for d in range(1, oracle.MAX_DEGREE + 1)
            for g in range(r_high // 2 + 1)
            if r_low <= branch_count(g, d) <= r_high]


# (criterion, route a, route b, cells): a route is a Method, called
# through routes.hurwitz_value, or a test-side count called as it is
AGREEMENT = [
    (2, Method.RECURSION, Method.CLOSED_FORM, _degrees(0, 1, 500)),
    (3, Method.ELSV_G0, Method.CLOSED_FORM, _degrees(0, 3, 7)),
    (4, Method.ORACLE, Method.CHARACTER,
     _oracle_cells(0, oracle.MAX_BRANCH_POINTS)),
    (5, Method.RECURSION, Method.CHARACTER, _degrees(1, 1, 24)),
    (6, Method.RECURSION, Method.CHARACTER, _degrees(2, 1, 24)),
    (11, Method.CHARACTER, Method.CLOSED_FORM, _degrees(0, 1, 24)),
    (12, oracle_state_count, Method.CHARACTER,
     _oracle_cells(oracle.MAX_BRANCH_POINTS + 1, 28)),
    (13, Method.RECURSION, fraction_recursion,
     [(g, d) for g in range(3) for d in range(1, 151)]),
]


def _report(number, label, failures, started):
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status} [{elapsed_ms} ms]")
    assert not failures, f"criterion {number}: {failures}"


@cache
def _random_graphs():
    rng = random.Random(GRAPH_SEED)
    return tuple(random_valid_graph(rng) for _ in range(GRAPH_COUNT))


def _name(route):
    return route.value if isinstance(route, Method) else route.__name__


def _value(route, g, d):
    with bounded(f"H({g},{d}) by {_name(route)}"):
        if isinstance(route, Method):
            return hurwitz_value(g, d, route)
        return route(g, d)


@pytest.mark.parametrize("cell", KNOWN, ids=lambda cell: "g%d-d%d" % cell)
def test_known_value(cell):
    started = time.monotonic_ns()
    g, d = cell
    methods = applicable_methods(g, d)
    failures = [f"{method.value} gives {value}" for method in methods
                if (value := _value(method, g, d)) != KNOWN[cell]]
    _report(1, f"H({g},{d}) = {KNOWN[cell]} by {len(methods)} methods",
            failures, started)


@pytest.mark.parametrize("criterion, a, b, cells", AGREEMENT,
                         ids=[f"criterion-{row[0]}" for row in AGREEMENT])
def test_agreement(criterion, a, b, cells):
    assert cells, f"criterion {criterion} has no cells"
    started = time.monotonic_ns()
    failures = []
    for g, d in cells:
        x, y = _value(a, g, d), _value(b, g, d)
        if x != y:
            failures.append(f"H({g},{d}): {_name(a)} {x} != {_name(b)} {y}")
    genera, degrees = zip(*cells)
    span = (f"g {min(genera)}..{max(genera)}, "
            f"d {min(degrees)}..{max(degrees)}")
    _report(criterion, f"{_name(a)} vs {_name(b)} on {len(cells)} cells, "
            f"{span}", failures, started)


def test_criterion_7_branch_degree_law():
    # the divisor's degree, riemann_hurwitz_degree and branch_count of the
    # graph's genus and degree agree, over targets of genus 0, 1 and 2; the
    # map degree is graphgen's map_degree, not the package's
    started = time.monotonic_ns()
    failures = []
    target_genera = set()
    for index, graph in enumerate(_random_graphs()):
        target_genera.add(graph.target_genus)
        degree = sum(branch_divisor(graph).values())
        law = riemann_hurwitz_degree(graph)
        expected = branch_count(arithmetic_genus(graph), map_degree(graph),
                                graph.target_genus)
        if not degree == law == expected:
            failures.append(f"graph {index}: degree {degree}, law {law}, "
                            f"branch count {expected}")
    if sorted(target_genera) != [0, 1, 2]:
        failures.append(f"target genera {sorted(target_genera)}")
    _report(7, f"branch divisor degree law on {GRAPH_COUNT} random graphs",
            failures, started)


def test_criterion_8_effectivity_and_rejection():
    started = time.monotonic_ns()
    failures = []
    for index, graph in enumerate(_random_graphs()):
        divisor = branch_divisor(graph)
        if any(c < 0 for c in divisor.values()):
            failures.append(
                f"graph {index}: negative coefficient in {divisor}"
            )
    # the unstable fixture is refused, with the violations validate finds
    unstable = load_graph(FIXTURES / "unstable_tail.json")
    try:
        branch_divisor(unstable)
    except InvalidGraphError as exc:
        if not exc.violations == validate(unstable) != []:
            failures.append(f"unstable fixture refused with "
                            f"{exc.violations}")
    else:
        failures.append("unstable fixture was evaluated")
    _report(8, f"effectivity on {GRAPH_COUNT} random graphs and rejection "
            f"of the unstable fixture", failures, started)


def test_criterion_10_continuity_under_collision():
    # k of the branch points of a seeded cover collide at p, or two runs
    # of them at p and p2, 2 <= k <= 5 each: the stable limit's divisor
    # is k at each collision point and 1 at every other branch point.
    # The one-point limits show every structure a smooth cover lacks, and
    # some two-point limits have contracted components over both points
    started = time.monotonic_ns()
    failures, seen, both = [], set(), 0
    for points, draw in (("p",), limits), (("p", "p2"), two_point_limits):
        for index, (g, d, document, expected) in enumerate(draw()):
            graph = graph_from_dict(document)
            r = 2 * g + 2 * d - 2
            collided = sorted(expected[point] for point in points)
            # the violations in place of the divisor, where there are any
            got = (graph_from_dict(graph_to_dict(graph)) == graph,
                   validate(graph) or branch_divisor(graph),
                   arithmetic_genus(graph), riemann_hurwitz_degree(graph))
            if (got != (True, expected, g, r)
                    or not 2 <= collided[0] <= collided[-1] <= 5
                    or sorted(expected.values())
                    != [1] * (r - sum(collided)) + collided):
                failures.append(f"limit {index} at {points}: {got} != "
                                f"{expected}, g={g}")
            if len(points) == 1:
                seen |= structures(graph)
            both += {c.image for c in graph.components if isinstance(
                c, ContractedComponent)} == {"p", "p2"}
    if len(seen) != 4:
        failures.append(f"one-point limits show only {sorted(seen)}")
    if not both:
        failures.append("no two-point limit contracts over both points")
    _report(10, f"branch divisor continuous under collision, {LIMITS} "
            f"limits at one point and {LIMITS} at two", failures, started)
