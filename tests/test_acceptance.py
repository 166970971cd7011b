"""End-to-end acceptance checks for the package's headline guarantees.

The pinned Hurwitz numbers and the ranges on which two routes must
agree are the two tables below. `KNOWN` holds the pinned values, each
checked by every method that covers its cell (criterion 1), and
`AGREEMENT` holds one row per cross-check criterion, its two routes
compared on every cell of its range. Both call each route through
`routes.hurwitz_value`; the one exception is the oracle's unbounded
state count in criterion 12. A new route or a wider bound is a new row
or a wider range here, not an edit in each route's test file.

Each criterion prints a single PASS/FAIL line (run with
`pytest -s tests/test_acceptance.py` to see them). All comparisons are
exact rational equality; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from functools import cache

import pytest

from contentseries import content_exp
from diagrams import conjugate
from graphgen import collision_limit, random_valid_graph
from hurwitz import oracle
from hurwitz.character import (
    content_log,
    content_polynomial,
    content_sum,
    enumerate_partitions,
    factorization_count,
    irrep_dimension,
)
from hurwitz.routes import Method, applicable_methods, branch_count, \
    hurwitz_value
from hurwitz.stablemap import (
    InvalidGraphError,
    arithmetic_genus,
    branch_divisor,
    graph_from_dict,
    load_graph,
    riemann_hurwitz_degree,
    validate,
)
from math import factorial
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"

GRAPH_SEED = 20260819
# random graphs for criteria 7 and 8, drawn once; collision limits per
# point count for criterion 10
GRAPH_COUNT = 1000
LIMIT_COUNT = 200

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
    if isinstance(route, Method):
        return hurwitz_value(g, d, route)
    return route(g, d)


@pytest.mark.parametrize("cell", KNOWN, ids=lambda cell: "g%d-d%d" % cell)
def test_known_value(cell):
    started = time.monotonic_ns()
    g, d = cell
    methods = applicable_methods(g, d)
    failures = [f"{method.value} gives {value}" for method in methods
                if (value := hurwitz_value(g, d, method)) != KNOWN[cell]]
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
    started = time.monotonic_ns()
    failures = []
    for index, graph in enumerate(_random_graphs()):
        degree = sum(branch_divisor(graph).values())
        expected = riemann_hurwitz_degree(graph)
        if degree != expected:
            failures.append(f"graph {index}: degree {degree} != {expected}")
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
    unstable = load_graph(FIXTURES / "unstable_tail.json")
    if not validate(unstable):
        failures.append("unstable fixture passed validation")
    try:
        branch_divisor(unstable)
    except InvalidGraphError:
        pass
    else:
        failures.append("unstable fixture was evaluated")
    _report(8, "effectivity and rejection of the unstable fixture",
            failures, started)


def test_criterion_9_property_suite():
    started = time.monotonic_ns()
    failures = []

    # Burnside: the squared dimensions sum to the group order
    for d in range(1, 13):
        total = sum(irrep_dimension(p) ** 2 for p in enumerate_partitions(d))
        if total != factorial(d):
            failures.append(f"Burnside fails at d={d}")

    # parity: no odd-length factorization of the identity
    for d in range(1, 7):
        for r in range(1, 10, 2):
            if factorization_count(d, r) != 0:
                failures.append(f"parity fails at d={d}, r={r}")

    # log/exp round trip: the package's connected content polynomials
    # rebuild its disconnected ones, and seeded random integer Laurent
    # polynomials with z_0 = 1 survive log then exp
    z = [content_polynomial(n) for n in range(13)]
    if content_exp(content_log(z, [{}])) != z:
        failures.append("connected content polynomials do not rebuild z")
    rng = random.Random(GRAPH_SEED)
    for trial in range(25):
        z = [{0: 1}]
        for _ in range(rng.randint(1, 7)):
            z.append({rng.randint(-4, 4): rng.randint(-9, 9)
                      for _ in range(rng.randint(0, 4))})
        z = [{c: m for c, m in zn.items() if m} for zn in z]
        if content_exp(content_log(z, [{}])) != z:
            failures.append(f"log/exp round trip fails on trial {trial}")

    # content sums are antisymmetric under conjugation
    for d in range(0, 11):
        for shape in enumerate_partitions(d):
            if content_sum(conjugate(shape)) != -content_sum(shape):
                failures.append(f"content antisymmetry fails at {shape}")

    _report(9, "property suite", failures, started)


def test_criterion_10_continuity_under_collision():
    # k of the branch points of a seeded cover collide at p: the stable
    # limit's divisor is k at p and 1 at every other branch point
    started = time.monotonic_ns()
    failures = []
    rng = random.Random(GRAPH_SEED)
    for index in range(LIMIT_COUNT):
        g, d = rng.randint(0, 2), rng.randint(2, 6)
        document, expected = collision_limit(rng, g, d)
        graph = graph_from_dict(document)
        # the violations in place of the divisor, where there are any
        got = (validate(graph) or branch_divisor(graph),
               arithmetic_genus(graph), riemann_hurwitz_degree(graph))
        if got != (expected, g, sum(expected.values())):
            failures.append(f"limit {index}: {got} != {expected}, g={g}")
    # two runs of them collide at once, at p and at p2
    for index in range(LIMIT_COUNT):
        g = rng.randint(0, 3)
        d = rng.randint(max(2, 3 - g), 7)
        document, expected = collision_limit(rng, g, d, points=2)
        graph = graph_from_dict(document)
        got = (validate(graph) or branch_divisor(graph),
               arithmetic_genus(graph), riemann_hurwitz_degree(graph))
        if got != (expected, g, sum(expected.values())):
            failures.append(f"two-point limit {index}: {got} != {expected}, "
                            f"g={g}")
    _report(10, f"branch divisor continuous under collision, "
            f"{LIMIT_COUNT} limits at one point and {LIMIT_COUNT} at two",
            failures, started)
