"""End-to-end acceptance checks for the package's headline guarantees.

One test per criterion, each printing a single PASS/FAIL line (run with
`pytest -s tests/test_acceptance.py` to see them). All comparisons are
exact rational equality; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from contentseries import content_exp
from graphgen import random_valid_graph
from hurwitz.character import (
    connected_hurwitz,
    content_log,
    content_polynomial,
    factorization_count,
)
from hurwitz.intersection import elsv_genus0
from hurwitz.oracle import oracle_connected
from hurwitz.partitions import (
    content_sum,
    conjugate_partition,
    enumerate_partitions,
    irrep_dimension,
)
from hurwitz.recursion import h0_closed, h0_recursion, h1_recursion, \
    h2_recursion
from hurwitz.routes import branch_count
from hurwitz.stablemap import (
    InvalidGraphError,
    branch_divisor,
    load_graph,
    riemann_hurwitz_degree,
    validate,
)
from math import factorial
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"

GRAPH_SEED = 20260819
GRAPH_COUNT = 200


def _report(number, label, failures, started):
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status} [{elapsed_ms} ms]")
    assert not failures, f"criterion {number}: {failures}"


def _random_graphs():
    rng = random.Random(GRAPH_SEED)
    return [random_valid_graph(rng) for _ in range(GRAPH_COUNT)]


def test_criterion_1_degenerate_degrees():
    started = time.monotonic_ns()
    failures = []
    for d, expected in ((1, Fraction(1)), (2, Fraction(1, 2))):
        for name, value in (
            ("character", connected_hurwitz(0, d)),
            ("closed form", h0_closed(d)),
        ):
            if value != expected:
                failures.append(f"H(0,{d}) by {name} = {value}")
    _report(1, "degenerate degrees 1 and 2", failures, started)


def test_criterion_2_genus0_recursion_vs_closed_form():
    started = time.monotonic_ns()
    known = [Fraction(1), Fraction(1, 2), Fraction(4), Fraction(120),
             Fraction(8400), Fraction(1088640)]
    failures = []
    for d in range(1, 13):
        rec, closed = h0_recursion(d), h0_closed(d)
        if rec != closed:
            failures.append(f"d={d}: recursion {rec} != closed {closed}")
        if d <= len(known) and rec != known[d - 1]:
            failures.append(f"d={d}: {rec} != pinned {known[d - 1]}")
    _report(2, "genus-0 recursion vs closed form, d <= 12", failures,
            started)


def test_criterion_3_genus0_intersection_route():
    started = time.monotonic_ns()
    failures = []
    for d in range(3, 8):
        via_psi, closed = elsv_genus0(d), h0_closed(d)
        if via_psi != closed:
            failures.append(f"d={d}: psi route {via_psi} != {closed}")
    _report(3, "genus-0 intersection route, 3 <= d <= 7", failures, started)


def test_criterion_4_oracle_grid():
    started = time.monotonic_ns()
    failures = []
    for d in range(1, 6):
        g = 0
        while branch_count(g, d) <= 10:
            expected = connected_hurwitz(g, d)
            counted = oracle_connected(g, d)
            if counted != expected:
                failures.append(
                    f"(g={g}, d={d}): oracle {counted} != {expected}"
                )
            g += 1
    _report(4, "brute-force oracle grid, d <= 5 and r <= 10", failures,
            started)


def test_criterion_5_genus1_recursion():
    started = time.monotonic_ns()
    pinned = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(40)}
    failures = []
    for d in range(1, 15):
        rec, char = h1_recursion(d), connected_hurwitz(1, d)
        if rec != char:
            failures.append(f"d={d}: recursion {rec} != character {char}")
        if d in pinned and rec != pinned[d]:
            failures.append(f"d={d}: {rec} != pinned {pinned[d]}")
    _report(5, "genus-1 recursion vs character, d <= 14", failures, started)


def test_criterion_6_genus2_recursion():
    started = time.monotonic_ns()
    pinned = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(364)}
    failures = []
    for d in range(1, 15):
        rec, char = h2_recursion(d), connected_hurwitz(2, d)
        if rec != char:
            failures.append(f"d={d}: recursion {rec} != character {char}")
        if d in pinned and rec != pinned[d]:
            failures.append(f"d={d}: {rec} != pinned {pinned[d]}")
    _report(6, "genus-2 recursion vs character, d <= 14", failures, started)


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
    if content_exp(content_log(z)) != z:
        failures.append("connected content polynomials do not rebuild z")
    rng = random.Random(GRAPH_SEED)
    for trial in range(25):
        z = [{0: 1}]
        for _ in range(rng.randint(1, 7)):
            z.append({rng.randint(-4, 4): rng.randint(-9, 9)
                      for _ in range(rng.randint(0, 4))})
        z = [{c: m for c, m in zn.items() if m} for zn in z]
        if content_exp(content_log(z)) != z:
            failures.append(f"log/exp round trip fails on trial {trial}")

    # content sums are antisymmetric under conjugation
    for d in range(0, 11):
        for shape in enumerate_partitions(d):
            if content_sum(conjugate_partition(shape)) != -content_sum(shape):
                failures.append(f"content antisymmetry fails at {shape}")

    _report(9, "property suite", failures, started)
