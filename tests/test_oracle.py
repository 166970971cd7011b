"""Brute-force oracle: the state count against a tuple walk, the
identity count against the character route, and the bound.

The oracle exists to check the character route, so this file pins only
its standalone behavior. The route's pinned values and its agreement
with the character route are `KNOWN` and criteria 4 and 12 of
`AGREEMENT` in test_acceptance.py.
"""

from itertools import combinations, product

import pytest

from hurwitz import character, oracle
from hurwitz.oracle import OracleBoundError, oracle_connected


def walk_all_tuples(d, r):
    """(identity, transitive) by visiting every r-tuple of transpositions."""
    identity = transitive = 0
    for path in product(combinations(range(d), 2), repeat=r):
        perm = list(range(d))
        blocks = list(range(d))
        for i, j in path:
            perm[i], perm[j] = perm[j], perm[i]
            a, b = blocks[i], blocks[j]
            blocks = [a if x == b else x for x in blocks]
        if perm == list(range(d)):
            identity += 1
            transitive += len(set(blocks)) == 1
    return identity, transitive


# one kernel, named by the backend string the package reports
@pytest.mark.parametrize("kernel", [pytest.param(oracle, id=oracle.BACKEND)])
class TestKernels:
    def test_degree_one(self, kernel):
        assert kernel.count_factorizations(1, 0) == (1, 1)
        assert kernel.count_factorizations(1, 3) == (0, 0)

    def test_empty_tuple_is_never_transitive_beyond_degree_one(self, kernel):
        for d in range(2, 5):
            assert kernel.count_factorizations(d, 0) == (1, 0)

    def test_smallest_transitive_cases(self, kernel):
        # (12) twice is the only identity pair on two letters
        assert kernel.count_factorizations(2, 2) == (1, 1)
        # 27 identity quadruples on three letters, 3 of which fix a letter
        assert kernel.count_factorizations(3, 4) == (27, 24)

    def test_bad_inputs_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.count_factorizations(0, 1)
        with pytest.raises(ValueError):
            kernel.count_factorizations(2, -1)


def test_state_count_matches_tuple_walk():
    for d in range(1, 5):
        for r in range(0, 7):
            assert oracle.count_factorizations(d, r) == \
                walk_all_tuples(d, r), (d, r)


def test_identity_count_matches_character_route():
    # every cell of the bound, d <= MAX_DEGREE and r <= MAX_BRANCH_POINTS
    for d in range(1, oracle.MAX_DEGREE + 1):
        for r in range(oracle.MAX_BRANCH_POINTS + 1):
            identity, _ = oracle.count_factorizations(d, r)
            assert identity == character.factorization_count(d, r), (d, r)


def test_selected_backend_is_reported():
    assert oracle.BACKEND == "python"


class TestOracleConnected:
    def test_bound_is_enforced(self):
        with pytest.raises(OracleBoundError):
            oracle_connected(0, 6)  # d too large
        with pytest.raises(OracleBoundError):
            oracle_connected(4, 3)  # r = 12 too large
        # OracleBoundError is a ValueError, so callers can catch broadly
        assert issubclass(OracleBoundError, ValueError)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracle_connected(-1, 2)
        with pytest.raises(ValueError):
            oracle_connected(0, 0)
