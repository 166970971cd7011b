"""Brute-force oracle: the state count against a tuple walk, and the
identity count against the character route.

The oracle exists to check the character route, so this file pins only
its standalone behavior. The tuple walk covers d <= 4 and r <= 6, the
one-letter and empty-tuple cells among them. The identity count checks
the character route's factorization count on every cell of the bound.
The route's pinned values and its agreement with the character route
are `KNOWN` and criteria 4 and 12 of `AGREEMENT` in test_acceptance.py;
its bound on a direct call is
test_routes.py::TestValueBound::test_direct_calls_print_their_bound_in_full.
"""

from itertools import combinations, product

import pytest

from hurwitz import character, oracle


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


class TestOracleConnected:
    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            oracle.oracle_connected(-1, 2)
        with pytest.raises(ValueError):
            oracle.oracle_connected(0, 0)
        with pytest.raises(ValueError):
            oracle.count_factorizations(0, 1)
        with pytest.raises(ValueError):
            oracle.count_factorizations(2, -1)
