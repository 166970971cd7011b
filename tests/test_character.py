"""Factorization counts and Hurwitz numbers from the character sum.

The independent oracle in this file is a direct product scan over all
r-tuples of transpositions; it shares no code with the package kernels
or the character route. The frozen value 27 for (d, r) = (3, 4) was
produced by that scan. The route's pinned Hurwitz numbers and its
agreement with the other routes are `KNOWN` and `AGREEMENT` in
test_acceptance.py.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from hurwitz.character import (
    connected_hurwitz,
    content_log,
    content_polynomial,
    factorization_count,
)
from hurwitz.routes import branch_count


def products_scan(d, r):
    # count identity products by brute scan, no pruning, no recursion
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    identity = list(range(d))
    count = 0
    for tup in itertools.product(pairs, repeat=r):
        perm = list(identity)
        for i, j in tup:
            perm[i], perm[j] = perm[j], perm[i]
        if perm == identity:
            count += 1
    return count


class TestContentPolynomials:
    def test_small_degrees(self):
        assert content_polynomial(0) == {0: 1}
        assert content_polynomial(1) == {0: 1}
        assert content_polynomial(2) == {1: 1, -1: 1}
        assert content_polynomial(3) == {3: 1, 0: 4, -3: 1}

    def test_squared_dimensions_sum_to_the_group_order(self):
        for n in range(0, 13):
            assert sum(content_polynomial(n).values()) == factorial(n)

    def test_symmetric_under_conjugation(self):
        for n in range(0, 13):
            z = content_polynomial(n)
            assert all(z[-c] == m for c, m in z.items()), n

    def test_log_of_small_degrees(self):
        # f_2 = z_2 - C(1,0) C(2,1) z_1^2 and f_1 = z_1
        f = content_log([content_polynomial(n) for n in range(3)], [{}])
        assert f == [{}, {0: 1}, {1: 1, 0: -2, -1: 1}]


class TestFactorizationCount:
    def test_known_values(self):
        assert factorization_count(2, 2) == 1
        assert factorization_count(3, 3) == 0
        assert factorization_count(3, 4) == 27

    def test_empty_tuple_counts_once(self):
        for d in range(1, 7):
            assert factorization_count(d, 0) == 1

    def test_no_transpositions_on_one_letter(self):
        for r in range(1, 5):
            assert factorization_count(1, r) == 0

    def test_matches_direct_product_scan(self):
        for d in range(2, 5):
            for r in range(0, 6 if d < 4 else 5):
                assert factorization_count(d, r) == products_scan(d, r), \
                    (d, r)

    def test_parity_vanishing_for_odd_r(self):
        for d in range(1, 9):
            for r in (1, 3, 5, 7):
                assert factorization_count(d, r) == 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            factorization_count(0, 2)
        with pytest.raises(ValueError):
            factorization_count(3, -1)


def disconnected(d, r):
    # degree-d covers with r simple branch points, connected or not, each
    # weighted by 1/|Aut|: the factorization count divided by d!
    return Fraction(factorization_count(d, r), factorial(d))


class TestDisconnected:
    def test_known_values(self):
        assert disconnected(2, 2) == Fraction(1, 2)
        assert disconnected(3, 4) == Fraction(9, 2)
        # the trivial triple cover: no branch points, weight 1/3!
        assert disconnected(3, 0) == Fraction(1, 6)

    def test_never_less_than_connected(self):
        for d in range(1, 5):
            for g in range(0, 4):
                r = branch_count(g, d)
                if r > 8:
                    continue
                assert disconnected(d, r) >= connected_hurwitz(g, d)


class TestConnected:
    def test_values_are_positive_in_degree_at_least_two(self):
        for g in range(0, 3):
            for d in range(2, 6):
                assert connected_hurwitz(g, d) > 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            connected_hurwitz(-1, 2)
        with pytest.raises(ValueError):
            connected_hurwitz(0, 0)


class TestValuesKept:
    def test_repeat_calls_keep_no_values(self):
        # z_10 and f_10 stored first; after that, values asked for are
        # returned, not kept: 700 calls leave under 16 KB traced
        factorization_count(10, 0)
        connected_hurwitz(0, 10)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for r in range(500):
                factorization_count(10, r)
            for g in range(200):
                connected_hurwitz(g, 10)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 16 * 1024, kept


class TestBranchCount:
    def test_rational_target(self):
        assert branch_count(0, 1) == 0
        assert branch_count(0, 3) == 4
        assert branch_count(2, 2) == 6

    def test_general_target(self):
        # an unramified cover of an elliptic curve needs no branch points
        assert branch_count(1, 3, target_genus=1) == 0
        assert branch_count(3, 2, target_genus=2) == 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            branch_count(-1, 2)
        with pytest.raises(ValueError):
            branch_count(0, 0)
        with pytest.raises(ValueError):
            branch_count(0, 2, target_genus=-1)
        # Riemann-Hurwitz: no connected cover has negative branching
        with pytest.raises(ValueError):
            branch_count(0, 2, target_genus=1)
        with pytest.raises(ValueError):
            branch_count(1, 2, target_genus=2)
