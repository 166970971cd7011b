"""Genus-0 psi-integrals and the intersection route to Hurwitz numbers.

The package sums psi-integrals grouped by exponent multiset; the
term-by-term sum over every exponent vector lives here as its
reference. The route's pinned values, the degenerate degrees 1 and 2
among them, and its agreement with the closed form are `KNOWN` and
criterion 3 of `AGREEMENT` in test_acceptance.py; its degree bound on a
direct call is
test_routes.py::TestValueBound::test_direct_calls_print_their_bound_in_full.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from hurwitz.intersection import (
    _exponent_multisets,
    elsv_genus0,
    psi_integral_genus0,
)


def compositions(total, slots):
    """All tuples of `slots` nonnegative ints summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first, *rest)


def elsv_term_by_term(d):
    # (2d-2)!/d! times psi_integral_genus0 summed over every exponent vector
    total = sum(psi_integral_genus0(e) for e in compositions(d - 3, d))
    return Fraction(factorial(2 * d - 2), factorial(d)) * total


class TestPsiIntegral:
    def test_known_values(self):
        assert psi_integral_genus0((0, 0, 0)) == 1
        assert psi_integral_genus0((1, 0, 0, 0)) == 1
        assert psi_integral_genus0((2, 0, 0, 0)) == 0
        # five points: the multinomial 2!/prod(a_i!)
        assert psi_integral_genus0((2, 0, 0, 0, 0)) == 1
        assert psi_integral_genus0((1, 1, 0, 0, 0)) == 2

    def test_wrong_total_degree_vanishes(self):
        assert psi_integral_genus0((0, 0, 0, 0)) == 0
        assert psi_integral_genus0((1, 1, 0, 0)) == 0
        assert psi_integral_genus0((3, 0, 0, 0, 0)) == 0

    def test_symmetric_in_the_marked_points(self):
        for exponents in ((2, 0, 0, 0, 0), (1, 1, 0, 0, 0)):
            values = {
                psi_integral_genus0(p)
                for p in itertools.permutations(exponents)
            }
            assert len(values) == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            psi_integral_genus0((0, 0))
        with pytest.raises(ValueError):
            psi_integral_genus0((1, -1, 0))


class TestCompositions:
    def test_small_enumerations(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []
        assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_counts_are_binomial(self):
        # stars and bars: C(total + slots - 1, slots - 1)
        from math import comb
        for total in range(5):
            for slots in range(1, 5):
                assert len(list(compositions(total, slots))) == \
                    comb(total + slots - 1, slots - 1)


class TestMultinomialIdentity:
    def test_psi_integrals_sum_to_the_expected_power(self):
        # each integral is the multinomial (n-3)!/prod(a_i!), and the
        # multinomials of the compositions of k into n parts sum to n^k
        for n in range(3, 8):
            total = sum(
                psi_integral_genus0(exponents)
                for exponents in compositions(n - 3, n)
            )
            assert total == n ** (n - 3)


class TestExponentMultisets:
    def test_small_enumerations(self):
        assert list(_exponent_multisets(0, 0)) == [()]
        assert list(_exponent_multisets(2, 0)) == []
        assert list(_exponent_multisets(4, 3)) == [
            (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1),
        ]

    def test_multisets_with_arrangements_are_the_compositions(self):
        for total in range(6):
            for slots in range(1, 6):
                expected = Counter(
                    tuple(sorted(c, reverse=True))
                    for c in compositions(total, slots)
                )
                got = {}
                for exponents in _exponent_multisets(total, slots):
                    arrangements = factorial(slots)
                    for m in Counter(exponents).values():
                        arrangements //= factorial(m)
                    got[exponents] = arrangements
                assert got == dict(expected), (total, slots)


class TestIntersectionRoute:
    def test_grouped_sum_matches_term_by_term_from_3_to_9(self):
        for d in range(3, 10):
            assert elsv_genus0(d) == elsv_term_by_term(d), d

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            elsv_genus0(0)
