"""Partition enumeration and symmetric-group statistics.

Independent oracles live in this file: partition counts come from
Euler's pentagonal-number recurrence and dimensions from direct
standard-tableau counting, so the hook-length route is checked against
something it does not share code with.
"""

from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagrams import conjugate
from hurwitz.character import (
    content_sum,
    enumerate_partitions,
    irrep_dimension,
)


def pentagonal_counts(limit):
    # p(n) = sum over k >= 1 of (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def count_standard_tableaux(shape):
    # grow the diagram cell by cell; rows must stay weakly decreasing
    rows = len(shape)
    filled = [0] * rows

    def place(remaining):
        if remaining == 0:
            return 1
        total = 0
        for i in range(rows):
            if filled[i] < shape[i] and (i == 0 or filled[i] < filled[i - 1]):
                filled[i] += 1
                total += place(remaining - 1)
                filled[i] -= 1
        return total

    return place(sum(shape))


partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=8), min_size=1, max_size=8
).map(lambda parts: tuple(sorted(parts, reverse=True)))


class TestEnumeration:
    def test_reverse_lexicographic_order_for_d4(self):
        assert enumerate_partitions(4) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_ends_of_the_list(self):
        for d in range(1, 9):
            parts = enumerate_partitions(d)
            assert parts[0] == (d,)
            assert parts[-1] == (1,) * d
            assert all(sum(p) == d and min(p) >= 1 for p in parts)
            assert all(list(p) == sorted(p, reverse=True) for p in parts)
            assert len(set(parts)) == len(parts)

    def test_zero_has_the_empty_partition(self):
        assert enumerate_partitions(0) == [()]

    def test_counts_match_pentagonal_recurrence_up_to_30(self):
        expected = pentagonal_counts(30)
        for d in range(31):
            assert len(enumerate_partitions(d)) == expected[d]

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)


class TestDimension:
    def test_known_small_dimensions(self):
        assert irrep_dimension((2, 1)) == 2
        assert irrep_dimension((2, 2)) == 2
        assert irrep_dimension((3, 1)) == 3
        for d in range(1, 9):
            assert irrep_dimension((d,)) == 1
            assert irrep_dimension((1,) * d) == 1

    def test_matches_standard_tableau_count_up_to_d6(self):
        for d in range(1, 7):
            for shape in enumerate_partitions(d):
                assert irrep_dimension(shape) == count_standard_tableaux(shape)

    def test_burnside_sum_of_squares_up_to_d12(self):
        for d in range(1, 13):
            total = sum(
                irrep_dimension(shape) ** 2
                for shape in enumerate_partitions(d)
            )
            assert total == factorial(d)

    def test_conjugate_shape_has_equal_dimension(self):
        for d in range(1, 9):
            for shape in enumerate_partitions(d):
                assert irrep_dimension(shape) == \
                    irrep_dimension(conjugate(shape))

    def test_rejects_non_partitions(self):
        for bad in ((1, 2), (0,), (-1,), (2, 0)):
            with pytest.raises(ValueError):
                irrep_dimension(bad)


class TestContent:
    def test_known_values(self):
        assert content_sum((3,)) == 3
        assert content_sum((1, 1, 1)) == -3
        assert content_sum((2, 1)) == 0
        assert content_sum(()) == 0

    def test_antisymmetric_under_conjugation_up_to_d10(self):
        for d in range(11):
            for shape in enumerate_partitions(d):
                assert content_sum(conjugate(shape)) == \
                    -content_sum(shape)

    @given(partitions_strategy)
    def test_antisymmetric_under_conjugation_random(self, shape):
        assert content_sum(conjugate(shape)) == -content_sum(shape)


class TestConjugate:
    def test_examples(self):
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    @given(partitions_strategy)
    def test_involution(self, shape):
        assert conjugate(conjugate(shape)) == shape
