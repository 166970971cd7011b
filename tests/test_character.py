"""The character route and the statistics it was built from: partitions,
irreducible dimensions and content sums, the content polynomials z_n,
their logarithm, factorization counts and connected Hurwitz numbers.

Each check here compares the package with something it shares no code
with: partition counts with Euler's pentagonal-number recurrence,
dimensions with direct standard-tableau counting, content sums with the
conjugate diagram written out below, and the logarithm with the
exponential of tests/contentseries.py. Factorization counts are checked
against the oracle's identity count on every cell of its bound, in
test_oracle.py; those here reach past its d <= 5.

A family z_0 = 1, z_1, ..., z_N of integer Laurent polynomials stands
for sum z_n x^n / (n!)^2; `content_log(z, [{}])` returns the family f
with f_0 = 0 whose series is its logarithm, and `content_log(z, f)`
extends a log f of a shorter family in place, as the character route
does. The route's pinned Hurwitz numbers and its agreement with the
other routes are `KNOWN` and `AGREEMENT` in test_acceptance.py.
"""

import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest

from contentseries import content_exp, series_product
from hurwitz.character import (
    connected_hurwitz,
    content_log,
    content_polynomial,
    content_sum,
    enumerate_partitions,
    factorization_count,
    irrep_dimension,
)
from hurwitz.routes import branch_count


def conjugate(shape):
    # the transpose of a Young diagram, one weakly decreasing tuple of
    # rows: strip the first column off until no cell is left; the length
    # of each stripped column is one row of the transpose
    rows, columns = list(shape), []
    while rows:
        columns.append(len(rows))
        rows = [row - 1 for row in rows if row > 1]
    return tuple(columns)


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


def box_partitions(rows, largest):
    # every nonempty partition of at most `rows` parts, none above `largest`
    for first in range(1, largest + 1):
        yield (first,)
        if rows > 1:
            for rest in box_partitions(rows - 1, first):
                yield (first, *rest)


# an 8 x 8 box holds C(16, 8) diagrams, the empty one among them
BOX = list(box_partitions(8, 8))


def families(seed, constant, longest, count=100):
    # `count` families [constant, z_1, ..., z_n] with n cycling through
    # 0..longest; each z_i has up to four nonzero coefficients on
    # exponents -4..4, and may be empty
    rng = random.Random(seed)
    for trial in range(count):
        yield [constant] + [
            {rng.randint(-4, 4): rng.choice((-1, 1)) * rng.randint(1, 9)
             for _ in range(rng.randint(0, 4))}
            for _ in range(trial % (longest + 1))
        ]


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
    def test_matches_standard_tableau_count_up_to_d8(self):
        for d in range(1, 9):
            for shape in enumerate_partitions(d):
                assert irrep_dimension(shape) == count_standard_tableaux(shape)

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

    def test_antisymmetric_under_conjugation_in_the_8x8_box(self):
        assert len(BOX) == comb(16, 8) - 1
        for shape in BOX:
            assert content_sum(conjugate(shape)) == -content_sum(shape)


class TestConjugate:
    def test_examples(self):
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_involution(self):
        for shape in BOX:
            assert conjugate(conjugate(shape)) == shape


class TestContentPolynomials:
    def test_small_degrees(self):
        assert content_polynomial(0) == {0: 1}
        assert content_polynomial(1) == {0: 1}
        assert content_polynomial(2) == {1: 1, -1: 1}
        assert content_polynomial(3) == {3: 1, 0: 4, -3: 1}

    def test_squared_dimensions_sum_to_the_group_order(self):
        # Burnside: z_n's coefficients are the squared dimensions
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


class TestConstruction:
    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            content_polynomial(-1)


class TestExpLog:
    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            content_log([], [{}])
        with pytest.raises(ValueError):
            content_log([{0: 2}, {0: 1}], [{}])

    def test_single_variable_exp(self):
        # z_n = n! q^(sn) is exp(q^s x), whose logarithm is q^s x. At
        # s = 0, z = 1, 1, 2, ... and each f_n with n >= 2 sums to 0, so
        # its zero coefficient is dropped
        for s in (0, 1, -2):
            z = [{s * n: factorial(n)} for n in range(7)]
            assert content_log(z, [{}]) == [{}, {s: 1}] + [{}] * 5

    def test_exp_turns_sums_into_products(self):
        for a, b in zip(families(1, {0: 1}, 6), families(2, {0: 1}, 6)):
            fa, fb = content_log(a, [{}]), content_log(b, [{}])
            sums = []
            for x, y in zip(fa, fb):
                total = dict(x)
                for c, m in y.items():
                    total[c] = total.get(c, 0) + m
                sums.append({c: m for c, m in total.items() if m})
            assert content_log(series_product(a, b), [{}]) == sums, (a, b)

    def test_log_then_exp_round_trip(self):
        for z in families(3, {0: 1}, 7):
            assert content_exp(content_log(z, [{}])) == z, z

    def test_content_polynomials_to_d12_round_trip(self):
        # the connected polynomials the route would take from z_0..z_12
        # rebuild them
        z = [content_polynomial(n) for n in range(13)]
        assert content_exp(content_log(z, [{}])) == z

    def test_exp_then_log_round_trip(self):
        for f in families(4, {}, 6):
            assert content_log(content_exp(f), [{}]) == f, f

    def test_a_partial_log_extends_to_the_whole_log(self):
        # the route extends the f it keeps to each larger degree asked for
        for z in families(5, {0: 1}, 7):
            whole = content_log(z, [{}])
            assert content_log(z, []) == whole, z
            for k in range(1, len(z) + 1):
                partial = content_log(z[:k], [{}])
                assert content_log(z, partial) == whole, (z, k)


class TestFactorizationCount:
    def test_empty_tuple_counts_once(self):
        for d in range(1, 7):
            assert factorization_count(d, 0) == 1

    def test_parity_vanishing_for_odd_r(self):
        for d in range(1, 9):
            for r in (1, 3, 5, 7, 9):
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
