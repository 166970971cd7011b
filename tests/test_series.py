"""The degree generating series of content polynomials: the package's
`content_log` against an exponential written out in the tests.

A family z_0 = 1, z_1, ..., z_N of integer Laurent polynomials stands
for sum z_n x^n / (n!)^2; `content_log(z, [{}])` returns the family f
with f_0 = 0 whose series is its logarithm, and `content_log(z, f)`
extends a log f of a shorter family in place, as the character route
does.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contentseries import content_exp, series_product
from hurwitz.character import content_log, content_polynomial
from math import factorial

laurent = st.dictionaries(
    st.integers(-4, 4), st.integers(-9, 9).filter(bool), max_size=4
)


def families(constant, length):
    return st.lists(laurent, min_size=length, max_size=length).map(
        lambda tail: [constant] + tail
    )


unit_families = st.integers(0, 6).flatmap(lambda n: families({0: 1}, n))
zero_families = st.integers(0, 6).flatmap(lambda n: families({}, n))
unit_family_pairs = st.integers(0, 6).flatmap(
    lambda n: st.tuples(families({0: 1}, n), families({0: 1}, n))
)


class TestConstruction:
    def test_zero_coefficients_are_dropped(self):
        # z = 1, 1, 2 is exp(x) up to x^2: f_2 = 2 - C(1,0) C(2,1) = 0
        assert content_log([{0: 1}, {0: 1}, {0: 2}], [{}]) == [{}, {0: 1}, {}]

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
        # z_n = n! q^(sn) is exp(q^s x), whose logarithm is q^s x
        for s in (0, 1, -2):
            z = [{s * n: factorial(n)} for n in range(7)]
            assert content_log(z, [{}]) == [{}, {s: 1}] + [{}] * 5

    @given(unit_family_pairs)
    def test_exp_turns_sums_into_products(self, pair):
        a, b = pair
        fa, fb = content_log(a, [{}]), content_log(b, [{}])
        sums = []
        for x, y in zip(fa, fb):
            total = dict(x)
            for c, m in y.items():
                total[c] = total.get(c, 0) + m
            sums.append({c: m for c, m in total.items() if m})
        assert content_log(series_product(a, b), [{}]) == sums

    @given(unit_families)
    def test_log_then_exp_round_trip(self, z):
        assert content_exp(content_log(z, [{}])) == z

    @given(zero_families)
    def test_exp_then_log_round_trip(self, f):
        assert content_log(content_exp(f), [{}]) == f

    def test_a_partial_log_extends_to_the_whole_log(self):
        # the route extends the f it keeps to each larger degree asked for
        rng = random.Random(0)
        for trial in range(40):
            z = [{0: 1}] + [{rng.randint(-4, 4): rng.randint(-9, 9)
                             for _ in range(rng.randint(0, 4))}
                            for _ in range(rng.randint(0, 7))]
            z = [{c: m for c, m in zn.items() if m} for zn in z]
            whole = content_log(z, [{}])
            assert content_log(z, []) == whole, trial
            for k in range(1, len(z) + 1):
                partial = content_log(z[:k], [{}])
                assert content_log(z, partial) == whole, (trial, k)
