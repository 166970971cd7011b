"""Closed form, the low-genus recursions, the sequences that the
recursion and character routes keep across calls, method dispatch, and
tables.

Pinned values, with where each comes from, are `KNOWN` in
test_acceptance.py, and the ranges on which the recursions must agree
with the character route and the closed form are rows of its
`AGREEMENT` (criteria 2, 5, 6 and 11): that is the one place to widen
them, and a value of the wrong sign fails there. The integer
recursions are also checked against the Fraction recursions they
replaced, copied below as a reference, in criterion 13 there. A table's
range is refused just past `routes.MAX_CELLS` in
`TestTable::test_range_errors`.
"""

import random
import sys
import threading
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from hurwitz import character, intersection, oracle, recursion
from hurwitz.character import connected_hurwitz, content_log, \
    factorization_count
from hurwitz.oracle import OracleBoundError
from hurwitz.recursion import RECURSIONS, h0_closed, h0_recursion, \
    h1_recursion, h2_recursion
from hurwitz.routes import (
    Method,
    MethodNotApplicableError,
    applicable_methods,
    build_table,
    hurwitz_value,
)

# the private lists of 2*H_{g,d} behind the public recursions, as the
# module seeds them
SEEDS = ([0, 2], [0], [0])


def reset_recursion_lists():
    for sequence, seed in zip(recursion._TWICE, SEEDS):
        sequence[:] = seed


def clear_connected_polynomials():
    # the character route's lists back to z_0 and f_0, all the route
    # keeps between calls
    character._CONTENT[:] = [{0: 1}]
    del character._CONNECTED[1:]


def direct_content_polynomial(n):
    # z_n summed straight from the partitions of n: hook-length dimension
    # squared at each content sum
    z = {}
    for lam in character.enumerate_partitions(n):
        c = character.content_sum(lam)
        z[c] = z.get(c, 0) + character.irrep_dimension(lam) ** 2
    return z


# The recursions as they were written in Fraction arithmetic, each term
# as in the docstrings, filled bottom-up like the package's; the integer
# recursions must return exactly these values


def _reference_fill(func, d):
    for i in range(1, d):
        func(i)


@cache
def reference_h0(d):
    if d == 1:
        return Fraction(1)
    _reference_fill(reference_h0, d)
    total = Fraction(0)
    for i in range(1, d):
        total += (comb(2 * d - 4, 2 * i - 2) * i ** 2 * (d - i) ** 2
                  * reference_h0(i) * reference_h0(d - i))
    return Fraction(2 * d - 3, d) * total


@cache
def reference_h1(d):
    _reference_fill(reference_h1, d)
    value = Fraction(d, 6) * comb(d, 2) * (2 * d - 1) * reference_h0(d)
    for i in range(1, d):
        value += (comb(2 * d - 2, 2 * i - 2) * (4 * d - 2) * i ** 2 * (d - i)
                  * reference_h0(i) * reference_h1(d - i))
    return value


@cache
def reference_h2(d):
    _reference_fill(reference_h2, d)
    value = (d ** 2 * (Fraction(97, 136) * d - Fraction(20, 17))
             * reference_h1(d))
    for i in range(1, d):
        value += (comb(2 * d, 2 * i - 2) * (8 * d - Fraction(115, 17) * i)
                  * i * (d - i) * reference_h0(i) * reference_h2(d - i))
        value += (comb(2 * d, 2 * i)
                  * (Fraction(11697, 34) * i * (d - i)
                     - Fraction(3899, 68) * d ** 2)
                  * i * (d - i) * reference_h1(i) * reference_h1(d - i))
    return value


class TestGenusZero:
    def test_bad_degree_rejected(self):
        for func in (h0_closed, h0_recursion):
            with pytest.raises(ValueError):
                func(0)


class TestIntegerRecursions:
    def test_twice_the_value_is_the_cached_integer(self):
        for genus, func in enumerate(RECURSIONS):
            for d in range(1, 21):
                value = func(d)
                twice = recursion._TWICE[genus][d]
                assert type(twice) is int
                assert 2 * value == twice, (genus, d)

    def test_a_step_with_a_remainder_raises(self, monkeypatch):
        # with 2*H_{0,d} replaced by 1 the genus-1 step at d=3 sums to
        # 5 * (9 + 6*2) = 105, which 6 does not divide
        monkeypatch.setattr(recursion, "_TWICE", ([0, 1, 1, 1], [0], [0]))
        with pytest.raises(ArithmeticError,
                           match="genus-1 recursion step at d=3 is "
                                 "not divisible by 6"):
            h1_recursion(3)
        monkeypatch.undo()
        assert h1_recursion(3) == 40


class TestStackDepth:
    def test_recursions_do_not_recurse_d_levels_deep(self):
        # d is far above the lowered limit; a memoised top-down recursion
        # needs about d nested calls and raises RecursionError here. Each
        # recursion starts with the integer lists at their seeds, genus 2
        # first, so every lower recursion it needs is filled cold under
        # the limit
        d = 150
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        values = {}
        sys.setrecursionlimit(depth + 50)
        try:
            for func in (h2_recursion, h1_recursion, h0_recursion):
                reset_recursion_lists()
                values[func] = func(d)
        finally:
            sys.setrecursionlimit(limit)
        assert values[h0_recursion] == h0_closed(d)
        assert all(value > 0 for value in values.values())


def in_threads(func, count=4):
    # func(i) in count threads started together; each must finish and
    # raise nothing
    errors = []
    start = threading.Barrier(count)

    def target(i):
        try:
            start.wait(timeout=60)
            func(i)
        except BaseException as exc:  # handed to the test thread below
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestSharedSequences:
    # each route keeps its values in lists that every caller in the
    # process extends; threads and the order of requests must not change
    # an entry or the length of a list
    def test_threads_extend_each_list_once(self):
        d_rec, d_char = 60, 12
        twice = [[0] + [2 * reference(d) for d in range(1, d_rec + 1)]
                 for reference in (reference_h0, reference_h1, reference_h2)]
        content = [direct_content_polynomial(n) for n in range(d_char + 1)]
        connected = content_log(content, [{}])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                reset_recursion_lists()
                in_threads(lambda i: h2_recursion(d_rec))
                assert list(recursion._TWICE) == twice, trial
                clear_connected_polynomials()
                in_threads(lambda i: connected_hurwitz(i, d_char))
                assert character._CONTENT == content, trial
                assert character._CONNECTED == connected, trial
                clear_connected_polynomials()
                in_threads(lambda i: factorization_count(d_char, i))
                assert character._CONTENT == content, trial
        finally:
            sys.setswitchinterval(interval)

    def test_any_order_of_requests_gives_the_same_values(self):
        reset_recursion_lists()
        clear_connected_polynomials()
        assert character._CONTENT == [{0: 1}]
        content = [direct_content_polynomial(n) for n in range(21)]
        orders = list(range(21))
        random.Random(20261017).shuffle(orders)
        for n in orders:
            assert character.content_polynomial(n) == content[n], n
        assert character._CONTENT == content
        # z_n is now known past most degrees below; f must still grow
        # only as far as the largest degree asked for
        references = (reference_h0, reference_h1, reference_h2)
        degrees = list(range(1, 25))
        random.Random(20261018).shuffle(degrees)
        for step, d in enumerate(degrees):
            for g, reference in enumerate(references):
                assert connected_hurwitz(g, d) == reference(d), (g, d)
            assert len(character._CONNECTED) == max(degrees[:step + 1]) + 1
        for func, reference in zip(RECURSIONS, references):
            for d in range(60, 0, -1):
                assert func(d) == reference(d), (func.__name__, d)


class TestDispatch:
    # a bound's refusal carries the text of the error that the route
    # raises on a direct call of the same genus-0 cell
    @pytest.mark.parametrize("method, d, direct, error", [
        (Method.ORACLE, 6, lambda d: oracle.oracle_connected(0, d),
         OracleBoundError),
        (Method.ELSV_G0, 41, intersection.elsv_genus0,
         intersection.IntersectionBoundError),
    ], ids=["oracle", "elsv-g0"])
    def test_a_bound_is_refused_with_the_direct_calls_text(self, method, d,
                                                           direct, error):
        with pytest.raises(error) as raised:
            direct(d)
        with pytest.raises(MethodNotApplicableError) as refused:
            hurwitz_value(0, d, method)
        assert str(refused.value) == str(raised.value)

    def test_applicable_methods(self):
        assert applicable_methods(0, 2) == [
            Method.CHARACTER, Method.RECURSION, Method.CLOSED_FORM,
            Method.ELSV_G0, Method.ORACLE,
        ]
        # r = 8 keeps the oracle in; genus 3 drops the recursions
        assert applicable_methods(3, 2) == [Method.CHARACTER, Method.ORACLE]
        # degree 12 is far outside the oracle bound
        assert applicable_methods(0, 12) == [
            Method.CHARACTER, Method.RECURSION, Method.CLOSED_FORM,
            Method.ELSV_G0,
        ]


class TestTable:
    def test_build_and_read_back(self):
        table = build_table(1, 4, Method.RECURSION)
        assert table[(0, 4)][Method.RECURSION] == 120
        assert table[(1, 2)][Method.RECURSION] == Fraction(1, 2)
        assert len(table) == 8

    def test_methods_do_not_collide(self):
        cell = build_table(0, 3)[(0, 3)]
        assert list(cell) == applicable_methods(0, 3)
        assert set(cell.values()) == {Fraction(4)}

    def test_range_errors(self):
        with pytest.raises(MethodNotApplicableError):
            build_table(3, 2, Method.RECURSION)
        with pytest.raises(MethodNotApplicableError):
            build_table(1, 2, Method.CLOSED_FORM)
        with pytest.raises(ValueError):
            build_table(-1, 2, Method.CHARACTER)
        with pytest.raises(ValueError):
            build_table(0, 0, Method.CHARACTER)
        # the edge of routes.MAX_CELLS: 1,000 cells are a table, 1,001
        # are not
        assert len(build_table(999, 1, Method.CHARACTER)) == 1000
        with pytest.raises(MethodNotApplicableError):
            build_table(1000, 1, Method.CHARACTER)

    # the first cell in (g, d) order that each method refuses comes after
    # cells it covers, so a table that computed before refusing would
    # call the route first. The refusal texts are the golden runs of
    # these ranges
    @pytest.mark.parametrize("g_max, d_max, method", [
        (0, 7, Method.ORACLE),
        (0, 41, Method.ELSV_G0),
        (3, 150, Method.RECURSION),
    ], ids=["oracle", "elsv-g0", "recursion"])
    def test_refuses_before_computing(self, monkeypatch, g_max, d_max,
                                      method):
        calls = []
        monkeypatch.setattr(oracle, "count_factorizations",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(intersection, "psi_integral_genus0",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(recursion, "h0_closed",
                            lambda *args: calls.append(args))
        reset_recursion_lists()
        with pytest.raises(MethodNotApplicableError):
            build_table(g_max, d_max, method)
        assert calls == []
        assert recursion._TWICE == SEEDS
