"""Closed form, low-genus recursions, method dispatch, and tables.

Every recursion is checked against the character route, which is
computed from an entirely different formula; the genus-0 closed form
doubles as a third opinion. Frozen small values: the degenerate degrees
are pinned by hand (a degree-1 or -2 cover is determined by its branch
points up to the hyperelliptic involution), H_{1,3} = 40 and
H_{2,3} = 364 come with the recursions' source, and H_{1,4} = 5460 was
frozen from the brute-force oracle (131040 transitive tuples / 4!).
"""

import sys
from fractions import Fraction

import pytest

from hurwitz import intersection, oracle
from hurwitz.character import connected_hurwitz
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

H0_KNOWN = [
    Fraction(1), Fraction(1, 2), Fraction(4), Fraction(120),
    Fraction(8400), Fraction(1088640),
]


class TestGenusZero:
    def test_closed_form_known_values(self):
        assert h0_closed(1) == 1
        assert h0_closed(2) == Fraction(1, 2)
        assert h0_closed(4) == 120
        for d, value in enumerate(H0_KNOWN, start=1):
            assert h0_closed(d) == value

    def test_recursion_base_and_first_step(self):
        assert h0_recursion(1) == 1
        assert h0_recursion(3) == 4

    def test_recursion_matches_closed_form_up_to_12(self):
        for d in range(1, 13):
            assert h0_recursion(d) == h0_closed(d), d

    def test_matches_character_route_up_to_6(self):
        for d in range(1, 7):
            assert h0_closed(d) == connected_hurwitz(0, d), d

    def test_matches_character_route_from_7_to_14(self):
        for d in range(7, 15):
            assert h0_recursion(d) == connected_hurwitz(0, d), d

    def test_character_route_matches_closed_form_up_to_20(self):
        for d in range(1, 21):
            assert connected_hurwitz(0, d) == h0_closed(d), d

    def test_bad_degree_rejected(self):
        for func in (h0_closed, h0_recursion):
            with pytest.raises(ValueError):
                func(0)


class TestGenusOne:
    def test_known_values(self):
        assert h1_recursion(1) == 0
        assert h1_recursion(2) == Fraction(1, 2)
        assert h1_recursion(3) == 40
        assert h1_recursion(4) == 5460

    def test_matches_character_route_up_to_6(self):
        for d in range(1, 7):
            assert h1_recursion(d) == connected_hurwitz(1, d), d

    def test_matches_character_route_from_7_to_14(self):
        for d in range(7, 15):
            assert h1_recursion(d) == connected_hurwitz(1, d), d


class TestGenusTwo:
    def test_known_values(self):
        assert h2_recursion(1) == 0
        assert h2_recursion(2) == Fraction(1, 2)
        assert h2_recursion(3) == 364

    def test_matches_character_route_up_to_6(self):
        for d in range(1, 7):
            assert h2_recursion(d) == connected_hurwitz(2, d), d

    def test_matches_character_route_from_7_to_14(self):
        for d in range(7, 15):
            assert h2_recursion(d) == connected_hurwitz(2, d), d

    def test_values_are_nonnegative(self):
        for d in range(1, 9):
            assert h2_recursion(d) >= 0


class TestStackDepth:
    def test_recursions_do_not_recurse_d_levels_deep(self):
        # d is far above the lowered limit; a memoised top-down recursion
        # needs about d nested calls and raises RecursionError here. Each
        # recursion starts with all three caches empty, genus 2 first, so
        # every lower recursion it needs is filled cold under the limit
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
                for cached in RECURSIONS:
                    cached.cache_clear()
                values[func] = func(d)
        finally:
            sys.setrecursionlimit(limit)
        assert values[h0_recursion] == h0_closed(d)
        assert all(value > 0 for value in values.values())


class TestDispatch:
    def test_every_method_on_an_easy_cell(self):
        for method in Method:
            assert hurwitz_value(0, 3, method) == 4, method

    def test_degenerate_degrees_reach_every_genus_zero_method(self):
        for method in (Method.CLOSED_FORM, Method.ELSV_G0,
                       Method.RECURSION, Method.CHARACTER, Method.ORACLE):
            assert hurwitz_value(0, 1, method) == 1, method
            assert hurwitz_value(0, 2, method) == Fraction(1, 2), method

    def test_genus_restrictions(self):
        with pytest.raises(MethodNotApplicableError):
            hurwitz_value(3, 2, Method.RECURSION)
        with pytest.raises(MethodNotApplicableError):
            hurwitz_value(1, 2, Method.CLOSED_FORM)
        with pytest.raises(MethodNotApplicableError):
            hurwitz_value(1, 2, Method.ELSV_G0)

    def test_oracle_bound_is_refused_with_its_cause(self):
        with pytest.raises(MethodNotApplicableError) as refused:
            hurwitz_value(0, 6, Method.ORACLE)
        assert isinstance(refused.value.__cause__, OracleBoundError)
        assert str(refused.value) == str(refused.value.__cause__)

    def test_intersection_bound_is_refused_with_its_cause(self):
        with pytest.raises(MethodNotApplicableError) as refused:
            hurwitz_value(0, 41, Method.ELSV_G0)
        cause = refused.value.__cause__
        assert isinstance(cause, intersection.IntersectionBoundError)
        assert str(refused.value) == str(cause)

    def test_method_accepts_plain_strings(self):
        assert hurwitz_value(1, 2, "recursion") == Fraction(1, 2)

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

    # the first cell in (g, d) order that each method refuses comes after
    # cells it covers, so a table that computed before refusing would
    # call the route first
    @pytest.mark.parametrize("g_max, d_max, method, message", [
        (0, 7, Method.ORACLE,
         "oracle bound exceeded: d=6, r=10 (limits: d <= 5, r <= 10)"),
        (0, 41, Method.ELSV_G0,
         "intersection bound exceeded: d=41 (limit: d <= 40)"),
        (3, 150, Method.RECURSION,
         "no recursion is available for genus 3 "
         "(recursions stop at genus 2)"),
    ], ids=["oracle", "elsv-g0", "recursion"])
    def test_refuses_before_computing(self, monkeypatch, g_max, d_max,
                                      method, message):
        calls = []
        monkeypatch.setattr(oracle, "count_factorizations",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(intersection, "psi_integral_genus0",
                            lambda *args: calls.append(args))
        cached = (h0_closed, h0_recursion, h1_recursion, h2_recursion)
        for func in cached:
            func.cache_clear()
        with pytest.raises(MethodNotApplicableError) as refused:
            build_table(g_max, d_max, method)
        assert str(refused.value) == message
        assert calls == []
        assert [func.cache_info().currsize for func in cached] == [0] * 4
