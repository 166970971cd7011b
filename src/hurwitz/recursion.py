"""Closed form and low-genus recursions for Hurwitz numbers, plus the
method dispatch and cross-check table.

Each computation route is kept self-contained (the genus-1 and genus-2
recursions consume only recursion-route genus-0 values, never the
closed form), so that agreement between routes is a real check and not
a tautology. The memoised recursions fill their caches bottom-up, so
the stack depth does not grow with the degree. No simple recursion of
this shape is known beyond genus 2; requesting one is an error, not a
silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from math import comb, factorial

from . import character, intersection, oracle


class Method(str, Enum):
    """Computation route for a Hurwitz number."""

    CHARACTER = "character"
    RECURSION = "recursion"
    CLOSED_FORM = "closed_form"
    ELSV_G0 = "elsv_g0"
    ORACLE = "oracle"


MAX_RECURSION_GENUS = 2


class MethodNotApplicableError(ValueError):
    """The requested method does not cover the requested (genus, degree)."""


def _binomial(n: int, k: int) -> int:
    # table convention: zero outside 0 <= k <= n, never an error
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_degree(d: int) -> None:
    if d < 1:
        raise ValueError("d must be a positive integer")


def _fill_below(recursion, d: int) -> None:
    # evaluate the cached recursion on 1..d-1 in increasing order, so
    # the split sums below only hit the cache and the stack depth stays
    # bounded instead of growing with d
    for i in range(1, d):
        recursion(i)


@cache
def h0_closed(d: int) -> Fraction:
    """H_{0,d} in closed form: (2d-2)!/d! * d^(d-3).

    Exact for every d >= 1; for d <= 2 the power d^(d-3) is a rational
    with the exponent taken literally, which reproduces 1 and 1/2.
    """
    _check_degree(d)
    return Fraction(factorial(2 * d - 2), factorial(d)) * Fraction(d) ** (d - 3)


@cache
def h0_recursion(d: int) -> Fraction:
    """H_{0,d} by the genus-0 split recursion:

        H_{0,d} = (2d-3)/d * sum over i of
                  C(2d-4, 2i-2) i^2 (d-i)^2 H_{0,i} H_{0,d-i}

    with base case H_{0,1} = 1.
    """
    _check_degree(d)
    if d == 1:
        return Fraction(1)
    _fill_below(h0_recursion, d)
    total = Fraction(0)
    for i in range(1, d):
        total += (
            _binomial(2 * d - 4, 2 * i - 2)
            * i ** 2
            * (d - i) ** 2
            * h0_recursion(i)
            * h0_recursion(d - i)
        )
    return Fraction(2 * d - 3, d) * total


@cache
def h1_recursion(d: int) -> Fraction:
    """H_{1,d} by the genus-1 recursion:

        H_{1,d} = d/6 * C(d,2) * (2d-1) * H_{0,d}
                  + sum over i of C(2d-2, 2i-2) (4d-2) i^2 (d-i)
                    H_{0,i} H_{1,d-i}

    The genus-0 inputs come from the recursion route, keeping the whole
    computation independent of the closed form.
    """
    _check_degree(d)
    _fill_below(h0_recursion, d + 1)
    _fill_below(h1_recursion, d)
    value = Fraction(d, 6) * comb(d, 2) * (2 * d - 1) * h0_recursion(d)
    for i in range(1, d):
        value += (
            _binomial(2 * d - 2, 2 * i - 2)
            * (4 * d - 2)
            * i ** 2
            * (d - i)
            * h0_recursion(i)
            * h1_recursion(d - i)
        )
    return value


# genus-2 recursion coefficients, exact; no decimal approximations
_G2_CUBIC = Fraction(97, 136)
_G2_LINEAR = Fraction(20, 17)
_G2_SPLIT02_SLOPE = Fraction(115, 17)
_G2_SPLIT11_CROSS = Fraction(11697, 34)
_G2_SPLIT11_SQUARE = Fraction(3899, 68)


@cache
def h2_recursion(d: int) -> Fraction:
    """H_{2,d} by the genus-2 recursion: a cubic-coefficient multiple of
    H_{1,d} plus genus 0 x 2 and genus 1 x 1 split sums.

        H_{2,d} = d^2 (97/136 d - 20/17) H_{1,d}
                  + sum C(2d, 2i-2) (8d - 115/17 i) i(d-i) H_{0,i} H_{2,d-i}
                  + sum C(2d, 2i) (11697/34 i(d-i) - 3899/68 d^2) i(d-i)
                        H_{1,i} H_{1,d-i}

    All inputs come from the recursion route.
    """
    _check_degree(d)
    _fill_below(h1_recursion, d + 1)
    _fill_below(h2_recursion, d)
    value = d ** 2 * (_G2_CUBIC * d - _G2_LINEAR) * h1_recursion(d)
    for i in range(1, d):
        value += (
            _binomial(2 * d, 2 * i - 2)
            * (8 * d - _G2_SPLIT02_SLOPE * i)
            * i
            * (d - i)
            * h0_recursion(i)
            * h2_recursion(d - i)
        )
        value += (
            _binomial(2 * d, 2 * i)
            * (_G2_SPLIT11_CROSS * i * (d - i) - _G2_SPLIT11_SQUARE * d ** 2)
            * i
            * (d - i)
            * h1_recursion(i)
            * h1_recursion(d - i)
        )
    return value


_RECURSIONS = {0: h0_recursion, 1: h1_recursion, 2: h2_recursion}


def applicable_methods(g: int, d: int) -> list[Method]:
    """Every method that covers (g, d), in enum order.

    The character sum always applies; recursions stop at genus 2; the
    closed form and the intersection formula are genus 0 only; the
    brute-force oracle only within its enumeration bound.
    """
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    _check_degree(d)
    methods = [Method.CHARACTER]
    if g <= MAX_RECURSION_GENUS:
        methods.append(Method.RECURSION)
    if g == 0:
        methods.append(Method.CLOSED_FORM)
        methods.append(Method.ELSV_G0)
    r = character.branch_count(g, d)
    if d <= oracle.MAX_DEGREE and r <= oracle.MAX_BRANCH_POINTS:
        methods.append(Method.ORACLE)
    return methods


def hurwitz_value(g: int, d: int, method: Method) -> Fraction:
    """H_{g,d} by the requested method.

    Raises MethodNotApplicableError when the method does not cover the
    cell, and lets the oracle's own bound error pass through.
    """
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    _check_degree(d)
    method = Method(method)
    if method is Method.CHARACTER:
        return character.connected_hurwitz(g, d)
    if method is Method.RECURSION:
        if g > MAX_RECURSION_GENUS:
            raise MethodNotApplicableError(
                f"no recursion is available for genus {g} "
                f"(recursions stop at genus {MAX_RECURSION_GENUS})"
            )
        return _RECURSIONS[g](d)
    if method is Method.CLOSED_FORM:
        if g != 0:
            raise MethodNotApplicableError("closed form is genus 0 only")
        return h0_closed(d)
    if method is Method.ELSV_G0:
        if g != 0:
            raise MethodNotApplicableError(
                "the intersection formula is genus 0 only"
            )
        if d in intersection.DEGENERATE_DEGREES:
            return intersection.DEGENERATE_DEGREES[d]
        return intersection.elsv_genus0(d)
    if method is Method.ORACLE:
        return oracle.oracle_connected(g, d)
    raise MethodNotApplicableError(f"unknown method {method!r}")


@dataclass
class HurwitzTable:
    """Values keyed by (genus, degree, method), all exact rationals.

    Methods are kept separate so that a cross-check compares genuinely
    independent computations instead of silently sharing a cache.
    """

    entries: dict[tuple[int, int, Method], Fraction] = field(
        default_factory=dict
    )

    def set(self, g: int, d: int, method: Method, value: Fraction) -> None:
        self.entries[(g, d, Method(method))] = Fraction(value)

    def get(self, g: int, d: int, method: Method) -> Fraction:
        return self.entries[(g, d, Method(method))]

    def cell(self, g: int, d: int) -> dict[Method, Fraction]:
        """All stored method values for one (genus, degree) cell."""
        return {
            m: v for (gg, dd, m), v in self.entries.items()
            if (gg, dd) == (g, d)
        }

    def conflicts(self) -> list[tuple[int, int, dict[Method, Fraction]]]:
        """Cells where stored methods disagree; empty means consistent."""
        cells = sorted({(g, d) for (g, d, _m) in self.entries})
        bad = []
        for g, d in cells:
            values = self.cell(g, d)
            if len(set(values.values())) > 1:
                bad.append((g, d, values))
        return bad


def build_table(g_max: int, d_max: int, method: Method) -> HurwitzTable:
    """H_{g,d} for 0 <= g <= g_max, 1 <= d <= d_max by one method.

    The method must cover the whole requested range: asking for the
    recursion route beyond genus 2, or a genus-0-only route with
    g_max > 0, is an error before any cell is computed.
    """
    if g_max < 0:
        raise ValueError("g_max must be a nonnegative integer")
    _check_degree(d_max)
    method = Method(method)
    if method is Method.RECURSION and g_max > MAX_RECURSION_GENUS:
        raise MethodNotApplicableError(
            f"no recursion is available for genus {g_max} "
            f"(recursions stop at genus {MAX_RECURSION_GENUS})"
        )
    if method in (Method.CLOSED_FORM, Method.ELSV_G0) and g_max > 0:
        raise MethodNotApplicableError(
            f"{method.value} covers genus 0 only"
        )
    table = HurwitzTable()
    for g in range(g_max + 1):
        for d in range(1, d_max + 1):
            table.set(g, d, method, hurwitz_value(g, d, method))
    return table
