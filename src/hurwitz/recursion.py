"""Closed form and low-genus recursions for Hurwitz numbers.

Each computation route is kept self-contained (the genus-1 and genus-2
recursions consume only recursion-route genus-0 values, never the
closed form), so that agreement between routes is a real check and not
a tautology. The memoised recursions fill their caches bottom-up, so
the stack depth does not grow with the degree. No simple recursion of
this shape is known beyond genus 2; the method dispatch treats a request
for one as an error, not a silent fallback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

MAX_RECURSION_GENUS = 2


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
            comb(2 * d - 4, 2 * i - 2)
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
            comb(2 * d - 2, 2 * i - 2)
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
            comb(2 * d, 2 * i - 2)
            * (8 * d - _G2_SPLIT02_SLOPE * i)
            * i
            * (d - i)
            * h0_recursion(i)
            * h2_recursion(d - i)
        )
        value += (
            comb(2 * d, 2 * i)
            * (_G2_SPLIT11_CROSS * i * (d - i) - _G2_SPLIT11_SQUARE * d ** 2)
            * i
            * (d - i)
            * h1_recursion(i)
            * h1_recursion(d - i)
        )
    return value


# indexed by genus, up to MAX_RECURSION_GENUS
RECURSIONS = (h0_recursion, h1_recursion, h2_recursion)
