"""Reference Hurwitz numbers the benchmark checks CLI output against.

None of these come from the code under test. Genus 0 and genus 1 use
closed forms in this file's own integer arithmetic; higher genus reads
reference.json, which make_reference.py generated once and which two
independent routes agreed on.
"""

import json
from fractions import Fraction
from functools import cache
from math import comb, factorial
from pathlib import Path

_TABLE = Path(__file__).resolve().parent / "reference.json"


def format_rational(value):
    """The CLI's rational spelling: lowest-terms 'a/b', or 'a'."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def genus0(d):
    """H_{0,d} = (2d-2)!/d! * d^(d-3) (Hurwitz's formula)."""
    return Fraction(factorial(2 * d - 2), factorial(d)) * Fraction(d) ** (d-3)


def genus1(d):
    """H_{1,d} = (2d)!/(24 d!) * (d^d - d^(d-1)
    - sum_{k=2}^{d} (k-2)! C(d,k) d^(d-k)) (Vakil; Goulden-Jackson)."""
    inner = d ** d - d ** (d - 1) - sum(
        factorial(k - 2) * comb(d, k) * d ** (d - k) for k in range(2, d + 1)
    )
    return Fraction(factorial(2 * d) * inner, 24 * factorial(d))


@cache
def _stored():
    raw = json.loads(_TABLE.read_text())["values"]
    return {
        tuple(map(int, key.split(","))): Fraction(value)
        for key, value in raw.items()
    }


def hurwitz(g, d):
    """Reference H_{g,d}; KeyError for a cell no reference covers."""
    if g == 0:
        return genus0(d)
    if g == 1:
        return genus1(d)
    return _stored()[(g, d)]


def covered(g, d):
    return g in (0, 1) or (g, d) in _stored()
