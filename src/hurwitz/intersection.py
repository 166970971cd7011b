"""Genus-0 psi-class intersection numbers and the Hurwitz count they give.

On the moduli space of stable genus-0 curves with n marked points, the
top intersection of psi-power classes is a multinomial coefficient.
Summing them with the right combinatorial prefactor reproduces the
genus-0 Hurwitz numbers, giving a route independent of both the
character sum and the recursions. The integrals are symmetric in the
marked points, so the sum is taken once per exponent multiset and
weighted by its number of arrangements.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

# genus-0 covers of degrees 1 and 2 fall outside the intersection
# formula (fewer than three marked points); elsv_genus0 returns these
# pinned values for them
DEGENERATE_DEGREES = {1: Fraction(1), 2: Fraction(1, 2)}

# guarded degree bound, stated in covers. The sum has p(d-3) terms, so
# its cost grows faster than any polynomial in d: elsv_genus0 takes
# 0.20 s at d=35, 0.63 s at d=40, 1.8 s at d=45 and 29.5 s at d=60
# (Python 3.11, one core of a 2-CPU Xeon)
MAX_DEGREE = 40


class IntersectionBoundError(ValueError):
    """Requested degree exceeds the guarded bound of the psi-integral sum."""


def covers(g: int, d: int) -> str | None:
    """The refusal text of a cell of genus other than 0, or of a degree
    past MAX_DEGREE, naming the limit; None inside. Sums nothing."""
    if g != 0:
        return "the intersection formula is genus 0 only"
    if d > MAX_DEGREE:
        return (f"intersection bound exceeded: d={_full(d)} "
                f"(limit: d <= {MAX_DEGREE})")
    return None


def _full(n: int) -> str:
    # str(n) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full
    from decimal import Decimal
    return str(Decimal(n))


def psi_integral_genus0(exponents: tuple[int, ...]) -> int:
    """Integral of psi_1^a_1 ... psi_n^a_n over the moduli space of
    stable genus-0 curves with n marked points.

    Equals the multinomial coefficient (n-3)! / (a_1! ... a_n!) when the
    exponents sum to n - 3 (the dimension), and 0 otherwise.
    """
    exponents = tuple(exponents)
    n = len(exponents)
    if n < 3:
        raise ValueError("need at least three marked points")
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    if sum(exponents) != n - 3:
        return 0
    value = factorial(n - 3)
    for a in exponents:
        value //= factorial(a)
    return value


def _exponent_multisets(total: int, slots: int, largest: int | None = None):
    # non-increasing tuples of `slots` nonnegative ints summing to `total`,
    # each entry at most `largest`
    if largest is None:
        largest = total
    if total == 0:
        yield (0,) * slots
        return
    for first in range(min(total, largest), 0, -1):
        if first * slots < total:
            return
        for rest in _exponent_multisets(total - first, slots - 1, first):
            yield (first, *rest)


def elsv_genus0(d: int) -> Fraction:
    """Genus-0 Hurwitz number H_{0,d} from psi-integrals:
    (2d-2)!/d! times the sum of psi_integral_genus0 over all exponent
    vectors of length d.

    The integral is symmetric in the marked points, so the sum runs over
    exponent multisets (non-increasing vectors), each weighted by its
    d!/(m_1! m_2! ...) arrangements, where the m_i are the multiplicities
    of the distinct exponents.

    The formula needs d >= 3; degrees 1 and 2 return their pinned
    values from DEGENERATE_DEGREES. A degree that covers refuses raises
    IntersectionBoundError with its text.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if (refusal := covers(0, d)) is not None:
        raise IntersectionBoundError(refusal)
    if d in DEGENERATE_DEGREES:
        return DEGENERATE_DEGREES[d]
    total = 0
    for exponents in _exponent_multisets(d - 3, d):
        arrangements = factorial(d)
        for multiplicity in Counter(exponents).values():
            arrangements //= factorial(multiplicity)
        total += arrangements * psi_integral_genus0(exponents)
    return Fraction(factorial(2 * d - 2), factorial(d)) * total


def elsv_value(g: int, d: int) -> Fraction:
    """elsv_genus0(d) as a function of the cell, for the cells that
    covers admits: g is 0 there."""
    return elsv_genus0(d)
