"""Closed form and low-genus recursions for Hurwitz numbers.

The module hosts two routes, each stated by a covers function and a
value function of the cell: closed_covers and closed_value, and
recursion_covers and recursion_value. Each route is kept self-contained
(the genus-1 and genus-2 recursions consume only recursion-route genus-0
values, never the closed form, and the closed form reads no recursion),
so that agreement between routes is a real check and not a tautology.
No simple recursion of this shape is known beyond genus 2;
recursion_covers refuses a request for one, with no silent fallback.

The recursions run in integers. Each genus keeps one private list of the
integers 2*H_{g,d}, indexed by d and held for the life of the process. A
request past its end extends the lower genera and then its own genus in
increasing degree, one step per degree; each step reads earlier entries
by index and calls no other step, so the stack depth does not grow with
the degree. Each entry is stored at its index rather than appended, so
two threads that extend a list at once store the same value twice
instead of shifting later entries. The public functions return
Fraction(2*H_{g,d}, 2). Twice a Hurwitz number is always an integer: for
d >= 3 a connected cover with a simple branch point has no automorphism,
so H_{g,d} itself is an integer, and d <= 2 gives 1, 1/2 or 0. Written
in these integers, each step is an integer sum followed by one exact
division, by 2d in genus 0, 6 in genus 1 and 272 in genus 2 (the genus-2
coefficients multiplied through). A step whose division leaves a
remainder raises ArithmeticError instead of returning a value that is
not a Hurwitz number. In genus 0 the split sum's terms for i and d-i are
equal, so each pair is summed once. Each step carries its binomial
coefficients from one term to the next, by one exact multiply and
divide, instead of computing each one afresh.

Cost (Python 3.11.7 on one core of a shared 2-CPU Xeon, median of seven
runs, each from the lists' seeds; each range spans three sets, which
alternated with steps that called math.comb once per term and took 1.0
to 2.2 times as long): h0_recursion takes 7-12 ms at d=148 and
0.7-1.0 s at d=500, h1_recursion 22-36 ms at d=146, and h2_recursion
4-7 ms at d=60 and 55-91 ms at d=150. h0_closed takes 0.15 ms at d=500.
"""

from fractions import Fraction
from math import factorial


def _check_degree(d: int) -> None:
    if d < 1:
        raise ValueError("d must be a positive integer")


def _exact(numerator: int, divisor: int, g: int, d: int) -> int:
    # the quotient of one recursion step, which must be an integer
    quotient, rem = divmod(numerator, divisor)
    if rem:
        raise ArithmeticError(
            f"genus-{g} recursion step at d={d} is not divisible by {divisor}"
        )
    return quotient


def h0_closed(d: int) -> Fraction:
    """H_{0,d} in closed form: (2d-2)!/d! * d^(d-3).

    Exact for every d >= 1. Computed as (2d-2)!/d! * d^(d-1) over d^2:
    the quotient of factorials is an integer (2d-2 >= d from d = 2 on,
    and 0!/1! = 1), so the one fraction reduced is an integer over d^2,
    which reproduces 1 and 1/2 at d = 1 and 2, where d^(d-3) is a
    negative power.
    """
    _check_degree(d)
    return Fraction(factorial(2 * d - 2) // factorial(d) * d ** (d - 1),
                    d * d)


# 2*H_{g,d} for g = 0, 1, 2, indexed by d; index 0 holds an unused 0
_TWICE = ([0, 2], [0], [0])


def _step_h0(d: int) -> int:
    # 2*H_{0,d} = (2d-3)/(2d) * sum over i of
    #             C(2d-4, 2i-2) i^2 (d-i)^2 (2*H_{0,i}) (2*H_{0,d-i}),
    # where the terms for i and d-i are equal
    h0 = _TWICE[0]
    n = 2 * d - 4
    binomial = 1  # C(n, 2i-2), carried from each i to the next
    pairs = 0
    for i in range(1, (d + 1) // 2):  # i < d - i
        pairs += binomial * (i * (d - i)) ** 2 * h0[i] * h0[d - i]
        k = 2 * i - 2
        binomial = binomial * (n - k) * (n - k - 1) // ((k + 1) * (k + 2))
    total = 2 * pairs
    if d % 2 == 0:  # binomial is C(2d-4, d-2) now
        half = d // 2
        total += binomial * half ** 4 * h0[half] ** 2
    return _exact((2 * d - 3) * total, 2 * d, 0, d)


def _step_h1(d: int) -> int:
    # 2*H_{1,d} = (2d-1)/6 * (d C(d,2) (2*H_{0,d})
    #             + 6 * sum over i of C(2d-2, 2i-2) i^2 (d-i)
    #                   (2*H_{0,i}) (2*H_{1,d-i}))
    h0, h1 = _TWICE[0], _TWICE[1]
    n = 2 * d - 2
    binomial = 1  # C(n, 2i-2), carried from each i to the next
    splits = 0
    for i in range(1, d):
        splits += binomial * i * i * (d - i) * h0[i] * h1[d - i]
        k = 2 * i - 2
        binomial = binomial * (n - k) * (n - k - 1) // ((k + 1) * (k + 2))
    total = d * (d * (d - 1) // 2) * h0[d] + 6 * splits
    return _exact((2 * d - 1) * total, 6, 1, d)


def _step_h2(d: int) -> int:
    # 2*H_{2,d} = 1/272 * (2 d^2 (97d - 160) (2*H_{1,d})
    #   + sum C(2d, 2i-2) (1088d - 920i) i(d-i) (2*H_{0,i}) (2*H_{2,d-i})
    #   + sum C(2d, 2i) (46788 i(d-i) - 7798 d^2) i(d-i)
    #         (2*H_{1,i}) (2*H_{1,d-i})).
    # Both sides are multiplied by 2*272. H_{1,d} is (2*H_{1,d})/2, so
    # the first term's coefficients are multiplied by 272: 97/136 and
    # 20/17 give 194 = 2*97 and 320 = 2*160. A product of two values is
    # a product of two doubled values over 4, so the split sums' are
    # multiplied by 136: 8, 115/17, 11697/34 and 3899/68 give 1088, 920,
    # 46788 and 7798
    h0, h1, h2 = _TWICE
    total = 2 * d * d * (97 * d - 160) * h1[d]
    n = 2 * d
    low, high = 1, n * (n - 1) // 2  # C(n, 2i-2) and C(n, 2i), carried
    for i in range(1, d):
        j = d - i
        total += low * (1088 * d - 920 * i) * i * j * h0[i] * h2[j]
        total += high * (46788 * i * j - 7798 * d * d) * i * j * h1[i] * h1[j]
        k = 2 * i
        low, high = high, high * (n - k) * (n - k - 1) // ((k + 1) * (k + 2))
    return _exact(total, 272, 2, d)


def _twice(g: int, d: int) -> int:
    # 2*H_{g,d}: the lower genera are extended through d first, since a
    # step reads them up to its own degree and its own genus below it;
    # no step calls another, so the stack depth does not grow with d
    _check_degree(d)
    for seq, step in zip(_TWICE[:g + 1], (_step_h0, _step_h1, _step_h2)):
        for n in range(len(seq), d + 1):
            seq[n:n + 1] = [step(n)]
    return _TWICE[g][d]


def h0_recursion(d: int) -> Fraction:
    """H_{0,d} by the genus-0 split recursion:

        H_{0,d} = (2d-3)/d * sum over i of
                  C(2d-4, 2i-2) i^2 (d-i)^2 H_{0,i} H_{0,d-i}

    with base case H_{0,1} = 1.
    """
    return Fraction(_twice(0, d), 2)


def h1_recursion(d: int) -> Fraction:
    """H_{1,d} by the genus-1 recursion:

        H_{1,d} = d/6 * C(d,2) * (2d-1) * H_{0,d}
                  + sum over i of C(2d-2, 2i-2) (4d-2) i^2 (d-i)
                    H_{0,i} H_{1,d-i}

    The genus-0 inputs come from the recursion route, keeping the whole
    computation independent of the closed form.
    """
    return Fraction(_twice(1, d), 2)


def h2_recursion(d: int) -> Fraction:
    """H_{2,d} by the genus-2 recursion: a cubic-coefficient multiple of
    H_{1,d} plus genus 0 x 2 and genus 1 x 1 split sums.

        H_{2,d} = d^2 (97/136 d - 20/17) H_{1,d}
                  + sum C(2d, 2i-2) (8d - 115/17 i) i(d-i) H_{0,i} H_{2,d-i}
                  + sum C(2d, 2i) (11697/34 i(d-i) - 3899/68 d^2) i(d-i)
                        H_{1,i} H_{1,d-i}

    All inputs come from the recursion route.
    """
    return Fraction(_twice(2, d), 2)


# indexed by genus
RECURSIONS = (h0_recursion, h1_recursion, h2_recursion)
MAX_RECURSION_GENUS = len(RECURSIONS) - 1


def _full(n: int) -> str:
    # str(n) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full
    from decimal import Decimal
    return str(Decimal(n))


def closed_covers(g: int, d: int) -> str | None:
    """The closed form's refusal text for a cell of genus other than 0;
    None at genus 0."""
    return "closed form is genus 0 only" if g != 0 else None


def closed_value(g: int, d: int) -> Fraction:
    """h0_closed(d) as a function of the cell, for the cells that
    closed_covers admits: g is 0 there."""
    return h0_closed(d)


def recursion_covers(g: int, d: int) -> str | None:
    """The recursions' refusal text for a genus past
    MAX_RECURSION_GENUS, which prints the genus in full; None below."""
    if g > MAX_RECURSION_GENUS:
        return (f"no recursion is available for genus {_full(g)} "
                f"(recursions stop at genus {MAX_RECURSION_GENUS})")
    return None


def recursion_value(g: int, d: int) -> Fraction:
    """H_{g,d} by the genus-g recursion, for the cells that
    recursion_covers admits."""
    return RECURSIONS[g](d)
