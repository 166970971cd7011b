"""Hurwitz numbers from symmetric-group character sums.

The disconnected count of degree-d covers with r simple branch points
is a transposition-factorization count in the symmetric group, computed
exactly as a sum over partitions of d of (dimension)^2 (content sum)^r
divided by d!. It depends on r only through the content sums, so each
degree is summarized once by an integer content polynomial

    z_n(q) = sum over partitions of n of dim^2 q^(content sum).

Connected counts come from the exponential formula: the generating
series sum z_n(q) x^n / (n!)^2 has logarithm sum f_n(q) x^n / (n!)^2,
and the integer polynomials f_n follow from the division-free
recurrence

    f_n = z_n - sum over 1 <= k < n of C(n-1, k-1) C(n, k) f_k z_{n-k}.

Then H_{g,d} = sum over c of [q^c] f_d * c^r / (d!)^2 with r = 2g-2+2d,
for every genus from the same f_d.

The route keeps z_0, z_1, ... and f_0, f_1, ... in two private lists
for the life of the process and extends each in increasing degree when
a degree past its end is asked for, so each z_n and each f_n is computed
once per process, however many degrees a table or cross-check walks.
Each entry is stored at its index rather than appended, so two threads
that extend a list at once store the same value twice instead of
shifting later entries.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .partitions import content_sum, enumerate_partitions, irrep_dimension


def content_polynomial(n: int) -> dict[int, int]:
    """z_n as {content sum: sum of dim^2 over partitions of n with that
    content sum}; z_0 = {0: 1}. The returned dict is shared; do not
    mutate it.
    """
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    # z_m reads no earlier entry, so threads that extend the list at once
    # store equal values at one index
    for m in range(len(_CONTENT), n + 1):
        z: dict[int, int] = {}
        for lam in enumerate_partitions(m):
            c = content_sum(lam)
            z[c] = z.get(c, 0) + irrep_dimension(lam) ** 2
        _CONTENT[m:m + 1] = [z]
    return _CONTENT[n]


def content_log(z: list[dict[int, int]]) -> list[dict[int, int]]:
    """Connected parts f_0, ..., f_N of integer Laurent polynomials
    z_0 = 1, z_1, ..., z_N, given as {exponent: coefficient} dicts.

    f_0 is zero ({}); for n >= 1, f_n = z_n minus the sum over k < n of
    C(n-1, k-1) C(n, k) f_k z_{n-k}, which is the logarithm of
    sum z_n x^n / (n!)^2 scaled by (n!)^2. Zero coefficients are dropped.
    """
    if not z or z[0] != {0: 1}:
        raise ValueError("z_0 must be the constant polynomial 1")
    return _extend_log(z, [{}])


def _extend_log(z, f):
    # f extended in place through f_{len(z)-1}; f_n reads only f_k, k < n.
    # f_n is stored at index n, never appended, so two threads that extend
    # the same list store the same value twice instead of shifting entries
    for n in range(len(f), len(z)):
        fn = dict(z[n])
        for k in range(1, n):
            weight = comb(n - 1, k - 1) * comb(n, k)
            for a, x in f[k].items():
                x *= weight
                for b, y in z[n - k].items():
                    fn[a + b] = fn.get(a + b, 0) - x * y
        f[n:n + 1] = [{c: m for c, m in fn.items() if m}]
    return f


# z_0, z_1, ... and f_0, f_1, ... of this route, extended in increasing
# degree
_CONTENT: list[dict[int, int]] = [{0: 1}]
_CONNECTED: list[dict[int, int]] = [{}]


# factorization_count and connected_hurwitz stay cached only because
# perfbench/replay.py reads their cache_info() for character.cache_hits
# and character.cache_misses; both caches can go once it counts the
# lengths of the two lists instead
@cache
def factorization_count(d: int, r: int) -> int:
    """Number of r-tuples of transpositions in the symmetric group on d
    letters whose product is the identity.

    Exact integer via the character sum (1/d!) * sum over partitions of
    (dim)^2 (content sum)^r; a non-integral or negative sum means the
    inputs or the table of statistics are corrupt and raises.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if r < 0:
        raise ValueError("r must be a nonnegative integer")
    total = sum(m * c ** r for c, m in content_polynomial(d).items())
    count, rem = divmod(total, factorial(d))
    if rem:
        raise ArithmeticError(
            f"character sum for d={d}, r={r} is not divisible by d!"
        )
    if count < 0:
        raise ArithmeticError(f"character sum for d={d}, r={r} is negative")
    return count


def disconnected_hurwitz(d: int, r: int) -> Fraction:
    """Disconnected degree-d count with r simple branch points:
    factorization count divided by d! (covers weighted by 1/|Aut|).
    """
    return Fraction(factorization_count(d, r), factorial(d))


@cache
def connected_hurwitz(g: int, d: int) -> Fraction:
    """Hurwitz number H_{g,d}: connected genus-g degree-d covers of the
    projective line with r = 2g - 2 + 2d simple branch points, each
    cover weighted by 1/|Aut|.

    Read off the connected content polynomial f_d.
    """
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    if d < 1:
        raise ValueError("d must be a positive integer")
    r = 2 * g - 2 + 2 * d
    content_polynomial(d)
    # the slice keeps f from growing past d when _CONTENT is longer
    f = _extend_log(_CONTENT[:d + 1], _CONNECTED)
    total = sum(m * c ** r for c, m in f[d].items())
    return Fraction(total, factorial(d) ** 2)
