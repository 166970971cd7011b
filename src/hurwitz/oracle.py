"""Brute-force Hurwitz oracle: a state count over the symmetric group.

Independent of the character-sum route; used to cross-validate it on
small inputs. The oracle multiplies transpositions one at a time and
counts prefixes by state: the partial product permutation together with
the partition of the letters joined so far. Prefixes that reach the
same state have the same future, so each state carries one count
instead of one branch per tuple. No characters and no recursion are
involved; this is still enumeration over the group.
"""

from fractions import Fraction
from math import factorial

# guarded enumeration bound, stated in covers. The state count (Python
# 3.11, one core of a 2-CPU Xeon, min of 3) takes 0.015 s for (1,5)
# r=10, 0.17 s for (0,6) r=10 and 0.24 s for (1,6) r=12, so cost alone
# would allow more; the bound stays because it decides which cells
# applicable_methods gives the oracle, and with them the crosscheck
# output
MAX_DEGREE = 5
MAX_BRANCH_POINTS = 10

BACKEND = "python"


class OracleBoundError(ValueError):
    """Requested enumeration exceeds the guarded brute-force bound."""


def covers(g: int, d: int) -> str | None:
    """The refusal text, naming the limits, of a cell past the bound on
    d or on r = 2g - 2 + 2d; None inside it. Counts nothing."""
    r = 2 * g - 2 + 2 * d
    if d > MAX_DEGREE or r > MAX_BRANCH_POINTS:
        return (f"oracle bound exceeded: d={_full(d)}, r={_full(r)} "
                f"(limits: d <= {MAX_DEGREE}, r <= {MAX_BRANCH_POINTS})")
    return None


def _full(n: int) -> str:
    # str(n) refuses more digits than sys.get_int_max_str_digits(); an
    # integral Decimal prints in full
    from decimal import Decimal
    return str(Decimal(n))


def count_factorizations(d: int, r: int) -> tuple[int, int]:
    """Count r-tuples of transpositions of {0, ..., d-1} whose product is
    the identity.

    Returns (identity, transitive): the first counts every such tuple,
    the second only those whose transpositions connect all d letters.
    Unbounded entry point for tests and benchmarks; the Hurwitz-number
    wrapper below enforces the brute-force bound.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if r < 0:
        raise ValueError("r must be a nonnegative integer")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    start = tuple(range(d))
    # state: (product, block of each letter named by its smallest letter)
    states = {(start, start): 1}
    for _ in range(r):
        reached = {}
        for (perm, blocks), count in states.items():
            for i, j in pairs:
                p = list(perm)
                p[i], p[j] = p[j], p[i]
                p = tuple(p)
                a, b = blocks[i], blocks[j]
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    blocks_after = tuple(lo if x == hi else x for x in blocks)
                else:
                    blocks_after = blocks
                key = (p, blocks_after)
                reached[key] = reached.get(key, 0) + count
        states = reached
    identity = transitive = 0
    for (perm, blocks), count in states.items():
        if perm == start:
            identity += count
            if max(blocks) == 0:
                transitive += count
    return identity, transitive


def oracle_connected(g: int, d: int) -> Fraction:
    """H_{g,d} by brute force: count the tuples of r = 2g - 2 + 2d
    transpositions in the symmetric group on d letters whose product is
    the identity and whose transpositions connect all d letters, and
    divide by d!.

    A cell that covers refuses raises OracleBoundError with its text.
    """
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if (refusal := covers(g, d)) is not None:
        raise OracleBoundError(refusal)
    _, transitive = count_factorizations(d, 2 * g - 2 + 2 * d)
    return Fraction(transitive, factorial(d))
