"""Integer partitions and the symmetric-group statistics built on them.

Partitions are plain tuples of weakly decreasing positive ints. The two
statistics that matter downstream are the irreducible-representation
dimension (hook-length formula) and the content sum, which together feed
the character-sum count of transposition factorizations.
"""

from math import factorial


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if parts is weakly decreasing with strictly positive entries."""
    return all(p >= 1 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def _check_partition(parts: tuple[int, ...]) -> None:
    if not is_partition(tuple(parts)):
        raise ValueError(f"not a partition: {parts!r}")


def _descending(n: int, largest: int):
    # all partitions of n with parts <= largest, largest part first
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _descending(n - first, first):
            yield (first, *rest)


def enumerate_partitions(d: int) -> list[tuple[int, ...]]:
    """All partitions of d in reverse-lexicographic order.

    The first entry is (d,) and the last is (1,)*d; for d=0 the single
    empty partition is returned.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    return list(_descending(d, d))


def partition_count(d: int) -> int:
    """p(d), the number of partitions of d."""
    return len(enumerate_partitions(d))


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    parts = tuple(parts)
    _check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def irrep_dimension(parts: tuple[int, ...]) -> int:
    """Dimension of the irreducible representation of the symmetric group
    indexed by the partition, via the hook-length formula.

    The cell (i, j) of the diagram has hook length
    (row length - j) + (column length - i) - 1, and the dimension is
    d! divided by the product of all hook lengths.
    """
    parts = tuple(parts)
    _check_partition(parts)
    if not parts:
        return 1
    conj = conjugate_partition(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    dim, rem = divmod(factorial(sum(parts)), hooks)
    if rem:  # the hook product always divides d!
        raise ArithmeticError(f"hook product does not divide d! for {parts!r}")
    return dim


def content_sum(parts: tuple[int, ...]) -> int:
    """Sum of the contents j - i over all cells (i, j) of the diagram,
    rows and columns 1-indexed.

    Antisymmetric under conjugation; this is the central character value
    that a single transposition scales each irreducible block by, up to
    normalization.
    """
    parts = tuple(parts)
    _check_partition(parts)
    total = 0
    for i, row in enumerate(parts, start=1):
        total += row * (row + 1) // 2 - row * i
    return total
