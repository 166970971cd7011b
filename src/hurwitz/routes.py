"""Which route covers which (genus, degree) cell, what each route is
called, and tables of values by one route or by all of them.

This is the only module that imports more than one route. The routes
(character, recursion, intersection, oracle) import none of each other,
so agreement between them in a cross-check is a real check and not a
tautology. Each route states once where it applies, in a function
covers(g, d) that returns its refusal text, or None where it covers the
cell, and computes nothing; beside it sits a value function of (g, d).
`_route` checks the value bound, imports the one method's pair and
refuses a cell that covers refuses with MethodNotApplicableError, so a
command loads only the routes it asks for.
"""

from enum import Enum
from functools import partial

# the annotations name fractions.Fraction in quotes, without importing
# it: `--help` and `branch-divisor` need no fractions


class Method(str, Enum):
    """Computation route for a Hurwitz number; the values are the
    spellings the command line accepts."""

    CHARACTER = "character"
    RECURSION = "recursion"
    CLOSED_FORM = "closed-form"
    ELSV_G0 = "elsv-g0"
    ORACLE = "oracle"


class MethodNotApplicableError(ValueError):
    """The requested method does not cover the requested (genus, degree),
    its value would take more than MAX_VALUE_BITS bits, or a table's
    range has more cells than MAX_CELLS."""


# the most cells one table or cross-check may hold. The largest range run
# today has 600 (recursion to genus 3 and degree 150), and the planned
# cross-check along genus, to genus 100 and degree 8, has 808. The cell
# list and one call per cell, built before any value, then stay far
# below a megabyte. Past it a range is refused on its two ends alone,
# before anything as long as the range is built
MAX_CELLS = 1000

# the most bits a cell's value may take, r * bit_length(C(d, 2)): the
# transitive count behind H_{g,d} is at most C(d, 2)^r, the number of
# r-tuples of transpositions. It bounds size, not time: (50000, 30) is
# far inside it and takes seconds. (1000000, 3) takes 4,000,008 bits,
# and (0, 1000), the largest cell a range may hold, 37,962
MAX_VALUE_BITS = 2**22


def branch_count(genus: int, degree: int, target_genus: int = 0) -> int:
    """Number of simple branch points forced on a connected cover:
    2*genus - 2 - degree*(2*target_genus - 2). Raises ValueError where
    that is negative, since no such cover exists.
    """
    if genus < 0 or degree < 1 or target_genus < 0:
        raise ValueError("genus and target_genus must be >= 0, degree >= 1")
    r = 2 * genus - 2 - degree * (2 * target_genus - 2)
    if r < 0:
        raise ValueError("no connected cover: 2*genus - 2 < "
                         "degree*(2*target_genus - 2)")
    return r


def _route(g: int, d: int, method: Method):
    # the zero-argument call that computes H_{g,d} by `method`, importing
    # only that route and computing nothing, or MethodNotApplicableError.
    # The value bound comes first, and prints no number of the cell; past
    # it, each route's covers gives the refusal its text
    if branch_count(g, d) * (d * (d - 1) // 2).bit_length() > MAX_VALUE_BITS:
        raise MethodNotApplicableError(
            f"value bound exceeded: r * bit_length(d*(d-1)/2) > "
            f"{MAX_VALUE_BITS} (limit: {MAX_VALUE_BITS} bits)")
    if method is Method.CHARACTER:
        from .character import covers, connected_hurwitz as value
    elif method is Method.RECURSION:
        from .recursion import recursion_covers as covers, \
            recursion_value as value
    elif method is Method.CLOSED_FORM:
        from .recursion import closed_covers as covers, closed_value as value
    elif method is Method.ELSV_G0:
        from .intersection import covers, elsv_value as value
    else:
        from .oracle import covers, oracle_connected as value
    if (refusal := covers(g, d)) is not None:
        raise MethodNotApplicableError(refusal)
    return partial(value, g, d)


def _covering(g: int, d: int) -> dict[Method, partial]:
    # the call of every method that covers (g, d), in enum order
    calls = {}
    for method in Method:
        try:
            calls[method] = _route(g, d, method)
        except MethodNotApplicableError:
            pass
    return calls


def applicable_methods(g: int, d: int) -> list[Method]:
    """Every method that covers (g, d), in enum order: exactly the
    methods for which hurwitz_value(g, d, method) returns a value."""
    return list(_covering(g, d))


def hurwitz_value(g: int, d: int, method: Method) -> "Fraction":
    """H_{g,d} by the requested method.

    Raises MethodNotApplicableError, and only that, when the method does
    not cover the cell, with the text of the route's covers: the same
    text that the oracle's and the intersection formula's own bound
    errors carry on a direct call. A cell with g < 0 or d < 1 raises
    branch_count's ValueError.
    """
    return _route(g, d, Method(method))()


def build_table(
    g_max: int, d_max: int, method: Method | None = None
) -> dict[tuple[int, int], dict[Method, "Fraction"]]:
    """H_{g,d} for 0 <= g <= g_max, 1 <= d <= d_max, by one method, or
    by every applicable method when method is None, as
    {(g, d): {method: value}} with cells in (g, d) order and methods in
    applicable_methods order.

    Methods stay separate within a cell, so a cross-check compares
    independent computations. A range of more than MAX_CELLS cells, and
    one that the method does not cover in full, raises
    MethodNotApplicableError before any value is computed; the second
    names the first cell in (g, d) order that the method does not cover.
    """
    branch_count(g_max, d_max)  # ValueError for g_max < 0 or d_max < 1
    if (g_max + 1) * d_max > MAX_CELLS:
        raise MethodNotApplicableError(
            f"cell bound exceeded: (gmax + 1) * dmax > {MAX_CELLS} "
            f"(limit: {MAX_CELLS} cells)")
    cells = [(g, d) for g in range(g_max + 1) for d in range(1, d_max + 1)]
    if method is None:
        calls = {cell: _covering(*cell) for cell in cells}
    else:
        method = Method(method)
        calls = {cell: {method: _route(*cell, method)} for cell in cells}
    return {cell: {m: call() for m, call in row.items()}
            for cell, row in calls.items()}
