"""Which route covers which (genus, degree) cell, what each route is
called, and tables of values by one route or by all of them.

This is the only module that imports more than one route. The routes
(character, recursion, intersection, oracle) import none of each other,
so agreement between them in a cross-check is a real check and not a
tautology. Each route is imported where it runs, so a command loads
only the routes it asks for. `_route` alone decides which method covers
which cell, and refuses the others with MethodNotApplicableError.
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
    """The requested method does not cover the requested (genus, degree)."""


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


def _check_cell(g: int, d: int) -> None:
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    if d < 1:
        raise ValueError("d must be a positive integer")


def _route(g: int, d: int, method: Method):
    # the zero-argument call that computes H_{g,d} by `method`, importing
    # only that route and computing nothing, or MethodNotApplicableError.
    # The genus rules live here alone; each bound lives in its route's
    # check_bound, whose error gives the refusal its text and __cause__
    if method is Method.CHARACTER:
        from .character import connected_hurwitz
        return partial(connected_hurwitz, g, d)
    if method is Method.RECURSION:
        from . import recursion
        if g > (top := recursion.MAX_RECURSION_GENUS):
            raise MethodNotApplicableError(
                f"no recursion is available for genus {g} "
                f"(recursions stop at genus {top})"
            )
        return partial(recursion.RECURSIONS[g], d)
    if method is Method.CLOSED_FORM:
        if g != 0:
            raise MethodNotApplicableError("closed form is genus 0 only")
        from .recursion import h0_closed
        return partial(h0_closed, d)
    if method is Method.ELSV_G0:
        if g != 0:
            raise MethodNotApplicableError(
                "the intersection formula is genus 0 only"
            )
        from . import intersection
        _within(intersection, intersection.IntersectionBoundError, d)
        return partial(intersection.elsv_genus0, d)
    from . import oracle
    _within(oracle, oracle.OracleBoundError, d, branch_count(g, d))
    return partial(oracle.oracle_connected, g, d)


def _within(route, bound_error: type, *bound) -> None:
    # the route's check_bound, its error re-raised as the refusal it causes
    try:
        route.check_bound(*bound)
    except bound_error as exc:
        raise MethodNotApplicableError(str(exc)) from exc


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
    _check_cell(g, d)
    return list(_covering(g, d))


def hurwitz_value(g: int, d: int, method: Method) -> "Fraction":
    """H_{g,d} by the requested method.

    Raises MethodNotApplicableError, and only that, when the method does
    not cover the cell. The oracle's and the intersection formula's own
    bound errors are re-raised as it, with the same text, and are its
    __cause__.
    """
    _check_cell(g, d)
    return _route(g, d, Method(method))()


def build_table(
    g_max: int, d_max: int, method: Method | None = None
) -> dict[tuple[int, int], dict[Method, "Fraction"]]:
    """H_{g,d} for 0 <= g <= g_max, 1 <= d <= d_max, by one method, or
    by every applicable method when method is None, as
    {(g, d): {method: value}} with cells in (g, d) order and methods in
    applicable_methods order.

    Methods stay separate within a cell, so a cross-check compares
    independent computations. One method must cover the whole range:
    the first cell in (g, d) order that it does not cover raises
    MethodNotApplicableError before any value is computed.
    """
    _check_cell(g_max, d_max)
    cells = [(g, d) for g in range(g_max + 1) for d in range(1, d_max + 1)]
    if method is None:
        calls = {cell: _covering(*cell) for cell in cells}
    else:
        method = Method(method)
        calls = {cell: {method: _route(*cell, method)} for cell in cells}
    return {cell: {m: call() for m, call in row.items()}
            for cell, row in calls.items()}
