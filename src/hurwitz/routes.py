"""Which route covers which (genus, degree) cell, what each route is
called, and tables of values by one route or by all of them.

This is the only module that imports more than one route. The routes
(character, recursion, intersection, oracle) import none of each other,
so agreement between them in a cross-check is a real check and not a
tautology. Each route is imported where it runs, so a command loads
only the routes it asks for. A cell outside a method's coverage is
refused with MethodNotApplicableError, whichever route guard found it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction


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


def _covers(g: int, d: int, method: Method) -> bool:
    # where each method applies, from its route's own bounds and
    # importing only that route: the character sum everywhere, the
    # recursions up to genus 2, the closed form at genus 0, the
    # intersection formula at genus 0 within its degree bound, and the
    # oracle within its enumeration bound. hurwitz_value refuses exactly
    # the other cells.
    if method is Method.CHARACTER:
        return True
    if method is Method.RECURSION:
        from . import recursion
        return g <= recursion.MAX_RECURSION_GENUS
    if method is Method.CLOSED_FORM:
        return g == 0
    if method is Method.ELSV_G0:
        from . import intersection
        return g == 0 and d <= intersection.MAX_DEGREE
    from . import oracle
    return (d <= oracle.MAX_DEGREE
            and branch_count(g, d) <= oracle.MAX_BRANCH_POINTS)


def applicable_methods(g: int, d: int) -> list[Method]:
    """Every method that covers (g, d), in enum order: exactly the
    methods for which hurwitz_value(g, d, method) returns a value."""
    _check_cell(g, d)
    return [m for m in Method if _covers(g, d, m)]


def hurwitz_value(g: int, d: int, method: Method) -> Fraction:
    """H_{g,d} by the requested method.

    Raises MethodNotApplicableError, and only that, when the method does
    not cover the cell. The oracle's and the intersection formula's own
    bound errors are re-raised as it, with the same text, and are its
    __cause__.
    """
    _check_cell(g, d)
    method = Method(method)
    if method is Method.CHARACTER:
        from .character import connected_hurwitz
        return connected_hurwitz(g, d)
    if method is Method.RECURSION:
        from . import recursion
        if g > recursion.MAX_RECURSION_GENUS:
            raise MethodNotApplicableError(
                f"no recursion is available for genus {g} "
                f"(recursions stop at genus {recursion.MAX_RECURSION_GENUS})"
            )
        return recursion.RECURSIONS[g](d)
    if method is Method.CLOSED_FORM:
        if g != 0:
            raise MethodNotApplicableError("closed form is genus 0 only")
        from .recursion import h0_closed
        return h0_closed(d)
    if method is Method.ELSV_G0:
        if g != 0:
            raise MethodNotApplicableError(
                "the intersection formula is genus 0 only"
            )
        from .intersection import IntersectionBoundError, elsv_genus0
        try:
            return elsv_genus0(d)
        except IntersectionBoundError as exc:
            raise MethodNotApplicableError(str(exc)) from exc
    from .oracle import OracleBoundError, oracle_connected
    try:
        return oracle_connected(g, d)
    except OracleBoundError as exc:
        raise MethodNotApplicableError(str(exc)) from exc


def build_table(
    g_max: int, d_max: int, method: Method | None = None
) -> dict[tuple[int, int], dict[Method, Fraction]]:
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
    if method is not None:
        method = Method(method)
        for g, d in cells:
            if not _covers(g, d, method):
                hurwitz_value(g, d, method)  # raises before computing
    return {
        (g, d): {m: hurwitz_value(g, d, m)
                 for m in ([method] if method else applicable_methods(g, d))}
        for g, d in cells
    }
