"""Which route covers which (genus, degree) cell, what each route is
called, and tables of values by one route or by all of them.

This is the only module that imports more than one route. The routes
(character, recursion, intersection, oracle) import none of each other,
so agreement between them in a cross-check is a real check and not a
tautology. Each route is imported where it runs, so a command loads
only the routes it asks for.
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


def __getattr__(name):
    # NOT_COVERED, what hurwitz_value raises for a cell its method does
    # not cover, names two routes' bound errors; it is built on first use
    # so that importing this module imports no route. An `except
    # routes.NOT_COVERED` clause reads it only when an error is raised.
    if name == "NOT_COVERED":
        from .intersection import IntersectionBoundError
        from .oracle import OracleBoundError
        return (MethodNotApplicableError, OracleBoundError,
                IntersectionBoundError)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def branch_count(genus: int, degree: int, target_genus: int = 0) -> int:
    """Number of simple branch points forced on a connected cover:
    2*genus - 2 - degree*(2*target_genus - 2).
    """
    if genus < 0 or degree < 1 or target_genus < 0:
        raise ValueError("genus and target_genus must be >= 0, degree >= 1")
    return 2 * genus - 2 - degree * (2 * target_genus - 2)


def _check_cell(g: int, d: int) -> None:
    if g < 0:
        raise ValueError("g must be a nonnegative integer")
    if d < 1:
        raise ValueError("d must be a positive integer")


def applicable_methods(g: int, d: int) -> list[Method]:
    """Every method that covers (g, d), in enum order.

    The character sum always applies; recursions stop at genus 2; the
    closed form and the intersection formula are genus 0 only, the
    latter within its degree bound; the brute-force oracle only within
    its enumeration bound.
    """
    from . import intersection, oracle, recursion  # for their bounds

    _check_cell(g, d)
    methods = [Method.CHARACTER]
    if g <= recursion.MAX_RECURSION_GENUS:
        methods.append(Method.RECURSION)
    if g == 0:
        methods.append(Method.CLOSED_FORM)
        if d <= intersection.MAX_DEGREE:
            methods.append(Method.ELSV_G0)
    r = branch_count(g, d)
    if d <= oracle.MAX_DEGREE and r <= oracle.MAX_BRANCH_POINTS:
        methods.append(Method.ORACLE)
    return methods


def hurwitz_value(g: int, d: int, method: Method) -> Fraction:
    """H_{g,d} by the requested method.

    Raises MethodNotApplicableError when the method does not cover the
    cell, and lets the oracle's and the intersection formula's own bound
    errors pass through; NOT_COVERED names all three.
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
        from . import intersection
        if g != 0:
            raise MethodNotApplicableError(
                "the intersection formula is genus 0 only"
            )
        if d in intersection.DEGENERATE_DEGREES:
            return intersection.DEGENERATE_DEGREES[d]
        return intersection.elsv_genus0(d)
    from .oracle import oracle_connected
    return oracle_connected(g, d)


def build_table(
    g_max: int, d_max: int, method: Method | None = None
) -> dict[tuple[int, int], dict[Method, Fraction]]:
    """H_{g,d} for 0 <= g <= g_max, 1 <= d <= d_max, by one method, or
    by every applicable method when method is None, as
    {(g, d): {method: value}} with cells in (g, d) order and methods in
    applicable_methods order.

    Methods stay separate within a cell, so a cross-check compares
    independent computations. One method must cover the whole range:
    the first cell in (g, d) order that it does not cover raises that
    method's error before any value is computed.
    """
    _check_cell(g_max, d_max)
    cells = [(g, d) for g in range(g_max + 1) for d in range(1, d_max + 1)]
    if method is not None:
        method = Method(method)
        for g, d in cells:
            if method not in applicable_methods(g, d):
                hurwitz_value(g, d, method)  # raises before computing
    return {
        (g, d): {m: hurwitz_value(g, d, m)
                 for m in ([method] if method else applicable_methods(g, d))}
        for g, d in cells
    }
