"""The conjugate (transpose) of a Young diagram, written out
independently of the package, whose `hurwitz.character.irrep_dimension`
counts column lengths inline.

A partition is a tuple of weakly decreasing positive ints, one per row.
"""


def conjugate(shape):
    # strip the first column off the diagram until no cell is left; the
    # length of each stripped column is one row of the transpose
    rows, columns = list(shape), []
    while rows:
        columns.append(len(rows))
        rows = [row - 1 for row in rows if row > 1]
    return tuple(columns)
