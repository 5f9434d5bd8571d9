"""Exact sparse linear algebra: one fraction-free integer elimination.

A row is a {column: int} dict.  rref reduces a row as a * row - b * (pivot
row) and keeps each row with no common factor and a positive pivot, so no
Fraction is built per cell.  Pivots are always the smallest nonzero column,
so the RREF (row / row[pivot] for each row) and every basis read off it are
the canonical ones for the row space.  Rational matrices (lists of QQ rows)
are put over one denominator per row first.
"""

from __future__ import annotations

from math import gcd, lcm

from .ring import QQ, _Q0


def _reduce(row: dict, prow: dict, p: int) -> dict:
    """a * row - b * prow with a / b = prow[p] / row[p] in lowest terms, which
    clears column p of row."""
    g = gcd(row[p], prow[p])
    a, b = prow[p] // g, row[p] // g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        v = row.get(c, 0) - b * v
        if v:
            row[c] = v
        else:
            del row[c]
    return row


def _primitive(row: dict, p: int) -> dict:
    """row divided by its content, with row[p] > 0."""
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def rref(rows: list) -> tuple[list, list]:
    """(rows, pivots): the pivots ascending, and per pivot one row whose
    RREF row is row / row[pivot].  The forward pass reduces each row by the
    pivot row at its smallest column until that column is a new pivot; the
    back pass clears, in descending pivot order, the other pivot columns
    from each row.  The input is not mutated; zero rows are dropped."""
    by_pivot: dict = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            p = min(row)
            prow = by_pivot.get(p)
            if prow is None:
                by_pivot[p] = _primitive(row, p)
                break
            row = _reduce(row, prow, p)
    pivots = sorted(by_pivot)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        row = by_pivot[p]
        # a row is zero left of its pivot, and every later row is reduced
        later = [c for c in pivots[i + 1:] if c in row]
        for c in later:
            row = _reduce(row, by_pivot[c], c)
        if later:
            by_pivot[p] = _primitive(row, p)
    return [by_pivot[p] for p in pivots], pivots


def _over_lcm(row: list) -> tuple[dict, int]:
    """A rational row as ({column: int}, d): the row times d, the lcm of its
    denominators."""
    d = lcm(*(c.denominator for c in row))
    return {j: c.numerator * (d // c.denominator) for j, c in enumerate(row) if c}, d


def matrix_rank(rows: list) -> int:
    return len(rref([_over_lcm(row)[0] for row in rows])[1])


def exact_inverse(rows: list) -> tuple:
    """(M, d) with rows^-1 = M / d for a nonsingular square rational matrix:
    M an integer matrix and d > 0 the lcm of the inverse's denominators.
    One rref of [rows | I]; a singular matrix is an ArithmeticError."""
    k = len(rows)
    aug = []
    for i, row in enumerate(rows):
        row, d = _over_lcm(row)
        row[k + i] = d
        aug.append(row)
    red, pivots = rref(aug)
    if pivots != list(range(k)):
        raise ArithmeticError("singular matrix has no inverse")
    # row i of the RREF is [e_i | row i of the inverse] times red[i][i], and
    # red[i] is primitive, so red[i][i] is that row's lcm of denominators
    d = lcm(*(row[i] for i, row in enumerate(red)))
    return [[row.get(k + j, 0) * (d // row[i]) for j in range(k)]
            for i, row in enumerate(red)], d


def inverse_times(inverse: tuple, rhs: list, den: int) -> list:
    """M rhs / (d den) for an exact_inverse (M, d) and a right-hand side of
    integers over one denominator den > 0: each entry is one integer dot
    product and one QQ, and the shared _Q0 where the dot product is 0."""
    matrix, d = inverse
    den *= d
    out = []
    for row in matrix:
        v = sum(m * x for m, x in zip(row, rhs))
        out.append(QQ(v, den) if v else _Q0)
    return out


def solve_posdef(gram: list, rhs: list) -> list:
    """The solution of G c = rhs for a nonsingular (positive definite) G and
    a rational rhs."""
    den = lcm(*(c.denominator for c in rhs))
    return inverse_times(exact_inverse(gram),
                         [c.numerator * (den // c.denominator) for c in rhs], den)
