"""Exact dense linear algebra over the rationals.

Matrices are lists of row lists with QQ entries.  Everything here is
deterministic: pivots are always the first nonzero column left to right, so
the reduced row echelon form (and hence every basis produced from it) is the
canonical one for the row space.
"""

from __future__ import annotations

from math import lcm

from .ring import QQ

_Q0 = QQ(0)
_Q1 = QQ(1)


def rref(rows: list) -> tuple[list, list]:
    """Reduced row echelon form. Returns (new rows, pivot column indices).

    The input is not mutated.  Zero rows are dropped.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(m)):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = _Q1 / m[rank][col]
        if inv != 1:
            row = m[rank]
            for j in range(col, ncols):
                if row[j]:
                    row[j] = row[j] * inv
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                ri, rp = m[i], m[rank]
                for j in range(col, ncols):
                    if rp[j]:
                        ri[j] = ri[j] - f * rp[j]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], pivots


def solve(rows: list, rhs: list):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
    x = [_Q0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def solve_posdef(gram: list, rhs: list):
    """Solve G c = rhs for symmetric positive definite G (always consistent)."""
    sol = solve(gram, rhs)
    if sol is None:
        raise ArithmeticError("inconsistent system with positive definite matrix")
    return sol


def exact_inverse(rows: list) -> tuple:
    """(M, d) with rows^-1 = M / d for a nonsingular square matrix: M an
    integer matrix and d > 0 the lcm of the inverse's denominators.  One
    rref of [rows | I]; a singular matrix is an ArithmeticError."""
    k = len(rows)
    red, pivots = rref([list(r) + [_Q1 if i == j else _Q0 for j in range(k)]
                        for i, r in enumerate(rows)])
    if pivots[:k] != list(range(k)):
        raise ArithmeticError("singular matrix has no inverse")
    inv = [row[k:] for row in red]
    d = lcm(*(c.denominator for row in inv for c in row))
    return [[c.numerator * (d // c.denominator) for c in row] for row in inv], d


def inverse_times(inverse: tuple, rhs: list) -> list:
    """M rhs / d for an exact_inverse (M, d) and rational rhs: the rhs is
    put over one denominator, and each entry is one integer dot product and
    one QQ."""
    matrix, d = inverse
    den = lcm(*(c.denominator for c in rhs))
    ints = [c.numerator * (den // c.denominator) for c in rhs]
    den *= d
    return [QQ(sum(m * x for m, x in zip(row, ints)), den) for row in matrix]


def matrix_rank(rows: list) -> int:
    return len(rref(rows)[0])
