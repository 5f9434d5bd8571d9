"""The sparse integer rref and the solves built on it, against sympy and
the dense Fraction oracles of tests/oracles.py.  The cases named after the
dense rref and solve, which moved to the oracles, run on them."""

import copy
import math

import pytest
import sympy
from hypothesis import given, strategies as st

from towercalc.linalg import exact_inverse, matrix_rank, rref, solve_posdef
from towercalc.ring import QQ, qq

from oracles import dense_rref, dense_solve, nullspace

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(qq)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, square=False):
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


BIG = 10 ** 100
integer_entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
    st.integers(-9, 9),
    st.integers(-BIG, BIG).filter(lambda v: abs(v) >= 10 ** 99))


@st.composite
def integer_matrices(draw, max_rows=6, max_cols=6):
    """Integer matrices with rank deficiency, repeated and zero rows, and
    no rows at all among the cases: some rows are copies, multiples or sums
    of earlier ones, and entries include negative and 100-digit integers."""
    cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combination"]))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "fresh" or not rows:
            rows.append([draw(integer_entries) for _ in range(cols)])
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(integer_entries), draw(integer_entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows, cols


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(str(c)) for c in row] for row in rows])


def sparse(rows):
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def read_rref(red, pivots, cols):
    """The RREF rows of an rref result, row / row[pivot], as dense QQ lists."""
    return [[QQ(row.get(j, 0), row[p]) for j in range(cols)] for row, p in zip(red, pivots)]


@given(matrices())
def test_rank_matches_sympy(rows):
    assert matrix_rank(rows) == to_sympy(rows).rank()


@given(matrices())
def test_rref_is_reduced_and_equivalent(rows):
    red, pivots = dense_rref(rows)
    expected, expected_pivots = to_sympy(rows).rref()
    assert list(pivots) == list(expected_pivots)
    got = to_sympy(red)
    # sympy returns only nonzero rows implicitly; ours may keep zero rows
    for i in range(got.rows):
        for j in range(got.cols):
            assert got[i, j] == expected[i, j]


@given(integer_matrices())
def test_rref_matches_the_dense_oracle_and_sympy(case):
    rows, cols = case
    given_rows = sparse(rows)
    before = copy.deepcopy(given_rows)
    red, pivots = rref(given_rows)
    assert given_rows == before
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for row, p in zip(red, pivots):
        assert row[p] > 0 and min(row) == p and all(row.values())
        assert all(row.get(c, 0) == 0 for c in pivots if c != p)
    got = read_rref(red, pivots, cols)
    dense_red, dense_pivots = dense_rref([[QQ(c) for c in row] for row in rows])
    assert (got, pivots) == (dense_red, dense_pivots)
    if rows:
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(expected_pivots)
        assert got == [[QQ(int(c.p), int(c.q)) for c in expected.row(i)]
                       for i in range(len(pivots))]
    else:
        assert (red, pivots) == ([], [])


@given(matrices())
def test_nullspace_annihilates_and_spans(rows):
    basis = nullspace(rows)
    cols = len(rows[0])
    assert len(basis) == cols - matrix_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    if basis:
        assert matrix_rank(basis) == len(basis)


@given(matrices(), st.data())
def test_solve_recovers_constructed_solutions(rows, data):
    cols = len(rows[0])
    x = [data.draw(entries) for _ in range(cols)]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    got = dense_solve(rows, rhs)
    assert got is not None
    for row, want in zip(rows, rhs):
        assert sum(a * b for a, b in zip(row, got)) == want


def test_solve_reports_inconsistency():
    rows = [[qq(1), qq(1)], [qq(2), qq(2)]]
    assert dense_solve(rows, [qq(1), qq(3)]) is None
    assert dense_solve(rows, [qq(1), qq(2)]) is not None


def _gram(rows):
    """A^T A for A = rows: symmetric positive semidefinite."""
    cols = len(rows[0])
    return [[sum(rows[k][i] * rows[k][j] for k in range(len(rows)))
             for j in range(cols)] for i in range(cols)]


@given(matrices(max_rows=3, max_cols=3))
def test_solve_posdef_on_gram_systems(rows):
    # G = A^T A is symmetric positive semidefinite; pick rhs in its column
    # space so the system is solvable
    gram = _gram(rows)
    cols = len(gram)
    x = [qq(i + 1) for i in range(cols)]
    rhs = [sum(gram[i][j] * x[j] for j in range(cols)) for i in range(cols)]
    got = dense_solve(gram, rhs)
    for i in range(cols):
        assert sum(gram[i][j] * got[j] for j in range(cols)) == rhs[i]


@given(matrices(max_rows=4, max_cols=4), st.data())
def test_solve_posdef_on_gram_plus_identity(rows, data):
    """A^T A + I is positive definite, so every rhs has one solution."""
    gram = _gram(rows)
    cols = len(gram)
    for i in range(cols):
        gram[i][i] += 1
    before = copy.deepcopy(gram)
    rhs = [data.draw(entries) for _ in range(cols)]
    got = solve_posdef(gram, rhs)
    assert gram == before
    for i in range(cols):
        assert sum(gram[i][j] * got[j] for j in range(cols)) == rhs[i]
    assert got == dense_solve(gram, rhs)


@given(matrices(square=True))
def test_exact_inverse_matches_sympy(rows):
    before = copy.deepcopy(rows)
    expected = to_sympy(rows)
    if expected.det() == 0:
        with pytest.raises(ArithmeticError):
            exact_inverse(rows)
        return
    matrix, d = exact_inverse(rows)
    assert rows == before
    inverse = expected.inv()
    assert [[QQ(m, d) for m in row] for row in matrix] == \
        [[QQ(int(c.p), int(c.q)) for c in inverse.row(i)] for i in range(len(rows))]
    assert d == math.lcm(*(int(c.q) for c in inverse))


def test_exact_inverse_of_a_singular_matrix_is_an_arithmetic_error():
    with pytest.raises(ArithmeticError):
        exact_inverse([[qq(1), qq(2)], [qq(2), qq(4)]])
    with pytest.raises(ArithmeticError):
        exact_inverse([[qq(0)]])
    with pytest.raises(ArithmeticError):
        solve_posdef([[qq(1), qq(1)], [qq(1), qq(1)]], [qq(1), qq(1)])


def test_rank_of_zero_and_identity():
    assert matrix_rank([[qq(0), qq(0)]]) == 0
    eye = [[QQ(1) if i == j else QQ(0) for j in range(3)] for i in range(3)]
    assert matrix_rank(eye) == 3
