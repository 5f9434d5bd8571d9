import sympy
from hypothesis import given, strategies as st

from towercalc.linalg import matrix_rank, rref, solve, solve_posdef
from towercalc.ring import QQ, qq

from oracles import nullspace

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(qq)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(str(c)) for c in row] for row in rows])


@given(matrices())
def test_rank_matches_sympy(rows):
    assert matrix_rank(rows) == to_sympy(rows).rank()


@given(matrices())
def test_rref_is_reduced_and_equivalent(rows):
    red, pivots = rref(rows)
    expected, expected_pivots = to_sympy(rows).rref()
    assert list(pivots) == list(expected_pivots)
    got = to_sympy(red)
    # sympy returns only nonzero rows implicitly; ours may keep zero rows
    for i in range(got.rows):
        for j in range(got.cols):
            assert got[i, j] == expected[i, j]


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
    got = solve(rows, rhs)
    assert got is not None
    for row, want in zip(rows, rhs):
        assert sum(a * b for a, b in zip(row, got)) == want


def test_solve_reports_inconsistency():
    rows = [[qq(1), qq(1)], [qq(2), qq(2)]]
    assert solve(rows, [qq(1), qq(3)]) is None
    assert solve(rows, [qq(1), qq(2)]) is not None


@given(matrices(max_rows=3, max_cols=3))
def test_solve_posdef_on_gram_systems(rows):
    # G = A^T A is symmetric positive semidefinite; pick rhs in its column
    # space so the system is solvable
    cols = len(rows[0])
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(len(rows)))
             for j in range(cols)] for i in range(cols)]
    x = [qq(i + 1) for i in range(cols)]
    rhs = [sum(gram[i][j] * x[j] for j in range(cols)) for i in range(cols)]
    got = solve_posdef(gram, rhs)
    for i in range(cols):
        assert sum(gram[i][j] * got[j] for j in range(cols)) == rhs[i]


def test_rank_of_zero_and_identity():
    assert matrix_rank([[qq(0), qq(0)]]) == 0
    eye = [[QQ(1) if i == j else QQ(0) for j in range(3)] for i in range(3)]
    assert matrix_rank(eye) == 3
