"""Exact integer/rational linear algebra helpers.

Oracle key: [DERIVED] checked against an independent implementation (sympy)
or a defining property; [TRIVIAL] small hand cases.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflat.intlinalg import (
    hermite_normal_form,
    rational_nullspace,
    rational_row_basis,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer,
)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# [DERIVED] Smith diagonal matches sympy's smith_normal_form on a bank of
# integer matrices, and the tracked transforms satisfy U A V = D exactly.
@pytest.mark.parametrize("mat", [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0]],
    [[6]],
    [[2, 0], [0, 3], [0, 0]],
    [[3, 1, -4], [2, -3, 1]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
])
def test_snf_matches_sympy(mat):
    u, d, v = smith_normal_form(mat)
    assert _matmul(_matmul(u, mat), v) == d
    ours = [d[i][i] for i in range(min(len(d), len(d[0])))]
    ref = sympy_snf(sympy.Matrix(mat))
    theirs = [int(ref[i, i]) for i in range(min(ref.rows, ref.cols))]
    assert [abs(x) for x in ours] == [abs(x) for x in theirs]
    # unimodularity of the transforms
    assert abs(sympy.Matrix(u).det()) == 1
    assert abs(sympy.Matrix(v).det()) == 1


# [DERIVED] divisibility chain d1 | d2 | ... on a matrix known to need the fix.
def test_snf_divisibility_chain():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    diag = [d[i][i] for i in range(2)]
    assert diag == [1, 6]


# [DERIVED] HNF rows against sympy's hermite_normal_form (column-style there,
# so compare the spanned lattice via SNF of the stacked difference).
def test_hnf_spans_same_lattice():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hermite_normal_form(rows)
    # each original row must reduce to zero against the HNF basis, and vice
    # versa after scaling — identical lattices have identical HNFs, so just
    # check idempotence plus membership both ways
    assert hermite_normal_form(h) == h
    for row in rows:
        assert reduce_mod_lattice(row, h) == [0, 0, 0]
    assert hermite_normal_form(rows + h) == h


# [TRIVIAL] HNF shape invariants: positive pivots, reduced entries above.
def test_hnf_invariants():
    h = hermite_normal_form([[0, 3, 1], [2, 2, 2], [4, 0, 1]])
    pivots = []
    for row in h:
        j = next(i for i, v in enumerate(row) if v != 0)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)
    for r, row in enumerate(h):
        j = next(i for i, v in enumerate(row) if v != 0)
        for above in h[:r]:
            assert 0 <= above[j] < row[j]


# [TRIVIAL] rational kernel on a hand case: x + y + z = 0, y - z = 0.
def test_rational_nullspace_hand():
    rows = [[Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(-1)]]
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == -2 * vec[1] and vec[1] == vec[2] and vec[2] == 1


# [DERIVED] nullspace vectors actually lie in the kernel, rank checks out.
def test_rational_nullspace_rank():
    rows = [[Fraction(v) for v in r] for r in [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]]
    basis = rational_nullspace(rows, 4)
    assert len(basis) == 2  # rank 2 in Q^4
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


ENTRY = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def rational_matrices(draw):
    """(rows, n_cols): sparse-ish rational rows, possibly none, possibly more
    rows than columns, with zero and repeated rows mixed in."""
    n_cols = draw(st.integers(0, 6), label="n_cols")
    rows = draw(st.lists(st.lists(ENTRY, min_size=n_cols, max_size=n_cols),
                         max_size=9), label="rows")
    if rows and draw(st.booleans(), label="repeat"):
        rows.append(list(draw(st.sampled_from(rows), label="repeated")))
    if draw(st.booleans(), label="zero row"):
        rows.append([Fraction(0)] * n_cols)
    return draw(st.permutations(rows), label="order"), n_cols


def sympy_rref(rows, n_cols):
    reduced, pivots = sympy.Matrix(len(rows), n_cols, [v for row in rows for v in row]).rref()
    return [[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)]
            for i in range(len(pivots))]


# [DERIVED] the incremental reduced row-echelon basis equals sympy's rref
# (its nonzero rows) entry for entry, and the rational kernel read off it has
# dimension n_cols − rank, lies in the kernel and is linearly independent.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=rational_matrices())
def test_row_basis_matches_sympy_rref(case):
    rows, n_cols = case
    echelon = rational_row_basis(rows, n_cols)
    assert echelon == sympy_rref(rows, n_cols)
    assert all(type(v) is Fraction for row in echelon for v in row)
    kernel = rational_nullspace(rows, n_cols)
    assert len(kernel) == n_cols - len(echelon)
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0
    assert len(rational_row_basis(kernel, n_cols)) == len(kernel)


# [DERIVED] integer solve: round-trip A x = b, divisibility obstruction on
# 2x = 1, inconsistency on 0x = 1, kernel spans the solution set.
def test_solve_integer_roundtrip():
    a = [[2, 1, 0], [0, 3, 1]]
    x, obstruction, kernel = solve_integer(a, [5, 7])
    assert obstruction is None
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == [5, 7]
    assert len(kernel) == 1
    kv = kernel[0]
    assert [sum(r * v for r, v in zip(row, kv)) for row in a] == [0, 0]


def test_solve_integer_divisibility_obstruction():
    x, obstruction, _ = solve_integer([[2]], [1])
    assert x is None
    assert "divide" in obstruction


def test_solve_integer_inconsistent():
    x, obstruction, _ = solve_integer([[1, 1], [1, 1]], [0, 1])
    assert x is None
    assert obstruction is not None


# [TRIVIAL] reduction modulo a lattice with unit pivots zeroes coordinates.
def test_reduce_mod_lattice():
    assert reduce_mod_lattice([5, 7], [[1, 0], [0, 1]]) == [0, 0]
    assert reduce_mod_lattice([5, 7], [[2, 0]]) == [1, 7]
    assert reduce_mod_lattice([5, 7], []) == [5, 7]
