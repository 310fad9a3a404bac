"""Exact integer/rational linear algebra helpers.

Oracle key: [DERIVED] checked against an independent implementation (sympy)
or a defining property; [TRIVIAL] small hand cases.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflat import catalog
from nilflat.algebra import NilAlgebra
from nilflat.intlinalg import (
    hermite_normal_form,
    lattice_coordinates,
    rational_row_basis,
    reduce_mod_lattice,
)
from nilflat.tower import (CentralCocycle, NilLattice, _coboundary_system,
                           cocycles_cohomologous)

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402


# [DERIVED] HNF is idempotent, and the original rows and the HNF rows span
# each other (identical lattices have identical HNFs).
def test_hnf_spans_same_lattice():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hermite_normal_form(rows)
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
# (its nonzero rows) entry for entry once densified; its sparse rows hold
# only nonzero `Fraction`s and come in increasing pivot order.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=rational_matrices())
def test_row_basis_matches_sympy_rref(case):
    rows, n_cols = case
    echelon = rational_row_basis(rows, n_cols)
    assert [[row.get(c, 0) for c in range(n_cols)] for row in echelon] == sympy_rref(rows, n_cols)
    assert all(type(v) is Fraction and v for row in echelon for v in row.values())
    pivots = [min(row) for row in echelon]
    assert pivots == sorted(set(pivots))


def _combine(coefficients, generators, n_cols):
    return [sum(c * g[j] for c, g in zip(coefficients, generators)) for j in range(n_cols)]


# [DERIVED] integer solve: round-trip of the coordinates, divisibility
# obstruction on 2x = 1, inconsistency on 0 = 1, kernel spans the relations.
# All-zero generators and generators with zero columns give fixed outputs:
# a zero column takes no pivot and every relation stays in the kernel.
def test_solve_integer_roundtrip():
    generators = [[2, 0], [1, 3], [0, 1]]
    [(x, obstruction)], kernel = lattice_coordinates(generators, [[5, 7]])
    assert obstruction is None
    assert _combine(x, generators, 2) == [5, 7]
    assert len(kernel) == 1
    assert _combine(kernel[0], generators, 2) == [0, 0]

    zero = [[0, 0, 0], [0, 0, 0]]
    assert hermite_normal_form(zero) == []
    assert lattice_coordinates(zero, [[0, 0, 0], [0, 1, 0]]) == (
        [([0, 0], None), (None, "equation 2 is inconsistent: 0 = 1")],
        [[1, 0], [0, 1]])
    sparse = [[0, 2, 0, 4], [0, 3, 0, 1], [0, 0, 0, 6]]
    assert hermite_normal_form(sparse) == [[0, 1, 0, 1], [0, 0, 0, 2]]
    assert lattice_coordinates(sparse, [[0, 5, 0, 5], [0, 1, 0, 0],
                                        [1, 0, 0, 0], [0, 0, 0, 1]]) == (
        [([-35, 25, 20], None),
         (None, "equation 4: pivot 2 does not divide -1"),
         (None, "equation 1 is inconsistent: 0 = 1"),
         (None, "equation 4: pivot 2 does not divide 1")],
        [[9, -6, -5]])


def test_solve_integer_divisibility_obstruction():
    [(x, obstruction)], _ = lattice_coordinates([[2]], [[1]])
    assert x is None
    assert obstruction == "equation 1: pivot 2 does not divide 1"


def test_solve_integer_inconsistent():
    [(x, obstruction)], _ = lattice_coordinates([[1, 1], [1, 1]], [[0, 1]])
    assert x is None
    assert obstruction == "equation 2 is inconsistent: 0 = 1"


def _lattice_index_data(rows):
    """(rank, product of the nonzero Smith invariants) of the row lattice."""
    diag = sympy_snf(sympy.Matrix(rows))
    invariants = [abs(int(diag[i, i])) for i in range(min(diag.rows, diag.cols))
                  if diag[i, i] != 0]
    return len(invariants), math.prod(invariants)


@st.composite
def lattice_problems(draw):
    """(generators, target): 1–4 small integer generators in Z^1..Z^4, and a
    target built as a combination of them, perturbed in one coordinate or not."""
    n_cols = draw(st.integers(1, 4), label="n_cols")
    small = st.integers(-4, 4)
    generators = draw(st.lists(st.lists(small, min_size=n_cols, max_size=n_cols),
                               min_size=1, max_size=4), label="generators")
    weights = draw(st.lists(small, min_size=len(generators), max_size=len(generators)),
                   label="weights")
    target = _combine(weights, generators, n_cols)
    if draw(st.booleans(), label="perturb"):
        target[draw(st.integers(0, n_cols - 1), label="at")] += draw(
            st.integers(1, 3), label="by")
    return generators, target


# [DERIVED] the Hermite solve against Smith invariants from sympy: the target
# lies in the lattice iff appending it keeps the rank and the product of the
# nonzero invariants (the index of the lattice in its saturation); the
# coefficients rebuild the target exactly; the kernel rows are relations,
# as many as generators minus rank, and in Hermite form.
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problem=lattice_problems())
def test_lattice_coordinates_matches_smith_invariants(problem):
    generators, target = problem
    [(x, obstruction)], kernel = lattice_coordinates(generators, [target])
    rank, index = _lattice_index_data(generators)
    assert (x is not None) == (_lattice_index_data(generators + [target]) == (rank, index))
    assert (x is None) == (obstruction is not None)
    if x is not None:
        assert _combine(x, generators, len(target)) == target
    assert len(kernel) == len(generators) - rank
    for row in kernel:
        assert _combine(row, generators, len(target)) == [0] * len(target)
    assert hermite_normal_form(kernel) == kernel


# [DERIVED] the cohomology witness is canonical: λ0 and λ0 plus any relation
# κ (δκ = 0) give the same verdict witness, the reduction of both modulo the
# kernel lattice, on ω1 = δλ0 against ω2 = 0. On the two bases with
# [e1, e2] = a·e3 + e4 the kernel is not spanned by basis vectors, so the
# raw coordinates need that reduction.
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_witness_is_canonical_mod_kernel(data):
    base = NilLattice(data.draw(st.sampled_from(
        [catalog.abelian(2), catalog.heisenberg3(), catalog.n4(),
         catalog.h3_times_z(), catalog.filiform(5),
         NilAlgebra.from_brackets(4, 2, {(1, 2): {3: 1, 4: 1}}),
         NilAlgebra.from_brackets(4, 2, {(1, 2): {3: 2, 4: 1}})]), label="base"))
    n = base.dim
    generators, pairs = _coboundary_system(base)
    _, kernel = lattice_coordinates(generators, [[0] * len(pairs)])
    lam = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), label="λ0")
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=len(kernel),
                               max_size=len(kernel)), label="κ")
    kappa = _combine(shift, kernel, n)
    w1 = CentralCocycle(dim=n, entries=dict(zip(pairs, _combine(lam, generators, len(pairs)))))
    verdict = cocycles_cohomologous(base, w1, CentralCocycle(dim=n, entries={}))
    assert verdict.cohomologous and verdict.sign == 1
    witness = list(verdict.witness)
    lifted = [a + b for a, b in zip(lam, kappa)]
    assert witness == reduce_mod_lattice(lam, kernel) == reduce_mod_lattice(lifted, kernel)


# [TRIVIAL] reduction modulo a lattice with unit pivots zeroes coordinates.
def test_reduce_mod_lattice():
    assert reduce_mod_lattice([5, 7], [[1, 0], [0, 1]]) == [0, 0]
    assert reduce_mod_lattice([5, 7], [[2, 0]]) == [1, 7]
    assert reduce_mod_lattice([5, 7], []) == [5, 7]
