"""Exact linear algebra over the rationals and the integers.

Everything here is small (dimensions are desk scale), so the
implementations favour clarity and exactness over asymptotics. Rational row
spans come from one canonical reduced row-echelon basis, built
incrementally over sparse rows and returned sparse: the spanning sets of the
lower central series are long and mostly dependent, and a dependent row
costs only its own reduction. The one integer normal form is Hermite's, by
Euclidean row operations; integer systems are solved by the same reduction
with the unimodular transform tracked, one reduction for every target
(Cohen 1993, §2.4.3).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

SparseRow = Dict[int, Fraction]
Row = Union[Sequence[Fraction], Mapping[int, Fraction]]
IntMatrix = List[List[int]]
Solution = Tuple[Optional[List[int]], Optional[str]]


def _subtract(row: Dict[int, Fraction], f: Fraction, other: Dict[int, Fraction]) -> None:
    """row -= f·other on sparse rows, in place; entries that cancel are dropped."""
    for c, b in other.items():
        v = row.get(c, 0) - f * b
        if v:
            row[c] = v
        else:
            del row[c]


def rational_row_basis(rows: Sequence[Row], n_cols: int) -> List[SparseRow]:
    """Reduced row-echelon basis of the rational row span (canonical).

    A row is a dense sequence or a sparse {column: value} mapping; columns
    from n_cols on are ignored. The basis comes back sparse, one
    {column: value} dict of nonzero `Fraction`s per row, in pivot order; a
    row's pivot is its least column. Rows are folded in one at a time, as
    sparse dicts, into a running reduced basis {pivot: row}. Each
    basis row has a 1 at its pivot and 0 at every other pivot, so a new row
    is reduced by one subtraction per pivot it touches; a row that survives
    becomes a basis row, and its pivot column is cleared from the others.
    Most rows of a spanning set reduce to zero and cost only their own
    reduction.
    """
    basis: Dict[int, Dict[int, Fraction]] = {}
    for dense in rows:
        items = dense.items() if hasattr(dense, "items") else enumerate(dense)
        row = {c: v if type(v) is Fraction else Fraction(v)
               for c, v in items if v and c < n_cols}
        for p in [p for p in row if p in basis]:
            _subtract(row, row[p], basis[p])
        if not row:
            continue
        pivot = min(row)
        pv = row[pivot]
        if pv != 1:
            row = {c: v / pv for c, v in row.items()}
        for other in basis.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        basis[pivot] = row
        if len(basis) == n_cols:
            break
    return [basis[p] for p in sorted(basis)]


def _hermite_reduce(m: IntMatrix, n_cols: int) -> int:
    """Bring columns :n_cols of ``m`` to Hermite form in place; return the rank.

    Euclidean row operations act on whole rows, so columns from n_cols on
    (an appended identity, say) record the unimodular transform. Afterwards
    rows :rank hold the Hermite rows and the columns :n_cols of the rest are
    zero. A column that is zero in every row stays zero, so it is skipped.
    """
    r = 0
    for c in [c for c, column in enumerate(zip(*m)) if c < n_cols and any(column)]:
        while True:  # Euclid on column c below row r: least entry to row r
            nonzero = [i for i in range(r, len(m)) if m[i][c]]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(m[i][c]))
            m[r], m[i_min] = m[i_min], m[r]
            if len(nonzero) == 1:
                break
            for i in range(r + 1, len(m)):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-v for v in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
    return r


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns only the nonzero rows: pivots positive and strictly to the right
    as you go down, entries above each pivot reduced into [0, pivot).
    """
    m = [list(map(int, row)) for row in rows]
    return m[:_hermite_reduce(m, len(m[0]) if m else 0)]


def lattice_coordinates(generators: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
                        ) -> Tuple[List[Solution], IntMatrix]:
    """Write each of ``targets`` as an integer combination of ``generators``.

    Returns (solutions, kernel), one (coefficients, obstruction) pair per
    target: exactly one of coefficients / obstruction is set. One Hermite
    reduction of [generators | I] gives U·generators = H with U unimodular
    and serves every target. A target lies in the lattice iff it reduces to
    zero against H's echelon rows, column by column; the quotients y give
    the coefficients yᵀ·U[:rank]. Otherwise the obstruction names an
    equation (a column): one where a pivot does not divide the remainder,
    or one without a pivot where a remainder is left. The rows U[rank:] map
    to zero and span every relation; the kernel is their Hermite form.
    """
    k = len(generators)
    n_cols = len(targets[0])
    m = [list(map(int, g)) + [int(i == j) for j in range(k)]
         for i, g in enumerate(generators)]
    rank = _hermite_reduce(m, n_cols)
    kernel = hermite_normal_form([row[n_cols:] for row in m[rank:]])
    pivots = [next(c for c, v in enumerate(row) if v) for row in m[:rank]]

    def solve(target: Sequence[int]) -> Solution:
        rest = list(map(int, target))
        y = []
        for c, row in zip(pivots, m):
            q, remainder = divmod(rest[c], row[c])
            if remainder:
                return None, (f"equation {c + 1}: pivot {row[c]} does not divide "
                              f"{rest[c]}")
            rest = [a - q * b for a, b in zip(rest, row)]
            y.append(q)
        c = next((c for c, v in enumerate(rest) if v), None)
        if c is not None:
            return None, f"equation {c + 1} is inconsistent: 0 = {rest[c]}"
        return [sum(q * u[n_cols + j] for q, u in zip(y, m)) for j in range(k)], None

    return [solve(target) for target in targets], kernel


def reduce_mod_lattice(x: Sequence[int], basis_rows: Sequence[Sequence[int]]) -> List[int]:
    """Canonical representative of x modulo the lattice spanned by basis_rows.

    The rows must be in Hermite form already, as `hermite_normal_form` and
    `lattice_coordinates` return them. Greedy reduction against them; with a
    full set of unit-pivot rows this zeroes the corresponding coordinates,
    which is the canonical witness convention used by the cocycle-cohomology
    solver.
    """
    out = list(map(int, x))
    for row in basis_rows:
        pivot_col = next(i for i, v in enumerate(row) if v != 0)
        q = out[pivot_col] // row[pivot_col]
        if q:
            out = [a - q * b for a, b in zip(out, row)]
    return out
