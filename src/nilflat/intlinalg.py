"""Exact linear algebra over the rationals and the integers.

Everything here is small (dimensions are desk scale), so the
implementations favour clarity and exactness over asymptotics. Rational row
spans and kernels come from one canonical reduced row-echelon basis, built
incrementally over sparse rows: the spanning sets of the lower central
series are long and mostly dependent, and a dependent row costs only its own
reduction. Hermite and Smith normal forms use classical row operations with
the unimodular transforms tracked explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Matrix = List[List[Fraction]]
IntMatrix = List[List[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _subtract(row: Dict[int, Fraction], f: Fraction, other: Dict[int, Fraction]) -> None:
    """row -= f·other on sparse rows, in place; entries that cancel are dropped."""
    for c, b in other.items():
        v = row.get(c, 0) - f * b
        if v:
            row[c] = v
        else:
            del row[c]


def rational_nullspace(rows: Sequence[Sequence[Fraction]], n_cols: int) -> List[List[Fraction]]:
    """Basis of {x : A x = 0} over Q, read off the reduced row echelon form.

    Each basis vector has a 1 in its free column, −row[free] in the pivot
    column of each echelon row and 0 elsewhere.
    """
    echelon = rational_row_basis(rows, n_cols)
    pivots = [next(c for c, v in enumerate(row) if v) for row in echelon]
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, col in zip(echelon, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def rational_row_basis(rows: Sequence[Union[Sequence[Fraction], Mapping[int, Fraction]]],
                       n_cols: int) -> List[List[Fraction]]:
    """Reduced row-echelon basis of the rational row span (canonical).

    A row is a dense sequence or a sparse {column: value} mapping; columns
    from n_cols on are ignored. Rows are folded in one at a time, as sparse
    {column: value} dicts, into a running reduced basis {pivot: row}. Each
    basis row has a 1 at its pivot and 0 at every other pivot, so a new row
    is reduced by one subtraction per pivot it touches; a row that survives
    becomes a basis row, and its pivot column is cleared from the others.
    Most rows of a spanning set reduce to zero and cost only their own
    reduction.
    """
    basis: Dict[int, Dict[int, Fraction]] = {}
    for dense in rows:
        items = dense.items() if isinstance(dense, Mapping) else enumerate(dense)
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
    zero = Fraction(0)
    return [[basis[p].get(c, zero) for c in range(n_cols)] for p in sorted(basis)]


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Returns only the nonzero rows: pivots positive and strictly to the right
    as you go down, entries above each pivot reduced into [0, pivot).
    """
    m = [list(map(int, row)) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    r = 0
    for c in range(n_cols):
        # gcd out column c below row r via Euclidean row ops
        while True:
            nonzero = [i for i in range(r, n_rows) if m[i][c] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(m[i][c]))
            m[r], m[i_min] = m[i_min], m[r]
            if m[r][c] < 0:
                m[r] = [-v for v in m[r]]
            done = True
            for i in range(r + 1, n_rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < n_rows and m[r][c] != 0:
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == n_rows:
                break
    return [row for row in m[:r]]


def smith_normal_form(a: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V) with U A V = D.

    U and V are unimodular; D is diagonal (no divisibility chain needed by the
    callers here, but we produce it anyway for canonical output).
    """
    d = [list(map(int, row)) for row in a]
    n_rows = len(d)
    n_cols = len(d[0]) if d else 0
    u = _identity(n_rows)
    v = _identity(n_cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        d[dst] = [a - q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n_rows, n_cols):
        # find smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if d[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, n_rows):
            if d[i][t] != 0:
                add_row(i, t, d[i][t] // d[t][t])
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n_cols):
            if d[t][j] != 0:
                add_col(j, t, d[t][j] // d[t][t])
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: d[t][t] must divide every trailing entry, else fold
        # the offending row in and redo the pivot
        offender = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)
            continue
        t += 1
    return u, d, v


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]
                  ) -> Tuple[Optional[List[int]], Optional[str], IntMatrix]:
    """Solve A x = b over the integers.

    Returns (solution, obstruction, kernel_basis): exactly one of solution /
    obstruction is set. The obstruction is a human-readable divisibility or
    inconsistency certificate; the kernel basis (HNF rows) spans all integer
    solutions of A x = 0.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    if n_rows == 0:
        return [0] * n_cols, None, _identity(n_cols)
    u, d, v = smith_normal_form(a)
    ub = [sum(u[i][j] * b[j] for j in range(n_rows)) for i in range(n_rows)]
    y = [0] * n_cols
    for i in range(n_rows):
        di = d[i][i] if i < min(n_rows, n_cols) else 0
        if di != 0:
            if ub[i] % di != 0:
                return None, (f"row {i + 1}: divisor {di} does not divide {ub[i]}"), \
                    _kernel_from_snf(v, d, n_cols)
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None, (f"row {i + 1}: inconsistent equation 0 = {ub[i]}"), \
                _kernel_from_snf(v, d, n_cols)
    x = [sum(v[i][j] * y[j] for j in range(n_cols)) for i in range(n_cols)]
    return x, None, _kernel_from_snf(v, d, n_cols)


def _kernel_from_snf(v: IntMatrix, d: IntMatrix, n_cols: int) -> IntMatrix:
    n_rows = len(d)
    zero_cols = []
    for j in range(n_cols):
        dj = d[j][j] if j < min(n_rows, n_cols) else 0
        if dj == 0:
            zero_cols.append(j)
    basis = [[v[i][j] for i in range(n_cols)] for j in zero_cols]
    return hermite_normal_form(basis) if basis else []


def reduce_mod_lattice(x: Sequence[int], basis_rows: Sequence[Sequence[int]]) -> List[int]:
    """Canonical representative of x modulo the lattice spanned by basis_rows.

    Greedy reduction against the HNF basis; with a full set of unit-pivot rows
    this zeroes the corresponding coordinates, which is the canonical witness
    convention used by the cocycle-cohomology solver.
    """
    out = list(map(int, x))
    for row in hermite_normal_form(basis_rows) if basis_rows else []:
        pivot_col = next(i for i, v in enumerate(row) if v != 0)
        q = out[pivot_col] // row[pivot_col]
        if q:
            out = [a - q * b for a, b in zip(out, row)]
    return out
