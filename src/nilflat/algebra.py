"""Rational nilpotent Lie algebras given by structure constants.

A `NilAlgebra` stores only the nonzero brackets [e_i, e_j] for i < j on a
fixed basis e_1, ..., e_n, as the sparse table {(i, j): {k: c}} that the
algebra files and `catalog` use (0-based inside, 1-based in files and in
`from_brackets`); antisymmetry supplies the rest. All arithmetic is exact
(`fractions.Fraction`), so identities are tested as equalities.

Construction validates only shape (dimensions, index ranges). Mathematical
invariants — Jacobi, adaptedness, nilpotency class — are checked by the
report-valued `check_*` functions and enforced wholesale by
`validate_algebra`, which also returns the leads of the lower central
series (the least pivot of each term) that its class check read off
generators; this keeps deliberately broken algebras constructible as
negative controls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple, Union

from .errors import DimensionMismatch, NotNilpotent, ValidationReport, _Record
from .intlinalg import SparseRow, rational_row_basis

VecQ = Tuple[Fraction, ...]
RationalLike = Union[int, Fraction, str]
_ZERO = Fraction(0)


def vec(values: Iterable[RationalLike]) -> VecQ:
    return tuple(Fraction(v) for v in values)


def vec_zero(n: int) -> VecQ:
    return (Fraction(0),) * n


def vec_add(x: VecQ, y: VecQ) -> VecQ:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c: RationalLike, x: VecQ) -> VecQ:
    c = Fraction(c)
    return tuple(c * a for a in x)


def basis_vec(n: int, k: int) -> VecQ:
    """Standard basis vector e_{k+1} (0-based index k) in dimension n."""
    return tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))


def _sparse(x: VecQ) -> SparseRow:
    return {k: a for k, a in enumerate(x) if a}


def _dense(u: SparseRow, n: int) -> VecQ:
    return tuple(u.get(k, _ZERO) for k in range(n))


class NilAlgebra(_Record):
    """Nilpotent Lie algebra over Q with a distinguished (ordered) basis.

    `brackets` is the sparse table {(i, j): {k: c}} of 0-based indices with
    i < j, holding [e_{i+1}, e_{j+1}] = Σ_k c·e_{k+1}. Construction keeps it
    canonical: coefficients are `Fraction`s, zero terms and empty brackets
    are dropped, and pairs and components are in sorted order, so equal
    algebras compare equal. `declared_class` is the claimed nilpotency class
    (0 only for dim 0).
    """

    _fields = ("dim", "declared_class", "brackets")

    def __init__(self, dim: int, declared_class: int,
                 brackets: Mapping[Tuple[int, int], Mapping[int, RationalLike]]):
        n = dim
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), terms in sorted(brackets.items()):
            if not (0 <= i < j < n):
                raise DimensionMismatch(
                    f"bracket index ({i + 1},{j + 1}) out of range for dim {n}; "
                    "need 1 <= i < j <= n")
            entry = {}
            for k, coeff in sorted(terms.items()):
                if not (0 <= k < n):
                    raise DimensionMismatch(
                        f"component index {k + 1} out of range for dim {n}")
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                if coeff:
                    entry[k] = coeff
            if entry:
                table[(i, j)] = entry
        if n < 0:
            raise DimensionMismatch(f"dim must be nonnegative, got {n}")
        if n == 0:
            if declared_class != 0:
                raise DimensionMismatch("the point algebra has class 0")
        elif declared_class < 1:
            raise DimensionMismatch(
                f"declared_class must be positive for dim {n}")
        self.__dict__.update(dim=dim, declared_class=declared_class,
                             brackets=table)

    @staticmethod
    def from_brackets(dim: int,
                      declared_class: int,
                      brackets: Mapping[Tuple[int, int], Mapping[int, RationalLike]],
                      ) -> "NilAlgebra":
        """Build from 1-based sparse data: {(i, j): {k: coefficient}} for i < j."""
        table = {(i - 1, j - 1): {k - 1: coeff for k, coeff in terms.items()}
                 for (i, j), terms in brackets.items()}
        return NilAlgebra(dim=dim, declared_class=declared_class, brackets=table)

    def basis_bracket(self, i: int, j: int) -> VecQ:
        """[e_{i+1}, e_{j+1}] for 0-based i, j."""
        return self.bracket(basis_vec(self.dim, i), basis_vec(self.dim, j))

    def bracket(self, x: VecQ, y: VecQ) -> VecQ:
        """Bilinear extension [x, y]."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(
                f"bracket arguments must have length {n}, got {len(x)} and {len(y)}")
        return _dense(_bracket(self, _sparse(x), _sparse(y)), n)


def _add_ad(out: Dict[int, Fraction], algebra: NilAlgebra, i: int,
            terms: Mapping[int, Fraction], scale: Fraction | int = 1) -> None:
    """out += scale·[e_{i+1}, Σ_m terms[m]·e_{m+1}], read off the table.

    Products by 1 are skipped: most scales and structure constants are 1.
    """
    for m, c in terms.items():
        entry = algebra.brackets.get((i, m) if i < m else (m, i))
        if entry:
            if scale != 1:
                c = scale * c
            if m < i:
                c = -c
            for k, coeff in entry.items():
                t = c if coeff == 1 else c * coeff
                out[k] = out[k] + t if k in out else t


def _bracket(algebra: NilAlgebra, u: SparseRow, v: SparseRow) -> SparseRow:
    """[u, v] = Σ_i u_i·ad_{e_{i+1}} v on sparse rows, zeros dropped."""
    out: SparseRow = {}
    for i, a in u.items():
        _add_ad(out, algebra, i, v, scale=a)
    return {k: a for k, a in out.items() if a}


def _partners(algebra: NilAlgebra) -> List[List[int]]:
    """partners[m]: the indices i with a nonzero [e_{i+1}, e_{m+1}]."""
    partners: List[List[int]] = [[] for _ in range(algebra.dim)]
    for i, j in algebra.brackets:
        partners[i].append(j)
        partners[j].append(i)
    return partners


def check_jacobi(algebra: NilAlgebra) -> ValidationReport:
    """Jacobi identity on all basis triples; first violation reported.

    Convention: J(x,y,z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]].

    Only the nonzero terms are visited: each stored bracket [e_p,e_q]
    (p < q) adds ad_{e_r}[e_p,e_q] to J on the sorted triple {p,q,r}, with
    the sign of the permutation that sorts (p,q,r), for each r that
    brackets with its support. The first violation is the least sorted
    triple whose sum is nonzero.
    """
    partners = _partners(algebra)
    sums: Dict[Tuple[int, int, int], Dict[int, Fraction]] = {}
    for (p, q), entry in algebra.brackets.items():
        for r in set().union(*(partners[m] for m in entry)):
            if r != p and r != q:
                out = sums.setdefault(tuple(sorted((p, q, r))), {})
                _add_ad(out, algebra, r, entry, scale=-1 if p < r < q else 1)
    failing = [key for key, out in sums.items() if any(out.values())]
    if failing:
        i, j, k = min(failing)
        out = sums[i, j, k]
        return ValidationReport(
            ok=False, check="jacobi",
            message=(f"Jacobi fails on (e{i + 1},e{j + 1},e{k + 1})"),
            witness=(i + 1, j + 1, k + 1),
            defect=_dense(out, algebra.dim))
    return ValidationReport(ok=True, check="jacobi")


def check_adapted(algebra: NilAlgebra) -> ValidationReport:
    """Adaptedness of the basis: span(e_k,...,e_n) is an ideal for every k.

    Equivalent on pairs: [e_i, e_j] lies in span(e_j,...,e_n) for all i < j.
    """
    n = algebra.dim
    for (i, j), entry in algebra.brackets.items():
        m = next(iter(entry))
        if m < j:
            return ValidationReport(
                ok=False, check="adapted",
                message=(f"[e{i + 1},e{j + 1}] has a nonzero e{m + 1} component, "
                         f"so span(e{j + 1},...,e{n}) is not an ideal"),
                witness=(i + 1, j + 1), defect=algebra.basis_bracket(i, j))
    return ValidationReport(ok=True, check="adapted")


def check_integer_constants(algebra: NilAlgebra) -> ValidationReport:
    """Integer structure constants: the gate for the basis Z-span to be a
    lattice model (see `tower.NilLattice`)."""
    for (i, j), entry in algebra.brackets.items():
        for k, coeff in entry.items():
            if coeff.denominator != 1:
                return ValidationReport(
                    ok=False, check="integer_constants",
                    message=(f"structure constant {coeff} of "
                             f"[e{i + 1},e{j + 1}] is not an integer"),
                    witness=(i + 1, j + 1, k + 1), defect=coeff)
    return ValidationReport(ok=True, check="integer_constants")


def _bracket_span(algebra: NilAlgebra, partners: List[List[int]], among: Set[int],
                  rows: List[SparseRow]) -> List[SparseRow]:
    """Reduced echelon basis of span{[e_i, v] : i in `among`, v in rows};
    [e_i, v] is built only for the i that bracket with v's support, in any
    order (the reduced basis is canonical)."""
    products = []
    for row in rows:
        for i in among & set().union(*(partners[m] for m in row)):
            products.append(_bracket(algebra, {i: 1}, row))
    return rational_row_basis(products, algebra.dim)


def lower_central_series(algebra: NilAlgebra) -> Tuple[List[List[SparseRow]], int]:
    """Chain g = g_1 ⊇ [g, g_1] ⊇ [g, g_2] ⊇ ... ⊇ 0 and the nilpotency class.

    Returns (chain, class) where chain[k] is the reduced echelon basis of
    g_{k+1} as `rational_row_basis` returns it (sparse rows in pivot order)
    and class = len(chain) - 1. Raises NotNilpotent if the chain stabilizes
    at a nonzero subspace.
    """
    n = algebra.dim
    partners = _partners(algebra)
    one = Fraction(1)
    chain: List[List[SparseRow]] = [[{i: one} for i in range(n)]]
    while True:
        current = chain[-1]
        if not current:
            break
        nxt = _bracket_span(algebra, partners, set(range(n)), current)
        if len(nxt) >= len(current):
            raise NotNilpotent(
                f"lower central series stabilizes at dimension {len(current)}")
        chain.append(nxt)
    return chain, len(chain) - 1


def _generator_leads(algebra: NilAlgebra) -> Tuple[int, ...]:
    """Leads of the lower central series of a table that satisfies Jacobi:
    the least pivot (0-based) of each nonzero term γ_k; the class is their
    number.

    Read off generators instead of the series. X is the unit vectors off the
    pivots of [g, g], U_1 = span X and U_{k+1} = [X, U_k]. As X spans g
    modulo [g, g], Jacobi gives γ_k = U_k + γ_{k+1}, so γ_k = Σ_{j≥k} U_j:
    the class is the number of nonzero U_k, and the leads are the suffix
    minima of their least pivots. A step brackets the rows of U_k with the
    generators alone, not with all of g. The table is nilpotent exactly when
    U vanishes within dim steps and Σ_{k≥2} U_k is all of [g, g]; where it
    is not, `lower_central_series` raises its NotNilpotent.

    On a table that breaks Jacobi the leads mean nothing: `validate_algebra`
    checks Jacobi first, and `check_class` reads the series itself.
    """
    n = algebra.dim
    partners = _partners(algebra)
    derived = rational_row_basis(list(algebra.brackets.values()), n)
    generators = set(range(n)).difference(min(row) for row in derived)
    one = Fraction(1)
    terms = [[{i: one} for i in sorted(generators)]] if generators else []
    # U_2 is read off the table: the brackets of pairs of generators
    term = rational_row_basis([entry for (i, j), entry in algebra.brackets.items()
                               if i in generators and j in generators], n)
    while term and len(terms) < n:
        terms.append(term)
        term = _bracket_span(algebra, partners, generators, term)
    # rows with distinct pivots are independent: reduce only if too few
    higher = [row for t in terms[1:] for row in t]
    if term or (len({min(row) for row in higher}) < len(derived)
                and len(rational_row_basis(higher, n)) < len(derived)):
        lower_central_series(algebra)  # raises NotNilpotent on a Jacobi table
        raise AssertionError("the lower central series of a non-nilpotent "
                             "table ended; does it satisfy Jacobi?")
    leads, least = [], n
    for t in reversed(terms):
        least = min(least, min(t[0]))
        leads.append(least)
    return tuple(reversed(leads))


def _series_leads(algebra: NilAlgebra) -> Tuple[int, ...]:
    """Leads read off `lower_central_series` itself, on any table."""
    chain, _ = lower_central_series(algebra)
    return tuple(min(term[0]) for term in chain if term)


def _class_check(algebra: NilAlgebra, leads_of: Callable[[NilAlgebra], Tuple[int, ...]],
                 ) -> Tuple[ValidationReport, Tuple[int, ...]]:
    """The class report on `leads_of(algebra)`, whose number is the class,
    and, when it passes, the leads."""
    try:
        leads = leads_of(algebra)
    except NotNilpotent as exc:
        return ValidationReport(ok=False, check="class", message=str(exc)), ()
    if len(leads) != algebra.declared_class:
        return ValidationReport(
            ok=False, check="class",
            message=(f"computed class {len(leads)} differs from declared "
                     f"{algebra.declared_class}")), ()
    return ValidationReport(ok=True, check="class"), leads


def check_class(algebra: NilAlgebra) -> ValidationReport:
    """Nilpotency plus agreement of the computed class with declared_class,
    read off `lower_central_series`, so on any table, Jacobi or not."""
    return _class_check(algebra, _series_leads)[0]


def validate_algebra(algebra: NilAlgebra) -> Tuple[int, ...]:
    """Raise on the first failed mathematical invariant (shape already holds);
    return the leads of the lower central series, the least pivot (0-based)
    of each nonzero term, whose number is the class.

    Order: Jacobi, then nilpotency/class (so so(3)-type input is reported as
    NotNilpotent rather than merely non-adapted), then adaptedness. Once
    Jacobi holds, the class check reads the leads off generators
    (`_generator_leads`), not off the series.
    """
    check_jacobi(algebra).require()
    report, leads = _class_check(algebra, _generator_leads)
    report.require()
    check_adapted(algebra).require()
    return leads
