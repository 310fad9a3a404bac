"""Rational nilpotent Lie algebras given by structure constants.

A `NilAlgebra` stores only the nonzero brackets [e_i, e_j] for i < j on a
fixed basis e_1, ..., e_n, as the sparse table {(i, j): {k: c}} that the
algebra files and `catalog` use (0-based inside, 1-based in files and in
`from_brackets`); antisymmetry supplies the rest. All arithmetic is exact
(`fractions.Fraction`), so identities are tested as equalities.

Construction validates only shape (dimensions, index ranges). Mathematical
invariants — Jacobi, adaptedness, nilpotency class — are checked by the
report-valued `check_*` functions and enforced wholesale by
`validate_algebra`, which also returns the lower central series its class
check computed; this keeps deliberately broken algebras constructible as
negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .errors import DimensionMismatch, NotNilpotent, ValidationReport
from .intlinalg import SparseRow, rational_row_basis

VecQ = Tuple[Fraction, ...]
RationalLike = Union[int, Fraction, str]


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


def is_zero(x: VecQ) -> bool:
    return all(v == 0 for v in x)


@dataclass(frozen=True)
class NilAlgebra:
    """Nilpotent Lie algebra over Q with a distinguished (ordered) basis.

    `brackets` is the sparse table {(i, j): {k: c}} of 0-based indices with
    i < j, holding [e_{i+1}, e_{j+1}] = Σ_k c·e_{k+1}. Construction keeps it
    canonical: coefficients are `Fraction`s, zero terms and empty brackets
    are dropped, and pairs and components are in sorted order, so equal
    algebras compare equal. `declared_class` is the claimed nilpotency class
    (0 only for dim 0).
    """

    dim: int
    declared_class: int
    brackets: Mapping[Tuple[int, int], Mapping[int, Fraction]]

    def __post_init__(self):
        n = self.dim
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), terms in sorted(self.brackets.items()):
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
        object.__setattr__(self, "brackets", table)
        if n < 0:
            raise DimensionMismatch(f"dim must be nonnegative, got {n}")
        if n == 0:
            if self.declared_class != 0:
                raise DimensionMismatch("the point algebra has class 0")
        elif self.declared_class < 1:
            raise DimensionMismatch(
                f"declared_class must be positive for dim {n}")

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
        """[e_{i+1}, e_{j+1}] for 0-based i, j, via stored data and antisymmetry."""
        out = [Fraction(0)] * self.dim
        sign = 1 if i < j else -1
        for k, coeff in self.brackets.get((min(i, j), max(i, j)), {}).items():
            out[k] = sign * coeff
        return tuple(out)

    def bracket(self, x: VecQ, y: VecQ) -> VecQ:
        """Bilinear extension [x, y]."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(
                f"bracket arguments must have length {n}, got {len(x)} and {len(y)}")
        out = [Fraction(0)] * n
        for (i, j), entry in self.brackets.items():
            # skip before any Fraction arithmetic: most pairs miss the support
            if not ((x[i] and y[j]) or (x[j] and y[i])):
                continue
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, coeff in entry.items():
                    out[k] += c * coeff
        return tuple(out)


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
    n = algebra.dim
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
            defect=tuple(Fraction(out.get(m, 0)) for m in range(n)))
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
        # [e_i, v] is built only for the i that bracket with v's support
        products = []
        for terms in current:
            for i in sorted(set().union(*(partners[m] for m in terms))):
                w: SparseRow = {}
                _add_ad(w, algebra, i, terms)
                products.append(w)
        nxt = rational_row_basis(products, n)
        if len(nxt) >= len(current):
            raise NotNilpotent(
                f"lower central series stabilizes at dimension {len(current)}")
        chain.append(nxt)
    return chain, len(chain) - 1


def _class_check(algebra: NilAlgebra) -> Tuple[ValidationReport, List[List[SparseRow]]]:
    """The class report and, when it passes, the lower central series."""
    try:
        chain, cls = lower_central_series(algebra)
    except NotNilpotent as exc:
        return ValidationReport(ok=False, check="class", message=str(exc)), []
    if cls != algebra.declared_class:
        return ValidationReport(
            ok=False, check="class",
            message=f"computed class {cls} differs from declared {algebra.declared_class}"), []
    return ValidationReport(ok=True, check="class"), chain


def check_class(algebra: NilAlgebra) -> ValidationReport:
    """Nilpotency plus agreement of the computed class with declared_class."""
    return _class_check(algebra)[0]


def validate_algebra(algebra: NilAlgebra) -> List[List[SparseRow]]:
    """Raise on the first failed mathematical invariant (shape already holds);
    return the lower central series that the class check computed.

    Order: Jacobi, then nilpotency/class (so so(3)-type input is reported as
    NotNilpotent rather than merely non-adapted), then adaptedness.
    """
    check_jacobi(algebra).require()
    report, chain = _class_check(algebra)
    report.require()
    check_adapted(algebra).require()
    return chain
