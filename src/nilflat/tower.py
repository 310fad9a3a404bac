"""Circle-bundle towers: peel a nilmanifold one central circle at a time,
rebuild total spaces from extension cocycles, and compare Euler classes.

Peeling: in an adapted nilpotent basis e_n is central and primitive, the
base is the quotient by span(e_n) with the induced basis (its structure
constants are the sub-table on e_1..e_{n-1}), and the extension class is
the left-invariant 2-form ω(x, y) = e_n-component of [x, y], stored like the
brackets as a sparse table over pairs i < j (skew by construction).
Extending by a closed, integral 2-form inverts the step on the nose, so
tower round-trips are exact structure-constant equalities.

Euler-class comparison is integral cocycle cohomology: ω1 and ω2 agree up to
coboundary iff δλ = ω1 − ω2 has an integer solution λ, where
δλ(x, y) = −λ([x, y]), i.e. iff ω1 − ω2 lies in the lattice spanned by the
coboundaries δ(e_k*). One Hermite reduction of those generators decides
membership, with an explicit λ witness or an obstruction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    NilAlgebra,
    VecQ,
    check_integer_constants,
    lower_central_series,
    validate_algebra,
)
from .errors import (
    DimensionMismatch,
    NotClosed,
    NotIntegral,
    ValidationReport,
)
from .intlinalg import lattice_coordinates, reduce_mod_lattice


@dataclass(frozen=True)
class NilLattice:
    """A nilmanifold N/Γ: validated algebra + the integer-point lattice model.

    Validation at construction: `validate_algebra` (Jacobi, nilpotency class,
    adapted basis) plus integer structure constants. Integer constants are
    what keep every peel/extension/cocycle computation exactly integral; for
    class <= 2 they are moreover equivalent to the full closure certificate
    `coords.lattice_closed`. At class >= 3 the integer second-kind points are
    not literally closed under collection (BCH denominators appear), and the
    lattice is understood as the group generated by the basis one-parameter
    subgroups' integer points; no operation here multiplies deep group words,
    so all outputs stay exact.

    The bases of `peel_step` and the totals of `extend_by_cocycle` skip this
    validation (`_derived_lattice`): they are valid by construction. A
    quotient of a valid adapted algebra by its central e_n is the sub-table
    on e_1..e_{n-1}, again Jacobi, nilpotent, adapted and integral; an
    extension of a valid base by a closed, integral cocycle is the same
    (skewness holds by construction), and `extend_by_cocycle` checks
    exactly those two properties.

    `series` is the lower central series, as `lower_central_series` returns
    its chain: one reduced echelon basis per term, down to the empty one.
    Validation computes it once for the class check. A peel base inherits
    it by projection (`_project_series`), and an extension computes it once,
    so no lattice runs a second elimination for its class.
    """

    algebra: NilAlgebra
    series: Tuple[List[VecQ], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        series = validate_algebra(self.algebra)
        report = check_integer_constants(self.algebra)
        if not report:
            raise NotIntegral(
                f"{report.message}; the basis Z-span is not a lattice model")
        object.__setattr__(self, "series", tuple(series))

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class CentralCocycle:
    """2-form over the base basis; the extension/Euler class of a step.

    `entries` is the sparse table {(i, j): ω(e_{i+1}, e_{j+1})} of 0-based
    indices with i < j; skewness supplies the rest, so the form is skew by
    construction. Construction keeps it canonical, as `NilAlgebra.brackets`:
    values are `Fraction`s, zeros are dropped and pairs are sorted.
    """

    dim: int
    entries: Mapping[Tuple[int, int], Fraction]

    def __post_init__(self):
        n = self.dim
        table: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), value in sorted(self.entries.items()):
            if not (0 <= i < j < n):
                raise DimensionMismatch(
                    f"cocycle index ({i + 1},{j + 1}) out of range for dim {n}")
            value = Fraction(value)
            if value:
                table[(i, j)] = value
        object.__setattr__(self, "entries", table)

    @staticmethod
    def from_entries(dim: int,
                     entries: Mapping[Tuple[int, int], object] = (),
                     ) -> "CentralCocycle":
        """Build from 1-based entries {(i, j): ω(e_i, e_j)}; a key (j, i)
        adds −ω to the pair (i, j)."""
        table: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), value in dict(entries).items():
            value = Fraction(value)
            if i > j:
                i, j, value = j, i, -value
            table[(i - 1, j - 1)] = table.get((i - 1, j - 1), 0) + value
        return CentralCocycle(dim=dim, entries=table)

    def upper_entries(self) -> List[Tuple[int, int, Fraction]]:
        """Nonzero entries (i, j, ω(e_i,e_j)) with 1-based i < j, sorted."""
        return [(i + 1, j + 1, v) for (i, j), v in self.entries.items()]


def check_closed(algebra: NilAlgebra, cocycle: CentralCocycle) -> ValidationReport:
    """Chevalley–Eilenberg cocycle condition on all basis triples.

    The cyclic sum S(x,y,z) = ω([x,y],z) + ω([y,z],x) + ω([z,x],y) is
    alternating, so a violating triple is found as an unordered set; the
    reported orientation is the lexicographically first permutation whose
    leading term ω([x,y],z) is nonzero, which pins the defect on a single
    visible structure constant. Each term ω([e_a,e_b],e_c) is
    Σ_k [e_a,e_b]_k·ω(e_k,e_c), read off the two tables.

    Only the nonzero terms are visited: each stored bracket [e_p,e_q]
    (p < q), each of its components e_k and each form entry ω(e_k,e_r)
    add to S on the sorted triple {p,q,r}, with the sign of the
    permutation that sorts (p,q,r). The first violating triple is the least
    sorted triple whose sum is nonzero.
    """
    n = algebra.dim
    if cocycle.dim != n:
        raise DimensionMismatch(
            f"cocycle dim {cocycle.dim} does not match algebra dim {n}")
    table, form = algebra.brackets, cocycle.entries

    def leading(a: int, b: int, c: int) -> Fraction:
        sign = 1 if a < b else -1
        return sign * sum(
            coeff * (form.get((k, c), 0) if k < c else -form.get((c, k), 0))
            for k, coeff in table.get((min(a, b), max(a, b)), {}).items())

    def cyc(a: int, b: int, c: int) -> Fraction:
        return leading(a, b, c) + leading(b, c, a) + leading(c, a, b)

    row: Dict[int, List[Tuple[int, Fraction]]] = {}  # k -> [(r, ω(e_k, e_r))]
    for (i, j), value in form.items():
        row.setdefault(i, []).append((j, value))
        row.setdefault(j, []).append((i, -value))
    sums: Dict[Tuple[int, int, int], Fraction] = {}
    for (p, q), entry in table.items():
        for k, coeff in entry.items():
            for r, value in row.get(k, ()):
                if r != p and r != q:
                    key = tuple(sorted((p, q, r)))
                    term = -coeff * value if p < r < q else coeff * value
                    sums[key] = sums.get(key, 0) + term
    failing = [key for key, value in sums.items() if value]
    if failing:
        a, b, c = min(failing)
        for p in permutations((a, b, c)):
            if leading(*p) != 0:
                return ValidationReport(
                    ok=False, check="closed",
                    message=("cocycle condition fails on "
                             f"(e{p[0] + 1},e{p[1] + 1},e{p[2] + 1})"),
                    witness=(p[0] + 1, p[1] + 1, p[2] + 1),
                    defect=cyc(*p))
        # unreachable: a nonzero alternating sum has a nonzero term
    return ValidationReport(ok=True, check="closed")


def check_integral(cocycle: CentralCocycle) -> ValidationReport:
    """All entries must be integers for the extension lattice to stay a model."""
    for (i, j), value in cocycle.entries.items():
        if value.denominator != 1:
            return ValidationReport(
                ok=False, check="integral",
                message=f"omega(e{i + 1},e{j + 1}) = {value} is not an integer",
                witness=(i + 1, j + 1), defect=value)
    return ValidationReport(ok=True, check="integral")


@dataclass(frozen=True)
class TowerStep:
    """One circle-bundle step: total space, base and class; the fiber is e_n."""

    total: NilLattice
    base: NilLattice
    cocycle: CentralCocycle


@dataclass(frozen=True)
class BundleTower:
    """Peeling of a lattice down to the point, top-down (largest first)."""

    steps: Tuple[TowerStep, ...]


def _derived_lattice(dim: int, brackets: Mapping,
                     series: Sequence[List[VecQ]]) -> NilLattice:
    """Lattice on a table that `peel_step` or `extend_by_cocycle` derived.

    Only those two may call it, and only on a table valid by construction
    (see `NilLattice`) with its lower central series already in hand; the
    class is len(series) - 1 and `validate_algebra` is skipped.
    """
    algebra = NilAlgebra(dim=dim, declared_class=len(series) - 1, brackets=brackets)
    lattice = object.__new__(NilLattice)
    object.__setattr__(lattice, "algebra", algebra)
    object.__setattr__(lattice, "series", tuple(series))
    return lattice


def _project_series(series: Sequence[List[VecQ]]) -> List[List[VecQ]]:
    """Lower central series of g/<e_n> from that of g: drop the last coordinate.

    γ_k(g/<e_n>) is the image of γ_k(g). In a reduced echelon basis the row
    with pivot e_n is e_n itself and vanishes; every other row keeps its
    leading 1 and its zeros at the other pivots, so the projection is already
    the canonical echelon basis of the image. Once e_n was the last nonzero
    term, the projected chain ends one term earlier.
    """
    projected: List[List[VecQ]] = []
    for basis in series:
        projected.append([row[:-1] for row in basis if any(row[:-1])])
        if not projected[-1]:
            break
    return projected


def peel_step(lattice: NilLattice) -> TowerStep:
    """Quotient by the central circle of e_n; emit base + Euler cocycle.

    The base inherits the projected lower central series of the total space,
    so no elimination runs here.
    """
    n = lattice.dim
    if n < 1:
        raise DimensionMismatch("the point has no central circle to peel")
    m = n - 1
    base, entries = {}, {}
    for (i, j), entry in lattice.algebra.brackets.items():
        if j == m:
            continue
        base[(i, j)] = {k: c for k, c in entry.items() if k != m}
        if m in entry:
            entries[(i, j)] = entry[m]
    cocycle = CentralCocycle(dim=m, entries=entries)
    series = _project_series(lattice.series)
    return TowerStep(total=lattice, base=_derived_lattice(m, base, series), cocycle=cocycle)


def peel_tower(lattice: NilLattice) -> BundleTower:
    """Iterate peel_step down to the point; exactly dim steps."""
    steps = []
    current = lattice
    while current.dim > 0:
        step = peel_step(current)
        steps.append(step)
        current = step.base
    return BundleTower(steps=tuple(steps))


def extend_by_cocycle(base: NilLattice, cocycle: CentralCocycle) -> NilLattice:
    """Central extension: new central e_{n+1}, brackets gain ω(e_i,e_j)·e_{n+1}.

    Validates the cocycle (closed, integral; skew by construction) before
    building; the result peels back to (base, cocycle) on the nose.
    """
    n = base.dim
    if cocycle.dim != n:
        raise DimensionMismatch(
            f"cocycle dim {cocycle.dim} does not match base dim {n}")
    _require_valid_cocycle(base, cocycle)
    brackets = {pair: dict(entry) for pair, entry in base.algebra.brackets.items()}
    for pair, value in cocycle.entries.items():
        brackets.setdefault(pair, {})[n] = value
    probe = NilAlgebra(dim=n + 1, declared_class=1, brackets=brackets)
    series, _ = lower_central_series(probe)
    return _derived_lattice(n + 1, probe.brackets, series)


@dataclass(frozen=True)
class CohomologyVerdict:
    """Outcome of the Euler-class comparison.

    On success `sign` records which branch solved: +1 for δλ = ω1 − ω2,
    -1 for δλ = ω1 + ω2 (the up-to-sign branch); `witness` is the integral
    1-cochain λ in basis-dual coordinates, canonically reduced modulo the
    kernel lattice. On failure `obstruction` is a divisibility or
    inconsistency certificate from the Hermite reduction of the coboundary
    lattice.
    """

    cohomologous: bool
    sign: Optional[int] = None
    witness: Optional[Tuple[int, ...]] = None
    obstruction: Optional[str] = None


def _coboundary_system(base: NilLattice) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Generators δ(e_k*) of the coboundary lattice, plus the 0-based pairs.

    One generator per basis 1-cochain e_k*, with entry −c_ij^k at the pair
    (i, j), i < j, read straight off the sparse table.
    """
    n = base.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: p for p, pair in enumerate(pairs)}
    generators = [[0] * len(pairs) for _ in range(n)]
    for pair, entry in base.algebra.brackets.items():
        for k, c in entry.items():
            generators[k][index[pair]] = -int(c)
    return generators, pairs


def _require_valid_cocycle(base: NilLattice, w: CentralCocycle) -> None:
    report = check_closed(base.algebra, w)
    if not report:
        raise NotClosed(report.message, witness=report.witness, defect=report.defect)
    report = check_integral(w)
    if not report:
        raise NotIntegral(report.message)


def cocycles_cohomologous(base: NilLattice, w1: CentralCocycle, w2: CentralCocycle,
                          up_to_sign: bool = False) -> CohomologyVerdict:
    """Decide δλ = w1 − w2 over the integers (optionally also w1 + w2)."""
    n = base.dim
    if w1.dim != n or w2.dim != n:
        raise DimensionMismatch("cocycle dims do not match the base")
    _require_valid_cocycle(base, w1)
    _require_valid_cocycle(base, w2)
    generators, pairs = _coboundary_system(base)

    def attempt(target_sign: int) -> CohomologyVerdict:
        # target_sign=+1 solves δλ = w1 − w2; target_sign=−1 solves δλ = w1 + w2
        b = [int(w1.entries.get(pair, 0) - target_sign * w2.entries.get(pair, 0))
             for pair in pairs]
        x, obstruction, kernel = lattice_coordinates(generators, b)
        if x is None:
            return CohomologyVerdict(cohomologous=False, obstruction=obstruction)
        x = reduce_mod_lattice(x, kernel)
        assert [sum(v * g[p] for v, g in zip(x, generators))
                for p in range(len(pairs))] == b
        return CohomologyVerdict(cohomologous=True, sign=target_sign,
                                 witness=tuple(x))

    first = attempt(1)
    if first.cohomologous or not up_to_sign:
        return first
    second = attempt(-1)
    if second.cohomologous:
        return second
    return CohomologyVerdict(
        cohomologous=False,
        obstruction=f"+: {first.obstruction}; -: {second.obstruction}")

