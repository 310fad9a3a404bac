"""Circle-bundle towers: peel a nilmanifold one central circle at a time,
rebuild total spaces from extension cocycles, and compare Euler classes.

Peeling: in an adapted nilpotent basis e_n is central and primitive, the
base is the quotient by span(e_n) with the induced basis (its structure
constants are the sub-table on e_1..e_{n-1}), and the extension class is
the left-invariant 2-form ω(x, y) = e_n-component of [x, y]. Extending by
a skew, closed, integral 2-form inverts the step on the nose, so tower
round-trips are exact structure-constant equalities.

Euler-class comparison is integral cocycle cohomology: ω1 and ω2 agree up to
coboundary iff δλ = ω1 − ω2 has an integer solution λ, where
δλ(x, y) = −λ([x, y]); this is an integer linear system solved by Smith
normal form, with an explicit λ witness or an obstruction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Mapping, Optional, Tuple

from .algebra import (
    NilAlgebra,
    VecQ,
    basis_vec,
    check_integer_constants,
    lower_central_series,
    validate_algebra,
)
from .errors import (
    DimensionMismatch,
    NotClosed,
    NotIntegral,
    NotSkew,
    ValidationReport,
)
from .intlinalg import reduce_mod_lattice, solve_integer


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
    extension by a skew, closed, integral cocycle of a valid base is the
    same, and `extend_by_cocycle` checks exactly those three properties.
    """

    algebra: NilAlgebra

    def __post_init__(self):
        validate_algebra(self.algebra)
        report = check_integer_constants(self.algebra)
        if not report:
            raise NotIntegral(
                f"{report.message}; the basis Z-span is not a lattice model")

    @property
    def dim(self) -> int:
        return self.algebra.dim


@dataclass(frozen=True)
class CentralCocycle:
    """Skew 2-form over the base basis; the extension/Euler class of a step."""

    omega: Tuple[Tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.omega)

    @staticmethod
    def from_entries(dim: int,
                     entries: Mapping[Tuple[int, int], object] = (),
                     ) -> "CentralCocycle":
        """Build from 1-based upper-triangular entries {(i, j): ω(e_i, e_j)}."""
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), value in dict(entries).items():
            if not (1 <= i <= dim and 1 <= j <= dim and i != j):
                raise DimensionMismatch(
                    f"cocycle index ({i},{j}) out of range for dim {dim}")
            v = Fraction(value)
            m[i - 1][j - 1] += v
            m[j - 1][i - 1] -= v
        return CentralCocycle(omega=tuple(tuple(row) for row in m))

    def value(self, x: VecQ, y: VecQ) -> Fraction:
        """Bilinear evaluation ω(x, y)."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch(f"cocycle arguments must have length {n}")
        total = Fraction(0)
        for i in range(n):
            if x[i] == 0:
                continue
            row = self.omega[i]
            for j in range(n):
                if y[j] != 0 and row[j] != 0:
                    total += x[i] * row[j] * y[j]
        return total

    def upper_entries(self) -> List[Tuple[int, int, Fraction]]:
        """Nonzero entries (i, j, ω(e_i,e_j)) with 1-based i < j, sorted."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.omega[i][j] != 0:
                    out.append((i + 1, j + 1, self.omega[i][j]))
        return out


def check_skew(cocycle: CentralCocycle) -> ValidationReport:
    n = cocycle.dim
    for i in range(n):
        for j in range(n):
            if cocycle.omega[i][j] != -cocycle.omega[j][i]:
                return ValidationReport(
                    ok=False, check="skew",
                    message=f"omega(e{i + 1},e{j + 1}) != -omega(e{j + 1},e{i + 1})",
                    witness=(i + 1, j + 1))
    return ValidationReport(ok=True, check="skew")


def check_closed(algebra: NilAlgebra, cocycle: CentralCocycle) -> ValidationReport:
    """Chevalley–Eilenberg cocycle condition on all basis triples.

    The cyclic sum S(x,y,z) = ω([x,y],z) + ω([y,z],x) + ω([z,x],y) is
    alternating, so a violating triple is found as an unordered set; the
    reported orientation is the lexicographically first permutation whose
    leading term ω([x,y],z) is nonzero, which pins the defect on a single
    visible structure constant.
    """
    n = algebra.dim
    if cocycle.dim != n:
        raise DimensionMismatch(
            f"cocycle dim {cocycle.dim} does not match algebra dim {n}")

    def cyc(p: Tuple[int, int, int]) -> Fraction:
        x, y, z = (basis_vec(n, q) for q in p)
        return (cocycle.value(algebra.bracket(x, y), z)
                + cocycle.value(algebra.bracket(y, z), x)
                + cocycle.value(algebra.bracket(z, x), y))

    def leading(p: Tuple[int, int, int]) -> Fraction:
        x, y, z = (basis_vec(n, q) for q in p)
        return cocycle.value(algebra.bracket(x, y), z)

    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                s = cyc((a, b, c))
                if s == 0:
                    continue
                for p in permutations((a, b, c)):
                    if leading(p) != 0:
                        return ValidationReport(
                            ok=False, check="closed",
                            message=("cocycle condition fails on "
                                     f"(e{p[0] + 1},e{p[1] + 1},e{p[2] + 1})"),
                            witness=(p[0] + 1, p[1] + 1, p[2] + 1),
                            defect=cyc(p))
                # unreachable: a nonzero alternating sum has a nonzero term
    return ValidationReport(ok=True, check="closed")


def check_integral(cocycle: CentralCocycle) -> ValidationReport:
    """All entries must be integers for the extension lattice to stay a model."""
    for i in range(cocycle.dim):
        for j in range(i + 1, cocycle.dim):
            if cocycle.omega[i][j].denominator != 1:
                return ValidationReport(
                    ok=False, check="integral",
                    message=(f"omega(e{i + 1},e{j + 1}) = {cocycle.omega[i][j]} "
                             "is not an integer"),
                    witness=(i + 1, j + 1), defect=cocycle.omega[i][j])
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


def _derived_lattice(dim: int, brackets: Mapping) -> NilLattice:
    """Lattice on a table that `peel_step` or `extend_by_cocycle` derived.

    Only those two may call it, and only on a table valid by construction
    (see `NilLattice`); the class comes from one lower central series and
    `validate_algebra` is skipped.
    """
    probe = NilAlgebra(dim=dim, declared_class=min(dim, 1), brackets=brackets)
    _, cls = lower_central_series(probe)
    algebra = NilAlgebra(dim=dim, declared_class=cls, brackets=probe.brackets)
    lattice = object.__new__(NilLattice)
    object.__setattr__(lattice, "algebra", algebra)
    return lattice


def peel_step(lattice: NilLattice) -> TowerStep:
    """Quotient by the central circle of e_n; emit base + Euler cocycle."""
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
            entries[(i + 1, j + 1)] = entry[m]
    cocycle = CentralCocycle.from_entries(m, entries)
    return TowerStep(total=lattice, base=_derived_lattice(m, base), cocycle=cocycle)


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

    Validates the cocycle (skew, closed, integral) before building; the
    result peels back to (base, cocycle) on the nose.
    """
    n = base.dim
    if cocycle.dim != n:
        raise DimensionMismatch(
            f"cocycle dim {cocycle.dim} does not match base dim {n}")
    _require_valid_cocycle(base, cocycle)
    brackets = {pair: dict(entry) for pair, entry in base.algebra.brackets.items()}
    for i, j, value in cocycle.upper_entries():
        brackets.setdefault((i - 1, j - 1), {})[n] = value
    return _derived_lattice(n + 1, brackets)


@dataclass(frozen=True)
class CohomologyVerdict:
    """Outcome of the Euler-class comparison.

    On success `sign` records which branch solved: +1 for δλ = ω1 − ω2,
    -1 for δλ = ω1 + ω2 (the up-to-sign branch); `witness` is the integral
    1-cochain λ in basis-dual coordinates, canonically reduced modulo the
    kernel lattice. On failure `obstruction` is a divisibility or
    inconsistency certificate from the Smith-normal-form solve.
    """

    cohomologous: bool
    sign: Optional[int] = None
    witness: Optional[Tuple[int, ...]] = None
    obstruction: Optional[str] = None


def _coboundary_system(base: NilLattice) -> Tuple[List[List[int]], List[Tuple[int, int]]]:
    """Rows of the integer system λ ↦ (−λ([e_i,e_j]))_{i<j}, plus pair index."""
    n = base.dim
    rows, pairs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            rows.append([-int(c) for c in base.algebra.basis_bracket(i, j)])
            pairs.append((i + 1, j + 1))
    return rows, pairs


def _require_valid_cocycle(base: NilLattice, w: CentralCocycle) -> None:
    report = check_skew(w)
    if not report:
        raise NotSkew(report.message)
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
    rows, pairs = _coboundary_system(base)

    def attempt(target_sign: int) -> CohomologyVerdict:
        # target_sign=+1 solves δλ = w1 − w2; target_sign=−1 solves δλ = w1 + w2
        b = [int(w1.omega[i - 1][j - 1] - target_sign * w2.omega[i - 1][j - 1])
             for (i, j) in pairs]
        x, obstruction, kernel = solve_integer(rows, b)
        if x is None:
            return CohomologyVerdict(cohomologous=False, obstruction=obstruction)
        x = reduce_mod_lattice(x, kernel)
        for row, rhs in zip(rows, b):
            assert sum(r * v for r, v in zip(row, x)) == rhs
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

