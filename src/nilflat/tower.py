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

from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    NilAlgebra,
    _generator_leads,
    check_integer_constants,
    validate_algebra,
)
from .errors import DimensionMismatch, NotIntegral, ValidationReport, _Record
from .intlinalg import lattice_coordinates, reduce_mod_lattice


class NilLattice(_Record):
    """A nilmanifold N/Γ: validated algebra + the integer-point lattice model.

    Validation at construction: `validate_algebra` (Jacobi, nilpotency class,
    adapted basis) plus integer structure constants. Integer constants are
    what keep every peel/extension/cocycle computation exactly integral. For
    class <= 2 they are moreover equivalent to the closure certificate
    `coords.lattice_closed`, which decides whether the integer second-kind
    points form a group. At class >= 3 they are not: where it fails, the
    group Γ that the exp(e_i) generate is larger than the integer points (in
    n4 it holds exp(½e4)). The tower here is that of the integer structure
    constants; no operation multiplies group words.

    The bases of `peel_step`, the totals of `extend_by_cocycle` and the
    levels of a loaded tower skip this validation (`_derived_lattice`): they
    are valid by construction. A quotient of a valid adapted algebra by its
    central e_n is the sub-table on e_1..e_{n-1}, again Jacobi, nilpotent,
    adapted and integral; an extension of a valid base by a closed,
    integral cocycle is the same (skewness holds by construction), and
    `extend_by_cocycle` checks exactly those two properties.

    `leads` holds the least pivot (0-based) of each nonzero term γ_k of the
    lower central series, as `validate_algebra` returns them (read off
    generators, see `algebra._generator_leads`); the class is len(leads).
    The image of γ_k in the quotient by span(e_{m+1}, ..., e_n) is nonzero
    iff γ_k has a pivot < m, and leads never decrease, so a peel base of
    dimension m keeps the prefix of leads below m: no lattice runs a second
    elimination.
    """

    _fields = ("algebra",)  # `leads` is derived: not compared, not shown

    def __init__(self, algebra: NilAlgebra):
        leads = validate_algebra(algebra)
        report = check_integer_constants(algebra)
        if not report:
            raise NotIntegral(
                f"{report.message}; the basis Z-span is not a lattice model",
                witness=report.witness, defect=report.defect)
        self.__dict__.update(algebra=algebra, leads=leads)

    @property
    def dim(self) -> int:
        return self.algebra.dim


class CentralCocycle(_Record):
    """2-form over the base basis; the extension/Euler class of a step.

    `entries` is the sparse table {(i, j): ω(e_{i+1}, e_{j+1})} of 0-based
    indices with i < j; skewness supplies the rest, so the form is skew by
    construction. Construction keeps it canonical, as `NilAlgebra.brackets`:
    values are `Fraction`s, zeros are dropped and pairs are sorted.
    """

    _fields = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[Tuple[int, int], object]):
        n = dim
        table: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), value in sorted(entries.items()):
            if not (0 <= i < j < n):
                raise DimensionMismatch(
                    f"cocycle index ({i + 1},{j + 1}) out of range for dim {n}")
            value = value if type(value) is Fraction else Fraction(value)
            if value:
                table[(i, j)] = value
        self.__dict__.update(dim=dim, entries=table)

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
    permutation that sorts (p,q,r); form entries on no such e_k are never
    read. The first violating triple is the least sorted triple whose sum
    is nonzero.
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

    # k -> [(r, ω(e_k, e_r))], only for the components e_k of some bracket
    hit = {k for entry in table.values() for k in entry}
    row: Dict[int, List[Tuple[int, Fraction]]] = {}
    for (i, j), value in form.items():
        if i in hit:
            row.setdefault(i, []).append((j, value))
        if j in hit:
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


class TowerStep(_Record):
    """One circle-bundle step: total space, base and class; the fiber is e_n."""

    _fields = ("total", "base", "cocycle")

    def __init__(self, total: NilLattice, base: NilLattice,
                 cocycle: CentralCocycle):
        self.__dict__.update(total=total, base=base, cocycle=cocycle)


class BundleTower(_Record):
    """Peeling of a lattice down to the point, top-down (largest first)."""

    _fields = ("steps",)

    def __init__(self, steps: Tuple[TowerStep, ...]):
        self.__dict__.update(steps=steps)


def _derived_lattice(dim: int, brackets: Mapping, leads: Tuple[int, ...]) -> NilLattice:
    """Lattice on a table that `peel_step`, `extend_by_cocycle` or
    `_tower_from_cocycles` derived.

    Only those may call it, and only on a table valid by construction (see
    `NilLattice`), the quotient by span(e_{dim+1}, ...) of one whose `leads`
    are in hand: its class is the number of leads below `dim`, and neither
    `validate_algebra` nor the canonical sort of `NilAlgebra` runs again.
    """
    leads = tuple(lead for lead in leads if lead < dim)
    algebra = object.__new__(NilAlgebra)
    algebra.__dict__.update(dim=dim, declared_class=len(leads), brackets=brackets)
    lattice = object.__new__(NilLattice)
    lattice.__dict__.update(algebra=algebra, leads=leads)
    return lattice


def peel_step(lattice: NilLattice) -> TowerStep:
    """Quotient by the central circle of e_n; emit base + Euler cocycle.

    The base keeps the leads of the total space below its dimension (see
    `NilLattice`), so no elimination runs here.
    """
    n = lattice.dim
    if n < 1:
        raise DimensionMismatch("the point has no central circle to peel")
    m = n - 1
    base, entries = {}, {}
    for (i, j), entry in lattice.algebra.brackets.items():
        if j == m:
            continue
        if rest := {k: c for k, c in entry.items() if k != m}:
            base[(i, j)] = rest
        if m in entry:
            entries[(i, j)] = entry[m]
    cocycle = CentralCocycle(dim=m, entries=entries)
    return TowerStep(total=lattice, base=_derived_lattice(m, base, lattice.leads),
                     cocycle=cocycle)


def peel_tower(lattice: NilLattice) -> BundleTower:
    """Iterate peel_step down to the point; exactly dim steps."""
    steps = []
    current = lattice
    while current.dim > 0:
        step = peel_step(current)
        steps.append(step)
        current = step.base
    return BundleTower(steps=tuple(steps))


def _extended_algebra(base: NilAlgebra, cocycle: CentralCocycle) -> NilAlgebra:
    """The table of the central extension of `base` by `cocycle`: a new
    central e_{n+1}, and the brackets gain ω(e_i,e_j)·e_{n+1}.

    Validates the cocycle (closed, integral; skew by construction) first.
    The class is not known yet and is declared 1.
    """
    n = base.dim
    if cocycle.dim != n:
        raise DimensionMismatch(
            f"cocycle dim {cocycle.dim} does not match base dim {n}")
    _require_valid_cocycle(base, cocycle)
    brackets = {pair: dict(entry) for pair, entry in base.brackets.items()}
    for pair, value in cocycle.entries.items():
        brackets.setdefault(pair, {})[n] = value
    return NilAlgebra(dim=n + 1, declared_class=1, brackets=brackets)


def extend_by_cocycle(base: NilLattice, cocycle: CentralCocycle) -> NilLattice:
    """Central extension: new central e_{n+1}, brackets gain ω(e_i,e_j)·e_{n+1}.

    Validates the cocycle (closed, integral; skew by construction) before
    building; the result peels back to (base, cocycle) on the nose. The
    total's leads are read off generators (`algebra._generator_leads`).
    """
    probe = _extended_algebra(base.algebra, cocycle)
    return _derived_lattice(probe.dim, probe.brackets, _generator_leads(probe))


def _tower_from_cocycles(cocycles: Sequence[CentralCocycle]) -> BundleTower:
    """The tower whose steps, top-down, have these cocycles: rebuilt
    bottom-up from the point by central extensions.

    Each cocycle is checked on its base, bottom-up, as `extend_by_cocycle`
    checks it. The leads are read off generators once, on the top algebra;
    the level of dimension m is the quotient of the top by
    span(e_{m+1}, ..., e_n), so it keeps the prefix of leads below m, as a
    peel base does (see `NilLattice`).
    """
    algebras = [NilAlgebra(dim=0, declared_class=0, brackets={})]
    for cocycle in reversed(cocycles):
        algebras.append(_extended_algebra(algebras[-1], cocycle))
    leads = _generator_leads(algebras[-1])
    levels = [_derived_lattice(a.dim, a.brackets, leads) for a in algebras]
    return BundleTower(steps=tuple(
        TowerStep(total=levels[c.dim + 1], base=levels[c.dim], cocycle=c)
        for c in cocycles))


class CohomologyVerdict(_Record):
    """Outcome of the Euler-class comparison.

    On success `sign` records which branch solved: +1 for δλ = ω1 − ω2,
    -1 for δλ = ω1 + ω2 (the up-to-sign branch); `witness` is the integral
    1-cochain λ in basis-dual coordinates, canonically reduced modulo the
    kernel lattice. On failure `obstruction` is a divisibility or
    inconsistency certificate from the Hermite reduction of the coboundary
    lattice.
    """

    _fields = ("cohomologous", "sign", "witness", "obstruction")

    def __init__(self, cohomologous: bool, sign: Optional[int] = None,
                 witness: Optional[Tuple[int, ...]] = None,
                 obstruction: Optional[str] = None):
        self.__dict__.update(cohomologous=cohomologous, sign=sign,
                             witness=witness, obstruction=obstruction)


def _coboundary_system(base: NilLattice) -> Tuple[List[List[int]], Dict[Tuple[int, int], int]]:
    """Generators δ(e_k*) of the coboundary lattice, plus the position of
    each 0-based pair (i, j), i < j, in sorted order.

    One generator per basis 1-cochain e_k*, with entry −c_ij^k at the pair
    (i, j), read straight off the sparse table.
    """
    n = base.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: p for p, pair in enumerate(pairs)}
    generators = [[0] * len(pairs) for _ in range(n)]
    for pair, entry in base.algebra.brackets.items():
        for k, c in entry.items():
            generators[k][index[pair]] = -int(c)
    return generators, index


def _require_valid_cocycle(base: NilAlgebra, w: CentralCocycle) -> None:
    check_closed(base, w).require()
    check_integral(w).require()


def cocycles_cohomologous(base: NilLattice, w1: CentralCocycle, w2: CentralCocycle,
                          up_to_sign: bool = False) -> CohomologyVerdict:
    """Decide δλ = w1 − w2 over the integers (optionally also w1 + w2).

    Once both cocycles pass `check_integral`, the targets and the witness
    check are integer arithmetic; the check sums δλ over the stored
    brackets alone, as δλ is zero on every other pair.
    """
    n = base.dim
    if w1.dim != n or w2.dim != n:
        raise DimensionMismatch("cocycle dims do not match the base")
    _require_valid_cocycle(base.algebra, w1)
    _require_valid_cocycle(base.algebra, w2)
    generators, index = _coboundary_system(base)
    # sign +1 solves δλ = w1 − w2; sign −1 solves δλ = w1 + w2
    signs = (1, -1) if up_to_sign else (1,)
    targets = []
    for sign in signs:
        b = [0] * len(index)
        for pair, value in w1.entries.items():
            b[index[pair]] = value.numerator
        for pair, value in w2.entries.items():
            b[index[pair]] -= sign * value.numerator
        targets.append(b)
    solutions, kernel = lattice_coordinates(generators, targets)
    for sign, b, (x, _) in zip(signs, targets, solutions):
        if x is not None:
            x = reduce_mod_lattice(x, kernel)
            check = [0] * len(index)
            for pair, entry in base.algebra.brackets.items():
                check[index[pair]] = -sum(x[k] * c.numerator for k, c in entry.items())
            assert check == b
            return CohomologyVerdict(cohomologous=True, sign=sign, witness=tuple(x))
    plus, *minus = (obstruction for _, obstruction in solutions)
    return CohomologyVerdict(cohomologous=False,
                             obstruction=f"+: {plus}; -: {minus[0]}" if minus else plus)
