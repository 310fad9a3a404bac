"""Peeling, central extensions, and Euler-class cohomology.

Oracle key: [DERIVED] hand computations of centers, quotients and coboundary
systems; [TRIVIAL] abelian/identity cases. Round-trips are exact equalities
of structure constants.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from nilflat import algebra as algebra_module
from nilflat import catalog, fileio
from nilflat import intlinalg as intlinalg_module
from nilflat import tower as tower_module
from nilflat.algebra import NilAlgebra
from nilflat.errors import (
    DimensionMismatch,
    JacobiViolated,
    NotClosed,
    NotIntegral,
    NotNilpotent,
)
from nilflat.tower import (
    CentralCocycle,
    NilLattice,
    cocycles_cohomologous,
    extend_by_cocycle,
    peel_step,
    peel_tower,
)
from conftest import free_two_step, series_leads


def lat(algebra):
    return NilLattice(algebra=algebra)


H3 = lat(catalog.heisenberg3())
N4 = lat(catalog.n4())
H5 = lat(catalog.heisenberg5())
H3Z = lat(catalog.h3_times_z())
Z2 = lat(catalog.abelian(2))
Z3 = lat(catalog.abelian(3))


# [TRIVIAL]/[DERIVED] lattice construction gates.
def test_nil_lattice_validation():
    with pytest.raises(NotIntegral):
        lat(catalog.heisenberg3_scaled())
    with pytest.raises(JacobiViolated):
        lat(catalog.jacobi_violator())
    with pytest.raises(NotNilpotent):
        lat(catalog.so3_like())


# [TRIVIAL] the point has no central circle to peel.
def test_peel_step_point():
    with pytest.raises(DimensionMismatch):
        peel_step(lat(catalog.point()))


# [DERIVED] peel_step outputs: base structure + Euler cocycle entries.
def test_peel_step_h3():
    step = peel_step(H3)
    assert step.base.dim == 2
    assert step.base.algebra == catalog.abelian(2)
    assert step.cocycle.upper_entries() == [(1, 2, Fraction(1))]


def test_peel_step_z3():
    step = peel_step(Z3)
    assert step.base.algebra == catalog.abelian(2)
    assert step.cocycle.upper_entries() == []


def test_peel_step_n4():
    step = peel_step(N4)
    assert step.base.algebra == catalog.heisenberg3()
    assert step.cocycle.upper_entries() == [(1, 3, Fraction(1))]


def test_peel_step_h5():
    step = peel_step(H5)
    assert step.base.algebra == catalog.abelian(4)
    assert step.cocycle.upper_entries() == [(1, 2, Fraction(1)), (3, 4, Fraction(1))]


def test_peel_step_dim1():
    step = peel_step(lat(catalog.abelian(1)))
    assert step.base.dim == 0
    assert step.cocycle.dim == 0
    assert step.cocycle.upper_entries() == []


# [DERIVED] towers have exactly dim steps, bases chain by one dimension.
@pytest.mark.parametrize("lattice", [Z3, H3, N4, H5, H3Z])
def test_peel_tower_shape(lattice):
    tower = peel_tower(lattice)
    assert len(tower.steps) == lattice.dim
    dims = [s.total.dim for s in tower.steps]
    assert dims == list(range(lattice.dim, 0, -1))
    assert tower.steps[-1].base.dim == 0
    for a, b in zip(tower.steps, tower.steps[1:]):
        assert a.base == b.total


# [DERIVED] h3 tower Euler data: one Euler number 1 over the torus, then flat.
def test_peel_tower_h3_euler_data():
    tower = peel_tower(H3)
    entries = [s.cocycle.upper_entries() for s in tower.steps]
    assert entries == [[(1, 2, Fraction(1))], [], []]


def test_peel_tower_n4_euler_data():
    tower = peel_tower(N4)
    entries = [s.cocycle.upper_entries() for s in tower.steps]
    assert entries == [[(1, 3, Fraction(1))], [(1, 2, Fraction(1))], [], []]


DATA = Path(__file__).resolve().parent.parent / "data"
# every valid algebra under data/ (tests/test_peel_oracle.py pins the list)
TRUSTED_CASES = ([(f"data-{name}", fileio.load_lattice(DATA / f"{name}.json"))
                  for name in ("h3", "h3_times_z", "h5", "n4", "z2", "z3")]
                 + [(f"filiform{n}", lat(catalog.filiform(n))) for n in range(3, 11)]
                 + [("heisenberg5", H5), ("h3_times_z", H3Z)])


# [DERIVED] peel bases and extension totals skip validation because they are
# valid by construction; pin that the public constructor, which runs
# validate_algebra and the integer gate, accepts each of them and gives an
# equal lattice (same declared class). An extension that equals the total it
# was peeled from is equal to an already validated lattice.
@pytest.mark.parametrize("lattice", [case for _, case in TRUSTED_CASES],
                         ids=[name for name, _ in TRUSTED_CASES])
def test_trusted_path_matches_full_validation(lattice):
    product = extend_by_cocycle(lattice, CentralCocycle.from_entries(lattice.dim, {}))
    assert product == NilLattice(product.algebra)
    for step in peel_tower(lattice).steps:
        assert step.base == NilLattice(step.base.algebra)
        assert extend_by_cocycle(step.base, step.cocycle) == step.total


def canonical_items(algebra):
    return [(pair, list(entry.items())) for pair, entry in algebra.brackets.items()]


# [DERIVED] a derived table is handed over without a second sort, so it must
# already be canonical: every peel base and every extension (by the peeled
# cocycle, which adds pairs the base lacks, and by zero) of the shipped and
# catalog lattices equals the algebra the public constructor builds from the
# same table, with the same pairs and components in the same order, and no
# empty bracket.
@pytest.mark.parametrize("lattice", [case for _, case in TRUSTED_CASES],
                         ids=[name for name, _ in TRUSTED_CASES])
def test_derived_tables_are_canonical(lattice):
    derived = [extend_by_cocycle(lattice, CentralCocycle.from_entries(lattice.dim, {}))]
    for step in peel_tower(lattice).steps:
        derived += [step.base, extend_by_cocycle(step.base, step.cocycle)]
    for result in derived:
        algebra = result.algebra
        rebuilt = NilAlgebra(dim=algebra.dim, declared_class=algebra.declared_class,
                             brackets=algebra.brackets)
        assert algebra == rebuilt
        assert canonical_items(algebra) == canonical_items(rebuilt)
        assert all(algebra.brackets.values())


SERIES_CASES = ([("point", catalog.point()), ("z3", catalog.abelian(3)),
                 ("h3", catalog.heisenberg3()), ("h5", catalog.heisenberg5()),
                 ("n4", catalog.n4()), ("h3_times_z", catalog.h3_times_z())]
                + [(f"filiform{n}", catalog.filiform(n)) for n in range(3, 15)]
                + [(f"free2_{r}", free_two_step(r)) for r in (3, 4)])


# [DERIVED] a lattice holds the leads of the lower central series its
# validation computed, and every peel base keeps the leads of its total below
# its dimension: both equal the leads recomputed from the table's own
# series, and the base's declared class is their number, the recomputed
# class. The same holds on every level of the tower loaded back from its
# file, whose levels keep the leads read once off the top algebra.
@pytest.mark.parametrize("algebra", [case for _, case in SERIES_CASES],
                         ids=[name for name, _ in SERIES_CASES])
def test_peel_bases_inherit_series(algebra):
    lattice = lat(algebra)
    assert lattice.leads == series_leads(algebra)[0]
    tower = peel_tower(lattice)
    loaded = fileio.tower_from_obj(fileio.tower_to_obj(tower))
    for step in tower.steps + loaded.steps:
        for level in (step.total, step.base):
            leads, cls = series_leads(level.algebra)
            assert level.leads == leads
            assert level.algebra.declared_class == cls == len(leads)


# [DERIVED] peeling an already-built lattice runs no elimination: with the
# series, the leads from generators and the row reduction wrapped by counters
# in every module that looks them up, the whole tower of filiform(8) calls
# none of them; building the lattice reads the leads once, off generators,
# and reduces rows, which shows the counters are live.
def test_peel_tower_runs_no_elimination(monkeypatch):
    names = ("lower_central_series", "_generator_leads", "rational_row_basis")
    calls = dict.fromkeys(names, 0)
    for module in (algebra_module, intlinalg_module, tower_module):
        for name in calls:
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    lattice = lat(catalog.filiform(8))
    assert calls["_generator_leads"] == 1 and calls["lower_central_series"] == 0
    assert calls["rational_row_basis"] > 0
    calls.update(dict.fromkeys(names, 0))
    assert len(peel_tower(lattice).steps) == 8
    assert calls == dict.fromkeys(names, 0)


# [DERIVED] building a lattice brackets linearly in the dimension: the
# leads come from the two generators of filiform(n), one bracket per step,
# so the whole validation of NilLattice(filiform(n)) calls `_add_ad` at most
# 2n times (the lower central series itself brackets about n²/2 times).
@pytest.mark.parametrize("n", [16, 32, 64])
def test_lattice_build_brackets_linearly(n, monkeypatch):
    calls = []
    real_add_ad = algebra_module._add_ad

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real_add_ad(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "_add_ad", counted)
    lattice = lat(catalog.filiform(n))
    assert lattice.leads == tuple([0, *range(2, n)])
    assert 0 < len(calls) <= 2 * n


# [DERIVED] extension examples: (Z², ω=1) is the integer Heisenberg,
# (Z², 0) is Z³.
def test_extend_by_cocycle_examples():
    heis = extend_by_cocycle(Z2, CentralCocycle.from_entries(2, {(1, 2): 1}))
    assert heis.algebra == catalog.heisenberg3()
    flat = extend_by_cocycle(Z2, CentralCocycle.from_entries(2, {}))
    assert flat.algebra == catalog.abelian(3)


# [DERIVED] Theorem-level round-trip: extending the peel reproduces the
# lattice exactly (structure constants and class).
@pytest.mark.parametrize("lattice", [Z3, H3, N4, H5, H3Z])
def test_round_trip(lattice):
    step = peel_step(lattice)
    rebuilt = extend_by_cocycle(step.base, step.cocycle)
    assert rebuilt.algebra == lattice.algebra


# [DERIVED] invalid cocycles are rejected with precise diagnoses.
def test_extend_rejects_not_closed():
    bad = CentralCocycle.from_entries(4, {(4, 2): 1})
    with pytest.raises(NotClosed) as err:
        extend_by_cocycle(N4, bad)
    assert err.value.witness == (1, 3, 2)
    assert err.value.defect == Fraction(1)


def test_extend_rejects_not_integral():
    half = CentralCocycle.from_entries(2, {(1, 2): Fraction(1, 2)})
    with pytest.raises(NotIntegral):
        extend_by_cocycle(Z2, half)


# [TRIVIAL] equal cocycles over the torus: cohomologous with λ = 0.
def test_cohomologous_equal():
    w = CentralCocycle.from_entries(2, {(1, 2): 1})
    verdict = cocycles_cohomologous(Z2, w, w)
    assert verdict.cohomologous and verdict.sign == 1
    assert verdict.witness == (0, 0)


# [TRIVIAL] the witness is a 1-cochain, one coordinate per base dimension,
# also on the point and on Z, which have no pairs (i < j).
@pytest.mark.parametrize("dim", [0, 1, 2])
def test_witness_has_one_coordinate_per_dimension(dim):
    w = CentralCocycle(dim, {})
    verdict = cocycles_cohomologous(lat(catalog.abelian(dim)), w, w)
    assert verdict.cohomologous and verdict.witness == (0,) * dim


# [DERIVED] over an abelian base coboundaries vanish: ω=1 vs ω=2 differ.
def test_not_cohomologous_abelian():
    w1 = CentralCocycle.from_entries(2, {(1, 2): 1})
    w2 = CentralCocycle.from_entries(2, {(1, 2): 2})
    verdict = cocycles_cohomologous(Z2, w1, w2)
    assert not verdict.cohomologous
    assert verdict.obstruction
    # up to sign does not help: 1 ≠ ±2 in H²
    assert not cocycles_cohomologous(Z2, w1, w2, up_to_sign=True).cohomologous


# [DERIVED] abelian base: cohomologous ⇔ equal entrywise.
def test_abelian_equivalence_is_equality(rng):
    for _ in range(10):
        entries1 = {(1, 2): rng.randint(-3, 3), (1, 3): rng.randint(-3, 3),
                    (2, 3): rng.randint(-3, 3)}
        entries2 = {(1, 2): rng.randint(-3, 3), (1, 3): rng.randint(-3, 3),
                    (2, 3): rng.randint(-3, 3)}
        w1 = CentralCocycle.from_entries(3, entries1)
        w2 = CentralCocycle.from_entries(3, entries2)
        verdict = cocycles_cohomologous(Z3, w1, w2)
        assert verdict.cohomologous == (w1 == w2)


# [DERIVED] over h3 the Euler form ω(e1,e2)=1 is a coboundary: δλ with
# λ = −(e3 dual) satisfies δλ(e1,e2) = −λ([e1,e2]) = −λ(e3) = 1.
def test_cohomologous_h3_base():
    w1 = CentralCocycle.from_entries(3, {(1, 2): 1})
    w0 = CentralCocycle.from_entries(3, {})
    verdict = cocycles_cohomologous(H3, w1, w0)
    assert verdict.cohomologous and verdict.sign == 1
    assert verdict.witness == (0, 0, -1)


# [DERIVED] sign branch: w vs −w always matches via δλ = w + (−w) = 0.
def test_up_to_sign_branch():
    for base, entries in ((Z2, {(1, 2): 5}), (H3, {(1, 2): 1, (1, 3): 2})):
        w = CentralCocycle.from_entries(base.dim, entries)
        neg = CentralCocycle.from_entries(
            base.dim, {k: -v for k, v in entries.items()})
        strict = cocycles_cohomologous(base, w, neg)
        signed = cocycles_cohomologous(base, w, neg, up_to_sign=True)
        assert signed.cohomologous
        if not strict.cohomologous:
            assert signed.sign == -1
            assert signed.witness == (0,) * base.dim


# [DERIVED] an up-to-sign comparison reduces [generators | I] once for both
# signs: on the base of filiform(16), its peel cocycle against
# ω(e1, e2) = 7 fails on both branches with one such reduction (the kernel's
# Hermite form reduces no transform and is not counted).
def test_up_to_sign_reduces_once(monkeypatch):
    reductions = []
    reduce = intlinalg_module._hermite_reduce

    def counted(m, n_cols):
        if m and len(m[0]) > n_cols:
            reductions.append(n_cols)
        return reduce(m, n_cols)

    monkeypatch.setattr(intlinalg_module, "_hermite_reduce", counted)
    step = peel_step(lat(catalog.filiform(16)))
    w2 = CentralCocycle.from_entries(15, {(1, 2): 7})
    verdict = cocycles_cohomologous(step.base, step.cocycle, w2, up_to_sign=True)
    assert not verdict.cohomologous
    assert verdict.obstruction == ("+: equation 14 is inconsistent: 0 = 1; "
                                   "-: equation 14 is inconsistent: 0 = 1")
    assert reductions == [15 * 14 // 2]
