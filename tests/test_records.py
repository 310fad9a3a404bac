"""The record contract: the package's twelve record classes construct,
compare, hash and show themselves as they did when they were dataclasses.

Oracle key: [TRIVIAL] each expected repr string below was printed by the
dataclass version of its class, on the same arguments; the field order of
positional construction, the defaults, which classes compare by value and
which by identity, which are hashable, and the keys of
`certificate_summary` are the dataclass behaviour too.  Assignment and
deletion raise AttributeError (the dataclasses raised its subclass
`FrozenInstanceError`).
"""

from fractions import Fraction

import numpy as np
import pytest

from nilflat import (BundleTower, CentralCocycle, CertificateReport,
                     CohomologyVerdict, DecayReport, LeftInvariantMetric,
                     MalcevWord, NilAlgebra, NilLattice, SubmersionSplit,
                     TowerStep, ValidationReport, catalog, certificate_summary)

H3 = NilAlgebra.from_brackets(3, 2, {(1, 2): {3: 1}})
H3_REPR = "NilAlgebra(dim=3, declared_class=2, brackets={(0, 1): {2: Fraction(1, 1)}})"
EYE2_REPR = "array([[1., 0.],\n       [0., 1.]])"


# name: (class, fields in order as {name: factory of the value}, the repr,
# a field and a value that make an unequal record, or None for the classes
# that compare by identity, and whether equal records hash)
RECORDS = {
    "ValidationReport": (
        ValidationReport,
        {"ok": lambda: False, "check": lambda: "closed", "message": lambda: "m",
         "witness": lambda: (1, 2, 3), "defect": lambda: Fraction(1, 2)},
        "ValidationReport(ok=False, check='closed', message='m', "
        "witness=(1, 2, 3), defect=Fraction(1, 2))",
        ("message", "n"), True),
    "NilAlgebra": (
        NilAlgebra,
        {"dim": lambda: 3, "declared_class": lambda: 2,
         "brackets": lambda: {(0, 1): {2: 1}}},
        H3_REPR, ("brackets", {(0, 1): {2: 2}}), False),
    "MalcevWord": (
        MalcevWord,
        {"exponents": lambda: (Fraction(1), Fraction(1, 2))},
        "MalcevWord(exponents=(Fraction(1, 1), Fraction(1, 2)))",
        ("exponents", (Fraction(1), Fraction(1))), True),
    "NilLattice": (
        NilLattice, {"algebra": lambda: H3},
        f"NilLattice(algebra={H3_REPR})",
        ("algebra", catalog.abelian(3)), False),
    "CentralCocycle": (
        CentralCocycle, {"dim": lambda: 2, "entries": lambda: {(0, 1): 1}},
        "CentralCocycle(dim=2, entries={(0, 1): Fraction(1, 1)})",
        ("entries", {}), False),
    "TowerStep": (
        TowerStep,
        {"total": lambda: NilLattice(H3), "base": lambda: NilLattice(catalog.abelian(2)),
         "cocycle": lambda: CentralCocycle(2, {(0, 1): 1})},
        f"TowerStep(total=NilLattice(algebra={H3_REPR}), "
        "base=NilLattice(algebra=NilAlgebra(dim=2, declared_class=1, brackets={})), "
        "cocycle=CentralCocycle(dim=2, entries={(0, 1): Fraction(1, 1)}))",
        ("cocycle", CentralCocycle(2, {})), False),
    "BundleTower": (
        BundleTower,
        {"steps": lambda: (TowerStep(NilLattice(catalog.abelian(1)), NilLattice(catalog.point()),
                                     CentralCocycle(0, {})),)},
        "BundleTower(steps=(TowerStep("
        "total=NilLattice(algebra=NilAlgebra(dim=1, declared_class=1, brackets={})), "
        "base=NilLattice(algebra=NilAlgebra(dim=0, declared_class=0, brackets={})), "
        "cocycle=CentralCocycle(dim=0, entries={})),))",
        ("steps", ()), False),
    "CohomologyVerdict": (
        CohomologyVerdict,
        {"cohomologous": lambda: True, "sign": lambda: -1,
         "witness": lambda: (0, 1), "obstruction": lambda: None},
        "CohomologyVerdict(cohomologous=True, sign=-1, witness=(0, 1), obstruction=None)",
        ("sign", 1), True),
    "LeftInvariantMetric": (
        LeftInvariantMetric, {"matrix": lambda: np.eye(2)},
        f"LeftInvariantMetric(matrix={EYE2_REPR})", None, True),
    "SubmersionSplit": (
        SubmersionSplit, {"metric": lambda: LeftInvariantMetric(np.eye(2))},
        f"SubmersionSplit(metric=LeftInvariantMetric(matrix={EYE2_REPR}))",
        None, True),
    "DecayReport": (
        DecayReport,
        {"t_grid": lambda: (1.0, 0.5), "sup_abs_K": lambda: (0.75, 0.375),
         "base_sup_K": lambda: 0.0, "C": lambda: 1.5, "exponent_fit": lambda: 1.0,
         "diam_bound": lambda: (0.5, 0.25), "sample_count": lambda: 16,
         "seed": lambda: 0, "bounds": lambda: (2.0, 1.0)},
        "DecayReport(t_grid=(1.0, 0.5), sup_abs_K=(0.75, 0.375), base_sup_K=0.0, "
        "C=1.5, exponent_fit=1.0, diam_bound=(0.5, 0.25), sample_count=16, seed=0, "
        "bounds=(2.0, 1.0))",
        ("exponent_fit", None), True),
    "CertificateReport": (
        CertificateReport,
        {"eps": lambda: 0.01, "seed": lambda: 0, "sample_count": lambda: 16,
         "ts": lambda: (1.0, 0.5), "level_dims": lambda: (2, 1),
         "curved_levels": lambda: (2,), "rounds": lambda: (0, 3),
         "fiber_lengths": lambda: (1.0, 1.0), "sup_abs_K": lambda: 0.25,
         "sup_abs_K_bound": lambda: 0.5, "level_bounds": lambda: (0.5, 0.0),
         "diam_bound": lambda: 1.0, "metric_matrix": lambda: np.eye(2)},
        "CertificateReport(eps=0.01, seed=0, sample_count=16, ts=(1.0, 0.5), "
        "level_dims=(2, 1), curved_levels=(2,), rounds=(0, 3), "
        "fiber_lengths=(1.0, 1.0), sup_abs_K=0.25, sup_abs_K_bound=0.5, "
        f"level_bounds=(0.5, 0.0), diam_bound=1.0, metric_matrix={EYE2_REPR})",
        None, True),
}


def build(name, positional=False, **changed):
    cls, fields, _, _, _ = RECORDS[name]
    values = {field: make() for field, make in fields.items()}
    values.update(changed)
    return cls(*values.values()) if positional else cls(**values)


# [TRIVIAL] the repr, from keyword and from positional arguments alike.
@pytest.mark.parametrize("name", RECORDS)
def test_repr_and_construction(name):
    expected = RECORDS[name][2]
    assert repr(build(name)) == expected
    assert repr(build(name, positional=True)) == expected


# [TRIVIAL] the defaults of the two classes that have them.
def test_defaults():
    assert ValidationReport(True, "jacobi") == ValidationReport(
        ok=True, check="jacobi", message="", witness=None, defect=None)
    assert repr(ValidationReport(True, "jacobi")) == (
        "ValidationReport(ok=True, check='jacobi', message='', witness=None, defect=None)")
    assert CohomologyVerdict(False) == CohomologyVerdict(
        cohomologous=False, sign=None, witness=None, obstruction=None)
    assert repr(CohomologyVerdict(False)) == (
        "CohomologyVerdict(cohomologous=False, sign=None, witness=None, obstruction=None)")


# [TRIVIAL] `==` and `!=`: by value within one class, NotImplemented across
# classes, and by identity for the three classes that hold arrays.
@pytest.mark.parametrize("name", RECORDS)
def test_equality(name):
    record, twin = build(name), build(name, positional=True)
    changed = RECORDS[name][3]
    assert record == record and not record != record
    if changed is None:
        assert record != twin and not record == twin
    else:
        assert record == twin and not record != twin
        field, value = changed
        other = build(name, **{field: value})
        assert record != other and not record == other
    for other_name in RECORDS:
        if other_name != name:
            other = build(other_name)
            assert record.__eq__(other) is NotImplemented
            assert record != other


# [TRIVIAL] equal records hash equally where every field hashes; a dict
# field makes a record unhashable; identity records hash by identity.
@pytest.mark.parametrize("name", RECORDS)
def test_hash(name):
    record, twin = build(name), build(name, positional=True)
    if not RECORDS[name][4]:
        with pytest.raises(TypeError):
            hash(record)
    elif RECORDS[name][3] is None:
        assert hash(record) == object.__hash__(record)
    else:
        assert hash(record) == hash(twin)


# [TRIVIAL] no field can be assigned or deleted, and no attribute added.
@pytest.mark.parametrize("name", RECORDS)
def test_frozen(name):
    record = build(name)
    field = next(iter(RECORDS[name][1]))
    before = repr(record)
    for attempt in (lambda: setattr(record, field, None),
                    lambda: setattr(record, "extra", None),
                    lambda: delattr(record, field)):
        with pytest.raises(AttributeError):
            attempt()
    assert repr(record) == before
    assert not hasattr(record, "extra")


# [TRIVIAL] `NilLattice.leads` is neither compared nor shown.
def test_lattice_leads_not_compared():
    record, other = NilLattice(H3), NilLattice(H3)
    assert record.leads == (0, 2)
    vars(other)["leads"] = (5,)
    assert record == other and repr(record) == repr(other)


# [TRIVIAL] `certificate_summary` holds every report field but the matrix,
# in field order.
def test_certificate_summary_keys():
    summary = certificate_summary(build("CertificateReport"))
    assert list(summary) == ["eps", "seed", "sample_count", "ts", "level_dims",
                             "curved_levels", "rounds", "fiber_lengths",
                             "sup_abs_K", "sup_abs_K_bound", "level_bounds",
                             "diam_bound"]
    assert summary["ts"] == [1.0, 0.5]
