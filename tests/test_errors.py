"""One failure path: a failed check report raises the error its check names.

Oracle key: [TRIVIAL] the check-to-error table of `ValidationReport.require`
and the witness/defect that the raised errors carry.
"""

from fractions import Fraction

import pytest

from nilflat import catalog
from nilflat.algebra import NilAlgebra, vec_zero
from nilflat.coords import MalcevWord, first_to_second, second_to_first
from nilflat.errors import (BasisNotAdapted, JacobiViolated, NilflatError,
                            NotClosed, NotIntegral, NotNilpotent,
                            ValidationReport)
from nilflat.tower import CentralCocycle, NilLattice, extend_by_cocycle


@pytest.mark.parametrize("check, error", [
    ("jacobi", JacobiViolated), ("class", NotNilpotent),
    ("adapted", BasisNotAdapted), ("integer_constants", NotIntegral),
    ("closed", NotClosed), ("integral", NotIntegral)])
def test_require_raises_the_mapped_error(check, error):
    assert ValidationReport(ok=True, check=check).require() is None
    report = ValidationReport(ok=False, check=check, message=f"{check} fails",
                              witness=(1, 2, 3), defect=Fraction(-5, 7))
    with pytest.raises(error) as info:
        report.require()
    assert type(info.value) is error
    assert str(info.value) == f"{check} fails"
    assert info.value.witness == (1, 2, 3)
    assert info.value.defect == Fraction(-5, 7)


def test_errors_without_a_report_carry_no_witness():
    err = NilflatError("plain")
    assert str(err) == "plain"
    assert err.witness is None and err.defect is None


# permuted Heisenberg: [e2, e3] = e1, so span(e3) is not an ideal
def test_coordinates_raise_the_adapted_witness():
    permuted = NilAlgebra.from_brackets(3, 2, {(2, 3): {1: 1}})
    for convert, arg in ((first_to_second, vec_zero(3)),
                         (second_to_first, MalcevWord(vec_zero(3)))):
        with pytest.raises(BasisNotAdapted) as info:
            convert(permuted, arg)
        assert info.value.witness == (2, 3)
        assert info.value.defect == (1, 0, 0)


def test_lattice_integer_gate_carries_witness():
    with pytest.raises(NotIntegral) as info:
        NilLattice(catalog.heisenberg3_scaled())
    assert str(info.value) == ("structure constant 1/2 of [e1,e2] is not an "
                               "integer; the basis Z-span is not a lattice model")
    assert info.value.witness == (1, 2, 3)
    assert info.value.defect == Fraction(1, 2)


def test_extension_integral_gate_carries_witness():
    half = CentralCocycle.from_entries(2, {(1, 2): Fraction(1, 2)})
    with pytest.raises(NotIntegral) as info:
        extend_by_cocycle(NilLattice(catalog.abelian(2)), half)
    assert str(info.value) == "omega(e1,e2) = 1/2 is not an integer"
    assert info.value.witness == (1, 2)
    assert info.value.defect == Fraction(1, 2)
