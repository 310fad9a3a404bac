"""Structure constants, Jacobi, adaptedness, central series, center.

Oracle key: [TRIVIAL] definition unfolding; [DERIVED] computed by hand or by
an independent method and frozen here.
"""

from fractions import Fraction

import pytest

from nilflat import catalog
from nilflat.algebra import (
    NilAlgebra,
    _generator_leads,
    basis_vec,
    check_adapted,
    check_class,
    check_jacobi,
    lower_central_series,
    validate_algebra,
    vec,
    vec_add,
    vec_scale,
)
from nilflat.errors import (
    BasisNotAdapted,
    DimensionMismatch,
    JacobiViolated,
    NotNilpotent,
)
from nilflat.tower import NilLattice
from conftest import NOT_NILPOTENT, free_two_step, random_vec, series_leads

H3 = catalog.heisenberg3()
N4 = catalog.n4()


# [TRIVIAL] bracket values straight from the structure constants.
def test_bracket_h3_basis():
    e1, e2, e3 = (basis_vec(3, i) for i in range(3))
    assert H3.bracket(e1, e2) == e3
    assert H3.bracket(e2, e1) == vec_scale(-1, e3)
    assert H3.bracket(e1, e3) == vec([0, 0, 0])
    assert H3.bracket(e2, e2) == vec([0, 0, 0])


# [DERIVED] bilinearity and antisymmetry on random rational vectors.
def test_bracket_bilinear_antisymmetric(rng):
    for algebra in (H3, N4, catalog.heisenberg5()):
        n = algebra.dim
        for _ in range(20):
            x, y, z = (random_vec(rng, n) for _ in range(3))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            lhs = algebra.bracket(vec_add(x, vec_scale(c, y)), z)
            rhs = vec_add(algebra.bracket(x, z), vec_scale(c, algebra.bracket(y, z)))
            assert lhs == rhs
            assert algebra.bracket(x, y) == vec_scale(-1, algebra.bracket(y, x))


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        H3.bracket(vec([1, 0]), vec([0, 1, 0]))


# [TRIVIAL]/[DERIVED] Jacobi: clean algebras pass; the control fails at
# (e1,e2,e3) with defect e3 (hand expansion: [e2,[e3,e1]] = [e2,-e1] = e3).
def test_check_jacobi():
    assert check_jacobi(H3).ok
    assert check_jacobi(catalog.abelian(4)).ok
    assert check_jacobi(N4).ok
    report = check_jacobi(catalog.jacobi_violator())
    assert not report.ok
    assert report.witness == (1, 2, 3)
    assert report.defect == vec([0, 0, 1])


# [TRIVIAL] adaptedness: catalog algebras pass; so(3) fails ([e2,e3] = e1).
def test_check_adapted():
    for algebra in (H3, N4, catalog.heisenberg5(), catalog.h3_times_z(),
                    catalog.abelian(3), catalog.point()):
        assert check_adapted(algebra).ok
    report = check_adapted(catalog.so3_like())
    assert not report.ok
    assert report.witness == (1, 3)  # [e1,e3] = -e2 already breaks the chain
    bad = NilAlgebra.from_brackets(3, 2, {(1, 2): {1: 1}})
    report = check_adapted(bad)
    assert not report.ok and report.witness == (1, 2)


# [DERIVED] lower central series dims and classes.
@pytest.mark.parametrize("algebra,dims,cls", [
    (H3, [3, 1, 0], 2),
    (catalog.abelian(4), [4, 0], 1),
    (N4, [4, 2, 1, 0], 3),
    (catalog.filiform(6), [6, 4, 3, 2, 1, 0], 5),
    (catalog.heisenberg5(), [5, 1, 0], 2),
    (catalog.h3_times_z(), [4, 1, 0], 2),
])
def test_lower_central_series(algebra, dims, cls):
    chain, computed = lower_central_series(algebra)
    assert [len(term) for term in chain] == dims
    assert computed == cls == algebra.declared_class


# [DERIVED] each term of the series brackets into the next one.
def test_series_terms_are_ideals():
    from nilflat.intlinalg import rational_row_basis

    for algebra in (H3, N4, catalog.filiform(5)):
        chain, cls = lower_central_series(algebra)
        n = algebra.dim
        for k in range(cls):
            nxt = chain[k + 1]
            for i in range(n):
                for row in chain[k]:
                    v = tuple(row.get(c, Fraction(0)) for c in range(n))
                    w = algebra.bracket(basis_vec(n, i), v)
                    stacked = rational_row_basis(nxt + [list(w)], n)
                    assert len(stacked) == len(nxt)


# [DERIVED] so(3) constants: the chain never descends.
def test_not_nilpotent():
    with pytest.raises(NotNilpotent):
        lower_central_series(catalog.so3_like())


# [DERIVED] in an adapted basis e_n is central, the circle a peel divides
# out: it commutes with every basis vector, exactly.
def test_center_commutes(rng):
    for algebra in (H3, N4, catalog.heisenberg5(), catalog.filiform(6)):
        n = algebra.dim
        for i in range(n):
            assert algebra.bracket(basis_vec(n, n - 1), basis_vec(n, i)) == (Fraction(0),) * n


# [TRIVIAL] class agreement check and the dim-0 degenerate case.
def test_check_class():
    assert check_class(H3).ok
    wrong = NilAlgebra.from_brackets(3, 1, {(1, 2): {3: 1}})
    assert not check_class(wrong).ok
    chain, cls = lower_central_series(catalog.point())
    assert chain == [[]] and cls == 0


def test_validate_algebra_raises():
    validate_algebra(H3)
    with pytest.raises(JacobiViolated) as err:
        validate_algebra(catalog.jacobi_violator())
    assert err.value.witness == (1, 2, 3)
    with pytest.raises(NotNilpotent):
        validate_algebra(catalog.so3_like())
    # permuted Heisenberg: valid and nilpotent, but the basis order is wrong
    with pytest.raises(BasisNotAdapted):
        validate_algebra(NilAlgebra.from_brackets(3, 2, {(2, 3): {1: 1}}))


def times_z(algebra):
    """The product with Z: a new central e_{n+1} that no bracket meets."""
    return NilAlgebra(dim=algebra.dim + 1, declared_class=algebra.declared_class,
                      brackets=algebra.brackets)


H7 = NilAlgebra.from_brackets(7, 2, {(1, 2): {7: 1}, (3, 4): {7: 1}, (5, 6): {7: 1}})
LEADS_CASES = ([(f"filiform{n}", catalog.filiform(n)) for n in range(4, 41)]
               + [(f"free2_{r}", free_two_step(r)) for r in range(3, 7)]
               + [("h3", H3), ("h5", catalog.heisenberg5()), ("h7", H7)]
               + [(f"{name}xZ", times_z(algebra)) for name, algebra in (
                   ("h3", H3), ("h5", catalog.heisenberg5()), ("h7", H7),
                   ("n4", N4), ("filiform8", catalog.filiform(8)),
                   ("free2_3", free_two_step(3)))]
               + [(f"z{n}", catalog.abelian(n)) for n in range(1, 13)]
               + [("point", catalog.point())])


# [DERIVED] the leads that validation reads off generators are those of the
# algebra's own lower central series (`conftest.series_leads`), and their
# number is its class.
@pytest.mark.parametrize("algebra", [case for _, case in LEADS_CASES],
                         ids=[name for name, _ in LEADS_CASES])
def test_generator_leads_match_series(algebra):
    leads = _generator_leads(algebra)
    assert (leads, len(leads)) == series_leads(algebra)
    assert validate_algebra(algebra) == leads


# [DERIVED] on Jacobi tables that are not nilpotent, validation raises the
# NotNilpotent of the lower central series, with its message: the dimension
# where the series stabilizes.
@pytest.mark.parametrize("algebra,dim", [case[1:] for case in NOT_NILPOTENT],
                         ids=[case[0] for case in NOT_NILPOTENT])
def test_not_nilpotent_message_through_lattice(algebra, dim):
    message = f"lower central series stabilizes at dimension {dim}"
    assert check_jacobi(algebra).ok
    with pytest.raises(NotNilpotent) as series_err:
        lower_central_series(algebra)
    assert str(series_err.value) == message
    for build in (_generator_leads, validate_algebra, NilLattice):
        with pytest.raises(NotNilpotent) as err:
            build(algebra)
        assert str(err.value) == message
    assert check_class(algebra).message == message


# [TRIVIAL] constructor shape validation.
def test_from_brackets_validation():
    with pytest.raises(DimensionMismatch):
        NilAlgebra.from_brackets(3, 2, {(2, 1): {3: 1}})  # needs i < j
    with pytest.raises(DimensionMismatch):
        NilAlgebra.from_brackets(3, 2, {(1, 2): {4: 1}})  # k out of range
    with pytest.raises(DimensionMismatch):
        NilAlgebra.from_brackets(0, 1, {})  # the point has class 0
