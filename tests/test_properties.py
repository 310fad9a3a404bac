"""Property tests (hypothesis, derandomised).

Oracle key, exact layer: [DERIVED] `extend_by_cocycle` then `peel_step` is the
identity on (base, ω) for every integral closed ω, and the total is the
algebra whose 1-based bracket table is the base's plus ω(e_i, e_j)·e_{n+1}.
The cocycles are ω = a·ω_top + δλ: ω_top is the base's own peel cocycle read
as a form on the base (the pullback of a closed form is closed), δλ(x, y) =
−λ([x, y]) is a coboundary, a and λ are small random integers.

Oracle key, exact checks: [DERIVED] `check_jacobi`, `check_closed` and
`lower_central_series` read the sparse tables; the references here expand
dense basis vectors through a bilinear bracket and a bilinear ω written
from the same tables, and must give the same report or chain on random
tables of dim <= 7, adapted or not, Jacobi or not, nilpotent or not, with
closed and non-closed cocycles; and on fixed large tables (filiform(12),
filiform(16), free 2-step(4), abelian(12), h3×Z and their peel bases), with
the peel cocycle plus a coboundary and that cocycle with one entry raised
by 1, and on a filiform(16) table that breaks Jacobi on many triples. On
the random tables that satisfy Jacobi, the leads that validation reads off
generators are those of the lower central series, or the same NotNilpotent.

Oracle key, numerical layer: [DERIVED] the curvature every measurement uses, that of
diag(1, …, 1, t) in the split frame of `build_split`, against Milnor's
sectional curvature (`conftest.milnor_sectional`) of `canonical_variation`
in the original coordinates.  The two share no code: one path transforms
the structure constants into the frame and applies the Koszul formula, the
other transforms the metric and sums Milnor's formula.  Random SPD seeds on
h3, n4 and filiform(5), t in [1e-6, 1], random planes that are not nearly
degenerate in G^t; agreement to 1e-9 relative, with an absolute floor of
1e-12 times the largest orthonormal curvature component for planes whose |K|
nearly cancels.  At t = 1, on the same seeds, Milnor's K at G and K of
`rescaled_curvature` in the Cholesky frame of G agree to 1e-12 relative,
with the same floor.

Oracle key, curvature operator: [DERIVED] K of an orthonormal pair read as
bᵀℛb on Λ² (b = x ∧ c over the pairs of `scan._pairs`) against the direct
4-tensor contraction R̂(x, c, x, c), to 1e-12 of the largest component, on
the same random seeds; the polished sup lies between the largest
coordinate-plane |K| and the spectral radius ρ(ℛ), up to the rounding
allowance 2n⁴ε.

Oracle key, polished sup: [DERIVED] on dense seeds I + ½BBᵀ/n of h5, h7,
free 2-step(3, 4) and filiform(6), `scan.polished_sup` of the split-frame
tensor, and certify's reported sup, lie at or above
the largest |K| over the basis coordinate planes, computed here by
Milnor's formula (`conftest.milnor_sectional`) in the original coordinates (of
`canonical_variation` for scans, of the reported metric for certify; to
1e-9 relative), and at or below ρ + δ (ρ from ℛ built entry by entry here,
for scans; the reported `sup_abs_K_bound` for certify).

Oracle key, lemma constant: [DERIVED] C = 4‖A‖_F² + 2‖DA‖_F of
`scan.lemma_scan` is at least 4|A(x, e)|² + 2|DA(e, f, h)| at random unit
arguments (Cauchy–Schwarz), with A and DA from the test-side O'Neill oracle
at Gram I in the split frame, on the same random seeds.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilflat import catalog
from nilflat.algebra import (NilAlgebra, _generator_leads, check_jacobi,
                             lower_central_series)
from nilflat.errors import DimensionMismatch, NotNilpotent, ValidationReport
from nilflat.intlinalg import rational_row_basis
from nilflat.metric import (LeftInvariantMetric, _structure_in_frame,
                            rescaled_curvature, structure_array)
from nilflat.certify import certify_almost_flat
from nilflat.scan import (_curvature_operator, _lemma_constant, _pairs,
                          _rounding_allowance, _slack_form, _thorpe_form,
                          polished_sup)
from nilflat.tower import (CentralCocycle, NilLattice, check_closed,
                           extend_by_cocycle, peel_step, peel_tower)
from nilflat.submersion import build_split
from conftest import free_two_step, milnor_sectional, series_leads
from oneill_oracle import (canonical_variation, frame_structure, from_frame,
                           oneill_from_frame, split_diagonal)

ALGEBRAS = {"h3": catalog.heisenberg3(), "n4": catalog.n4(),
            "filiform5": catalog.filiform(5)}

UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       t=st.floats(1e-6, 1.0),
       data=st.data())
def test_split_frame_curvature_matches_canonical_variation(name, t, data):
    algebra = ALGEBRAS[name]
    n = algebra.dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    metric = LeftInvariantMetric(matrix=np.eye(n) + b @ b.T)
    # the plane, in orthonormal coordinates of G^t, is kept well away from
    # degenerate: both curvatures are then well-conditioned
    a, c = data.draw(arrays(np.float64, (2, n), elements=UNIT), label="plane")
    assume((a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c))

    z = np.zeros(n)
    z[n - 1] = 1.0
    split = build_split(metric, z)
    d = split_diagonal(n, t)
    r_hat = rescaled_curvature(frame_structure(algebra, split), np.sqrt(d))
    k_split = float(np.einsum("ijkl,i,j,k,l->", r_hat, a, c, a, c, optimize=False)
                    / ((a @ a) * (c @ c) - (a @ c) ** 2))
    a, c = a / np.sqrt(d), c / np.sqrt(d)
    k_ambient = milnor_sectional(algebra, canonical_variation(metric, z, t).matrix,
                                 from_frame(split, a), from_frame(split, c))

    scale = float(np.max(np.abs(r_hat)))
    assert k_split == pytest.approx(k_ambient, rel=1e-9, abs=1e-12 * scale)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), data=st.data())
def test_milnor_matches_rescaled_curvature(name, data):
    algebra = ALGEBRAS[name]
    n = algebra.dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    g = np.eye(n) + b @ b.T
    a, c = data.draw(arrays(np.float64, (2, n), elements=UNIT), label="plane")
    assume((a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c))

    chol = np.linalg.cholesky(g)
    f = np.linalg.inv(chol).T  # fᵀ·g·f = I
    r_hat = rescaled_curvature(
        _structure_in_frame(structure_array(algebra), f, chol.T), np.ones(n))
    k_frame = float(np.einsum("ijkl,i,j,k,l->", r_hat, a, c, a, c, optimize=False)
                    / ((a @ a) * (c @ c) - (a @ c) ** 2))
    k_milnor = milnor_sectional(algebra, g, f @ a, f @ c)

    scale = float(np.max(np.abs(r_hat)))
    assert k_frame == pytest.approx(k_milnor, rel=1e-12, abs=1e-12 * scale)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       t=st.floats(1e-6, 1.0),
       data=st.data())
def test_lambda2_kernel_matches_four_tensor(name, t, data):
    algebra = ALGEBRAS[name]
    n = algebra.dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    metric = LeftInvariantMetric(matrix=np.eye(n) + b @ b.T)
    a, c = data.draw(arrays(np.float64, (2, n), elements=UNIT), label="plane")
    assume((a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c))
    x = a / np.sqrt(a @ a)
    c = c - (c @ x) * x
    c = c / np.sqrt(c @ c)

    z = np.zeros(n)
    z[n - 1] = 1.0
    r_hat = rescaled_curvature(frame_structure(algebra, build_split(metric, z)),
                               np.sqrt(split_diagonal(n, t)))
    scale = float(np.max(np.abs(r_hat)))
    op = _curvature_operator(r_hat)
    i, j = _pairs(n)
    b = x[i] * c[j] - x[j] * c[i]
    k_lambda2 = float(np.einsum("p,pq,q->", b, op, b, optimize=False))
    k_direct = float(np.einsum("ijkl,i,j,k,l->", r_hat, x, c, x, c,
                               optimize=False))
    assert abs(k_lambda2 - k_direct) <= 1e-12 * scale

    # polished sup ≥ every coordinate plane's |K| (the diagonal of ℛ) and
    # ≤ ρ(ℛ), the top of the Rayleigh quotient on unit bivectors, up to the
    # rounding allowance of `scan.lemma_scan`
    delta = 2.0 * n ** 4 * np.finfo(np.float64).eps
    rho = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (op + op.T)))))
    sup, _ = polished_sup(r_hat)
    assert float(np.max(np.abs(np.diag(op)))) - delta * scale <= sup
    assert sup <= rho * (1.0 + delta)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)), data=st.data())
def test_lemma_constant_dominates_unit_arguments(name, data):
    algebra = ALGEBRAS[name]
    n = algebra.dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    metric = LeftInvariantMetric(matrix=np.eye(n) + b @ b.T)
    args = data.draw(arrays(np.float64, (5, n), elements=UNIT), label="args")
    norms = np.sqrt(np.einsum("ai,ai->a", args, args))
    assume(np.all(norms > 1e-3))
    x, e, f, g, h = args / norms[:, None]

    z = np.zeros(n)
    z[n - 1] = 1.0
    c_hat = frame_structure(algebra, build_split(metric, z))
    tensors = oneill_from_frame(c_hat, np.eye(n))
    a_xe = np.einsum("fep,f,e->p", tensors.a, x, e, optimize=False)
    da_efh = np.einsum("efhp,e,f,h->p", tensors.da, f, g, h, optimize=False)
    lower = 4.0 * float(a_xe @ a_xe) + 2.0 * float(np.sqrt(da_efh @ da_efh))
    assert lower <= _lemma_constant(c_hat) * (1.0 + 1e-12)


# 1-based tables: (dim, class, {(i, j): {k: c}})
BASES = {"h3": (3, 2, {(1, 2): {3: 1}}),
         "n4": (4, 3, {(1, 2): {3: 1}, (1, 3): {4: 1}}),
         "filiform5": (5, 4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}),
         "heisenberg5": (5, 2, {(1, 2): {5: 1}, (3, 4): {5: 1}}),
         "z3": (3, 1, {})}

SMALL = st.integers(-3, 3)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), a=SMALL, data=st.data())
def test_extend_then_peel_round_trips(name, a, data):
    n, cls, table = BASES[name]
    lam = data.draw(st.lists(SMALL, min_size=n, max_size=n), label="lambda")
    base = NilLattice(NilAlgebra.from_brackets(n, cls, table))
    top = {(i, j): v for i, j, v in peel_step(base).cocycle.upper_entries()}
    omega = {(i, j): a * top.get((i, j), 0)
             - sum(lam[k - 1] * c for k, c in table.get((i, j), {}).items())
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    cocycle = CentralCocycle.from_entries(n, omega)

    total = extend_by_cocycle(base, cocycle)
    step = peel_step(total)
    assert step.base == base
    assert step.cocycle == cocycle
    # ω is a coboundary, so the total is base × R and keeps the base's class;
    # zero ω entries are listed, and a zero term kept by the extension fails
    expected = {pair: dict(terms) for pair, terms in table.items()}
    for pair, value in omega.items():
        expected.setdefault(pair, {})[n + 1] = value
    assert total.algebra == NilAlgebra.from_brackets(n + 1, cls, expected)


# [DERIVED] the random extensions above hold the leads of the lower central
# series recomputed from their table, and so does every base of their peel
# towers (the prefix of its total's leads below its dimension), with the
# recomputed class, the number of leads, declared.
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), a=SMALL, data=st.data())
def test_extension_towers_inherit_series(name, a, data):
    n, cls, table = BASES[name]
    lam = data.draw(st.lists(SMALL, min_size=n, max_size=n), label="lambda")
    base = NilLattice(NilAlgebra.from_brackets(n, cls, table))
    top = {(i, j): v for i, j, v in peel_step(base).cocycle.upper_entries()}
    omega = {(i, j): a * top.get((i, j), 0)
             - sum(lam[k - 1] * c for k, c in table.get((i, j), {}).items())
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    total = extend_by_cocycle(base, CentralCocycle.from_entries(n, omega))
    leads, cls = series_leads(total.algebra)
    assert total.leads == leads and total.algebra.declared_class == cls == len(leads)
    for step in peel_tower(total).steps:
        leads, base_cls = series_leads(step.base.algebra)
        assert step.base.leads == leads
        assert step.base.algebra.declared_class == base_cls == len(leads)


def basis_vec(n, k):
    return tuple(Fraction(int(i == k)) for i in range(n))


def dense_bracket(algebra, x, y):
    out = [Fraction(0)] * algebra.dim
    for (i, j), entry in algebra.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        for k, coeff in entry.items():
            out[k] += c * coeff
    return tuple(out)


def dense_form(cocycle, x, y):
    return sum((w * (x[i] * y[j] - x[j] * y[i])
                for (i, j), w in cocycle.entries.items()), Fraction(0))


def reference_jacobi(algebra):
    n, br = algebra.dim, dense_bracket
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = basis_vec(n, i), basis_vec(n, j), basis_vec(n, k)
                terms = (br(algebra, x, br(algebra, y, z)),
                         br(algebra, y, br(algebra, z, x)),
                         br(algebra, z, br(algebra, x, y)))
                defect = tuple(sum(col, Fraction(0)) for col in zip(*terms))
                if any(defect):
                    return ValidationReport(
                        ok=False, check="jacobi",
                        message=f"Jacobi fails on (e{i + 1},e{j + 1},e{k + 1})",
                        witness=(i + 1, j + 1, k + 1), defect=defect)
    return ValidationReport(ok=True, check="jacobi")


def dense_rows(rows, n):
    return [tuple(row.get(c, Fraction(0)) for c in range(n)) for row in rows]


def dense_series(algebra):
    """`lower_central_series` with its sparse terms densified."""
    chain, cls = lower_central_series(algebra)
    return [dense_rows(term, algebra.dim) for term in chain], cls


def reference_series(algebra):
    n = algebra.dim
    if n == 0:
        return [[]], 0
    chain = [[basis_vec(n, i) for i in range(n)]]
    while chain[-1]:
        current = chain[-1]
        products = [dense_bracket(algebra, basis_vec(n, i), v)
                    for i in range(n) for v in current]
        nxt = dense_rows(rational_row_basis(products, n), n)
        if len(nxt) >= len(current):
            raise NotNilpotent(
                f"lower central series stabilizes at dimension {len(current)}")
        chain.append(nxt)
    return chain, len(chain) - 1


def reference_closed(algebra, cocycle):
    n = algebra.dim

    def leading(p):
        x, y, z = (basis_vec(n, q) for q in p)
        return dense_form(cocycle, dense_bracket(algebra, x, y), z)

    def cyc(p):
        return leading(p) + leading(p[1:] + p[:1]) + leading(p[2:] + p[:2])

    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if cyc((a, b, c)) == 0:
                    continue
                p = next(p for p in permutations((a, b, c)) if leading(p) != 0)
                return ValidationReport(
                    ok=False, check="closed",
                    message=("cocycle condition fails on "
                             f"(e{p[0] + 1},e{p[1] + 1},e{p[2] + 1})"),
                    witness=tuple(q + 1 for q in p), defect=cyc(p))
    return ValidationReport(ok=True, check="closed")


def outcome(series, algebra):
    try:
        return series(algebra)
    except NotNilpotent as exc:
        return str(exc)


COEFF = st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)])


@st.composite
def tables(draw):
    """(algebra, cocycle) of dim <= 7; with `adapted`, [e_i, e_j] only has
    components above j, so nilpotent and often Jacobi, else anything."""
    n = draw(st.integers(0, 7), label="dim")
    adapted = draw(st.booleans(), label="adapted")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)
                     if pairs else st.just([]), label="pairs"):
        low = pair[1] + 1 if adapted else 0
        if low < n:
            brackets[pair] = draw(st.dictionaries(
                st.integers(low, n - 1), COEFF, min_size=1, max_size=2))
    form = draw(st.dictionaries(st.sampled_from(pairs), COEFF, max_size=3)
                if pairs else st.just({}), label="omega")
    algebra = NilAlgebra(dim=n, declared_class=min(n, 1), brackets=brackets)
    return algebra, CentralCocycle(dim=n, entries=form)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=tables())
def test_table_checks_match_dense_references(case):
    algebra, cocycle = case
    assert check_jacobi(algebra) == reference_jacobi(algebra)
    assert check_closed(algebra, cocycle) == reference_closed(algebra, cocycle)
    assert (outcome(dense_series, algebra)
            == outcome(reference_series, algebra))


# [DERIVED] on every random table that satisfies Jacobi, nilpotent or not,
# the leads that validation reads off generators, and their number, are those
# of the table's own lower central series (`conftest.series_leads`), or the
# same NotNilpotent message.
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=tables())
def test_generator_leads_match_series_on_jacobi_tables(case):
    algebra, _ = case
    assume(check_jacobi(algebra).ok)

    def generated(table):
        leads = _generator_leads(table)
        return leads, len(leads)

    assert outcome(generated, algebra) == outcome(series_leads, algebra)


def large_tables():
    return {"filiform12": catalog.filiform(12), "filiform16": catalog.filiform(16),
            "free2step4": free_two_step(4), "abelian12": catalog.abelian(12),
            "h3xZ": catalog.h3_times_z()}


# (i, j, k) of the first failure of the raised cocycle, None where every
# 2-form on the base is closed (abelian, h3)
RAISED_FAILS = {"filiform12": (1, 9, 11), "filiform16": (1, 13, 15),
                "free2step4": (2, 3, 9), "abelian12": None, "h3xZ": None}


# [DERIVED] beyond the random tables' reach: the sparse checks give the
# dense references' reports and chains on large algebras and their peel
# bases, for a closed cocycle (peel cocycle + δλ) and for that cocycle with
# its last entry ω(e_{m−1}, e_m) raised by 1.
@pytest.mark.parametrize("name", sorted(RAISED_FAILS))
def test_large_table_checks_match_dense_references(name):
    algebra = large_tables()[name]
    step = peel_step(NilLattice(algebra))
    base = step.base.algebra
    m = base.dim
    lam = [(-1) ** k * (k % 3 + 1) for k in range(m)]
    omega = dict(step.cocycle.entries)
    for pair, entry in base.brackets.items():
        omega[pair] = omega.get(pair, 0) - sum(lam[k] * c for k, c in entry.items())
    closed = CentralCocycle(dim=m, entries=omega)
    omega[m - 2, m - 1] = omega.get((m - 2, m - 1), 0) + 1
    raised = CentralCocycle(dim=m, entries=omega)

    assert check_closed(base, closed) == reference_closed(base, closed)
    assert check_closed(base, closed).ok
    report = check_closed(base, raised)
    assert report == reference_closed(base, raised)
    assert report.witness == RAISED_FAILS[name]
    for table in (algebra, base):
        assert check_jacobi(table) == reference_jacobi(table)
        assert (outcome(dense_series, table)
                == outcome(reference_series, table))


# [DERIVED] the first Jacobi failure is the least triple, not the first one
# the sparse loop meets: with [e4, e5] = e10 and [e2, e7] = 2·e12 added to
# filiform(16), the bracket [e1, e3] already breaks (e1, e3, e5), but
# (e1, e2, e6) is reported, as by the dense reference.
def test_large_jacobi_breaker_reports_least_triple():
    brackets = {pair: dict(entry) for pair, entry in catalog.filiform(16).brackets.items()}
    brackets[3, 4] = {9: 1}
    brackets[1, 6] = {11: 2}
    algebra = NilAlgebra(dim=16, declared_class=15, brackets=brackets)
    report = check_jacobi(algebra)
    assert report == reference_jacobi(algebra)
    assert report.witness == (1, 2, 6)
    assert report.defect == tuple(Fraction(-2 * (m == 11)) for m in range(16))
    assert (outcome(dense_series, algebra)
            == outcome(reference_series, algebra))


# [TRIVIAL] the cocycle table is canonical: a (j, i) key is −ω on (i, j),
# opposite keys accumulate, zeros are dropped, bad pairs are refused.
def test_cocycle_table_canonical():
    assert (CentralCocycle.from_entries(3, {(2, 1): 1})
            == CentralCocycle.from_entries(3, {(1, 2): -1}))
    assert CentralCocycle.from_entries(3, {(1, 2): 1, (2, 1): 1}).entries == {}
    zero = CentralCocycle.from_entries(3, {(1, 2): 0, (2, 3): Fraction(3, 3)})
    assert zero.entries == {(1, 2): Fraction(1)}
    assert zero.upper_entries() == [(2, 3, Fraction(1))]
    for bad in ({(2, 2): 1}, {(1, 4): 1}, {(0, 1): 1}):
        with pytest.raises(DimensionMismatch):
            CentralCocycle.from_entries(3, bad)


# Oracle key, Thorpe's certificate: [DERIVED] W_ω of `scan._thorpe_form`
# against the form read off the fully antisymmetric 4-tensor of ω built here
# by permutations (W[(i,j),(k,l)] = Ω_ijkl), which vanishes at every
# decomposable bivector (the Plücker relations); the least-norm 4-form of
# `scan._slack_form` against numpy's lstsq on the dense m×C(n,4) matrix of
# ω ↦ W_ω σ; λ_max(±ℛ + W_ω) + δ_ω bounds ±K of random planes, K from the
# 4-tensor; and every sup that `polished_sup` flags as certified lies within
# 2δ of an upper bound built here from a plane found by alternating
# maximization of ±K and the lstsq 4-form.

THORPE_ALGEBRAS = {
    "h5": catalog.heisenberg5(),
    "h7": NilAlgebra.from_brackets(7, 2, {(1, 2): {7: 1}, (3, 4): {7: 1},
                                          (5, 6): {7: 1}}),
    "free3": free_two_step(3)}


def antisymmetric_form(omega, n):
    """W[(i,j),(k,l)] = Ω_ijkl over pairs i < j, k < l, with Ω the fully
    antisymmetric 4-tensor whose sorted entries are ω, 4-subsets in
    lexicographic order."""
    tensor = np.zeros((n,) * 4)
    for value, quad in zip(omega, combinations(range(n), 4)):
        for perm in permutations(range(4)):
            inversions = sum(perm[a] > perm[b] for a in range(4) for b in range(a + 1, 4))
            tensor[tuple(quad[p] for p in perm)] = (-1) ** inversions * value
    i, j = np.triu_indices(n, 1)
    return tensor[i[:, None], j[:, None], i, j]


def wedge(x, c):
    i, j = np.triu_indices(x.shape[0], 1)
    return x[i] * c[j] - x[j] * c[i]


def unit_pair(a, c):
    x = a / np.sqrt(a @ a)
    c = c - (c @ x) * x
    return x, c / np.sqrt(c @ c)


def thorpe_tensor(name, b, t):
    algebra = THORPE_ALGEBRAS[name]
    n = algebra.dim
    metric = LeftInvariantMetric(matrix=np.eye(n) + 0.5 * b @ b.T / n)
    z = np.zeros(n)
    z[n - 1] = 1.0
    return rescaled_curvature(frame_structure(algebra, build_split(metric, z)),
                              np.sqrt(split_diagonal(n, t)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 8), data=st.data())
def test_thorpe_form_vanishes_on_planes(n, data):
    count = n * (n - 1) * (n - 2) * (n - 3) // 24
    omega = data.draw(arrays(np.float64, (count,), elements=UNIT), label="omega")
    a, c = data.draw(arrays(np.float64, (2, n), elements=UNIT), label="plane")
    assume((a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c))
    w = _thorpe_form(omega, n)
    assert np.array_equal(w, antisymmetric_form(omega, n))
    sigma = wedge(*unit_pair(a, c))
    assert abs(float(sigma @ w @ sigma)) <= 1e-13 * count


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(THORPE_ALGEBRAS)), t=st.floats(1e-6, 1.0),
       data=st.data())
def test_thorpe_bound_dominates_random_planes(name, t, data):
    n = THORPE_ALGEBRAS[name].dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    r_hat = thorpe_tensor(name, b, t)
    op = _curvature_operator(r_hat)
    scale = float(np.max(np.abs(op)))
    count = n * (n - 1) * (n - 2) * (n - 3) // 24
    omega = scale * data.draw(arrays(np.float64, (count,), elements=UNIT),
                              label="omega")
    delta = _rounding_allowance(n, float(np.max(np.abs(r_hat)))
                                + float(np.max(np.abs(omega))))
    planes = data.draw(arrays(np.float64, (16, 2, n), elements=UNIT), label="planes")
    k = []
    for a, c in planes:
        if (a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c):
            x, c = unit_pair(a, c)
            k.append(float(np.einsum("ijkl,i,j,k,l->", r_hat, x, c, x, c,
                                     optimize=False)))
    for sign in (1.0, -1.0):
        top = np.linalg.eigvalsh(sign * 0.5 * (op + op.T) + _thorpe_form(omega, n))[-1]
        assert all(sign * value <= top + delta for value in k)


def slack_matrix(sigma, n):
    """The dense m×C(n,4) matrix of ω ↦ W_ω σ, column by column."""
    count = n * (n - 1) * (n - 2) * (n - 3) // 24
    return np.stack([antisymmetric_form(np.eye(count)[s], n) @ sigma
                     for s in range(count)], axis=1)


def best_signed_plane(r_hat, sign, gen):
    """(sσᵀℛσ, σ) at the plane of largest sK found by alternating exact
    maximization over each leg (the top eigenvector of the leg's form on the
    other leg's orthocomplement) from 12 random starts, each run until a
    step no longer raises sK."""
    n = r_hat.shape[0]
    best = (-np.inf, None)
    for _ in range(12):
        x, c = unit_pair(*gen.standard_normal((2, n)))
        value = -np.inf
        for _ in range(400):
            q = sign * np.einsum("ijkl,i,k->jl", r_hat, x, x)
            p = np.eye(n) - np.outer(x, x)
            q = p @ (0.5 * (q + q.T)) @ p - (np.abs(q).sum() + 1.0) * np.outer(x, x)
            vals, vecs = np.linalg.eigh(q)
            x, c = vecs[:, -1], x
            if vals[-1] <= value + 1e-15 * abs(value):
                break
            value = vals[-1]
        value = sign * float(np.einsum("ijkl,i,j,k,l->", r_hat, x, c, x, c))
        if value > best[0]:
            best = (value, wedge(*unit_pair(x, c)))
    return best


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(THORPE_ALGEBRAS)), t=st.floats(1e-4, 1.0),
       data=st.data())
def test_unsampled_sup_meets_independent_bound(name, t, data):
    n = THORPE_ALGEBRAS[name].dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    r_hat = thorpe_tensor(name, b, t)
    sup, certified = polished_sup(r_hat)
    if not certified:
        return
    op = _curvature_operator(r_hat)
    sym = 0.5 * (op + op.T)
    gen = np.random.default_rng(n)
    bounds, omega_max = [], 0.0
    for sign in (1.0, -1.0):
        value, sigma = best_signed_plane(r_hat, sign, gen)
        omega = np.linalg.lstsq(slack_matrix(sigma, n),
                                value * sigma - sign * sym @ sigma, rcond=None)[0]
        np.testing.assert_allclose(_slack_form(sigma, value * sigma - sign * sym @ sigma, n),
                                   omega, rtol=0.0, atol=1e-9 * max(1.0, np.abs(omega).max()))
        omega_max = max(omega_max, float(np.max(np.abs(omega))))
        bounds.append(min(np.linalg.eigvalsh(sign * sym)[-1],
                          np.linalg.eigvalsh(sign * sym + antisymmetric_form(omega, n))[-1]))
    delta = _rounding_allowance(n, float(np.max(np.abs(r_hat))) + omega_max)
    assert max(bounds) - 2.0 * delta <= sup <= max(bounds) + 2.0 * delta


FLOOR_ALGEBRAS = {"h5": THORPE_ALGEBRAS["h5"], "h7": THORPE_ALGEBRAS["h7"],
                  "free3": THORPE_ALGEBRAS["free3"], "free4": free_two_step(4),
                  "filiform6": catalog.filiform(6)}


def coordinate_floor(algebra, metric):
    """max |K| over the basis coordinate planes span(e_i, e_j), i < j."""
    e = np.eye(algebra.dim)
    return max(abs(milnor_sectional(algebra, metric.matrix, e[i], e[j]))
               for i, j in combinations(range(algebra.dim), 2))


def dense_metric(n, b):
    return LeftInvariantMetric(matrix=np.eye(n) + 0.5 * b @ b.T / n)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(FLOOR_ALGEBRAS)), t=st.floats(1e-4, 1.0),
       data=st.data())
def test_polished_sup_between_coordinate_planes_and_rho(name, t, data):
    algebra = FLOOR_ALGEBRAS[name]
    n = algebra.dim
    metric = dense_metric(n, data.draw(arrays(np.float64, (n, n), elements=UNIT),
                                       label="B"))
    z = np.zeros(n)
    z[n - 1] = 1.0
    r_hat = rescaled_curvature(frame_structure(algebra, build_split(metric, z)),
                               np.sqrt(split_diagonal(n, t)))
    floor = coordinate_floor(algebra, canonical_variation(metric, z, t))
    pairs = list(combinations(range(n), 2))
    op = np.array([[r_hat[i, j, k, l] for k, l in pairs] for i, j in pairs])
    rho = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (op + op.T)))))
    delta = _rounding_allowance(n, float(np.max(np.abs(r_hat))))
    sup, _ = polished_sup(r_hat)
    assert floor * (1.0 - 1e-9) <= sup <= rho + delta


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(FLOOR_ALGEBRAS)),
       eps=st.sampled_from([1e-2, 1e-3]), data=st.data())
def test_certified_sup_between_coordinate_planes_and_bound(name, eps, data):
    algebra = FLOOR_ALGEBRAS[name]
    n = algebra.dim
    seed = dense_metric(n, data.draw(arrays(np.float64, (n, n), elements=UNIT),
                                     label="B"))
    report = certify_almost_flat(peel_tower(NilLattice(algebra)), seed, eps)
    floor = coordinate_floor(algebra, LeftInvariantMetric(matrix=report.metric_matrix))
    assert floor * (1.0 - 1e-9) <= report.sup_abs_K <= report.sup_abs_K_bound <= eps
