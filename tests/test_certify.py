"""Tower-level almost-flatness certification.

Oracle key: [DERIVED] Heisenberg closed form sup|K^t| = 3t/4 pins the h3
schedule near 4·eps/3, and on h5 the gating spectral radius ρ(ℛ) = 5t/4 pins
it near 4·eps/5; the returned metric matrix is checked against its
defining congruence (the unit lower-triangular F′ of the seed's reversed
LDLᵀ, F′ᵀ·G·F′ = D, built here from numpy's Cholesky factor, diagonalizes
it to diag(D·t)) and is the seed where every t = 1; the diameter bound is
checked against the seed's diagonal and the LDLᵀ pivots; the final sup
equals `lemma_scan`'s at the same metric and t; the certified sup is
bracketed by the coordinate-plane max and the spectral radius of the
curvature operator, both computed here with numpy; [TRIVIAL] abelian towers
are already flat.
"""

import numpy as np
import pytest

from nilflat import catalog
from nilflat import certify as certify_module
from nilflat.algebra import NilAlgebra
from nilflat.certify import (CertificateReport, certificate_summary,
                             certify_almost_flat)
from nilflat.errors import BudgetNotMet, DimensionMismatch
from nilflat.metric import (LeftInvariantMetric, _structure_in_frame,
                            rescaled_curvature, structure_array)
from nilflat.scan import curvature_bound, lemma_scan
from nilflat.submersion import build_split
from nilflat.tower import NilLattice, peel_tower
from conftest import free_two_step

TILTED3 = np.array([[1.0, 0.0, 0.3],
                    [0.0, 1.0, 0.0],
                    [0.3, 0.0, 1.0]])


def tower_of(algebra):
    return peel_tower(NilLattice(algebra=algebra))


def identity_seed(n):
    return LeftInvariantMetric.identity(n)


def dense_seed(n):
    """I + ½·BBᵀ/n with B standard normal (seed 0): a well-conditioned seed
    whose collapse drives the lower levels' t below 1e-19."""
    b = np.random.default_rng(0).standard_normal((n, n))
    return LeftInvariantMetric(matrix=np.eye(n) + 0.5 * b @ b.T / n)


def reversed_ldl(seed):
    """(F′, D) of the seed's reversed LDLᵀ, from numpy's Cholesky factor of
    the reversed seed P·G·P = R·Rᵀ: F′ = P·R⁻ᵀ·P scaled to a unit diagonal,
    unit lower-triangular with F′ᵀ·G·F′ = D, and the pivots D_k, which
    D_k ≤ G_kk."""
    r = np.linalg.cholesky(seed[::-1, ::-1])
    f = np.linalg.inv(r).T[::-1, ::-1]
    return f / np.diag(f), np.diag(r)[::-1] ** 2


# [DERIVED] congruence property of the returned metric: each level's frame
# vector is G-orthogonal to the fibers above it, so the unit lower-triangular
# F′ of the seed's reversed LDLᵀ (F′ᵀ·G·F′ = D) diagonalizes the certified
# metric to diag(D_k·t_k); non-identity seeds.
@pytest.mark.parametrize("algebra,n", [(catalog.heisenberg3(), 3),
                                       (catalog.n4(), 4),
                                       (catalog.heisenberg5(), 5),
                                       (catalog.filiform(8), 8)],
                         ids=["h3", "n4", "h5", "filiform8"])
def test_metric_matrix_congruence(algebra, n):
    m = np.random.default_rng(8).uniform(-1, 1, size=(n, n))
    seed = m @ m.T + n * np.eye(n)
    report = certify_almost_flat(tower_of(algebra),
                                 LeftInvariantMetric(matrix=seed), 1e-2,
                                 n_samples=512)
    metric = np.array(report.metric_matrix)
    assert np.max(np.abs(metric - metric.T)) <= 1e-12
    np.linalg.cholesky(metric)
    assert any(t < 1.0 for t in report.ts)
    unit, pivots = reversed_ldl(seed)
    block = unit.T @ metric @ unit
    expected = pivots * np.array(report.ts[::-1])
    off = block - np.diag(np.diag(block))
    assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(block))
    assert np.diag(block) == pytest.approx(expected, rel=1e-12)


# [DERIVED] at every t_k = 1 the certified metric is the seed: an abelian
# tower keeps t = 1 on a dense seed, which comes back to rounding.
def test_certify_returns_seed_at_unit_ts():
    seed = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, 0.4], [0.3, 0.4, 1.2]])
    report = certify_almost_flat(tower_of(catalog.abelian(3)),
                                 LeftInvariantMetric(matrix=seed), 1e-2)
    assert report.ts == (1.0, 1.0, 1.0)
    assert np.max(np.abs(report.metric_matrix - seed)) <= 1e-15


# [DERIVED] the diameter bound Σ ½·√G_kk·√t_k reads the fiber lengths off
# the seed's diagonal; the level-k fiber of the certified metric has length
# √D_k ≤ √G_kk (D the reversed LDLᵀ pivots), so it bounds Σ ½·√(D_k·t_k).
@pytest.mark.parametrize("algebra", [catalog.n4(), catalog.filiform(6)],
                         ids=["n4", "filiform6"])
def test_diameter_bound_from_seed_diagonal(algebra):
    n = algebra.dim
    seed = dense_seed(n)
    report = certify_almost_flat(tower_of(algebra), seed, 1e-2)
    ts = np.array(report.ts[::-1])
    diagonal = np.diag(seed.matrix)
    assert report.fiber_lengths == tuple(np.sqrt(diagonal[::-1]))
    assert report.diam_bound == pytest.approx(
        float(np.sum(0.5 * np.sqrt(diagonal) * np.sqrt(ts))), rel=1e-14)
    pivots = reversed_ldl(seed.matrix)[1]
    assert report.diam_bound >= float(np.sum(0.5 * np.sqrt(pivots * ts)))


# [DERIVED] certify and the curvature scan read the metric in the same
# frame: on a tower curved only at its top level, certify's final sup is
# `lemma_scan`'s sup at the same metric and t, bit for bit.
@pytest.mark.parametrize("algebra", [catalog.heisenberg3(),
                                     catalog.heisenberg5()], ids=["h3", "h5"])
def test_certify_sup_equals_scan_sup(algebra):
    n = algebra.dim
    seed = dense_seed(n)
    report = certify_almost_flat(tower_of(algebra), seed, 1e-2)
    assert report.curved_levels == (n,) and report.ts[1:] == (1.0,) * (n - 1)
    scan = lemma_scan(algebra, seed, build_split(seed, np.eye(n)[n - 1]),
                      [report.ts[0]], n_samples=1, seed=0)
    assert report.sup_abs_K == scan.sup_abs_K[0]


# [TRIVIAL] abelian towers: no curved level, everything stays at t = 1; no
# level is measured, and on z3 and on the point alike the structure constants
# are never read, transformed, curved, bounded or polished.
def test_certify_z3(monkeypatch):
    calls = []
    for name in ("structure_array", "_structure_in_frame", "rescaled_curvature",
                 "curvature_bound", "polished_sups"):
        real = getattr(certify_module, name)
        monkeypatch.setattr(certify_module, name,
                            lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    report = certify_almost_flat(tower_of(catalog.abelian(3)),
                                 identity_seed(3), 1e-6)
    assert report.ts == (1.0, 1.0, 1.0)
    assert report.rounds == (0, 0, 0)
    assert report.level_bounds == (0.0, 0.0, 0.0)
    assert report.curved_levels == ()
    assert report.sup_abs_K == 0.0 and report.sup_abs_K_bound == 0.0
    assert report.diam_bound == pytest.approx(1.5, abs=1e-12)
    assert report.level_dims == (3, 2, 1)
    assert np.array_equal(report.metric_matrix, np.eye(3))
    point = certify_almost_flat(peel_tower(NilLattice(catalog.point())),
                                LeftInvariantMetric.identity(0), 1e-6,
                                seed=7, n_samples=3)
    assert (point.ts, point.rounds, point.level_bounds, point.level_dims,
            point.curved_levels, point.fiber_lengths) == ((),) * 6
    assert (point.eps, point.seed, point.sample_count) == (1e-6, 7, 3)
    assert (point.sup_abs_K, point.sup_abs_K_bound, point.diam_bound) == (0.0,) * 3
    assert point.metric_matrix.shape == (0, 0)
    assert not point.metric_matrix.flags.writeable
    assert calls == []


# [TRIVIAL] abelian tower with a non-identity seed metric stays flat.
def test_certify_abelian_spd_seed():
    seed = LeftInvariantMetric(matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
    report = certify_almost_flat(tower_of(catalog.abelian(2)), seed, 1e-9)
    assert report.ts == (1.0, 1.0)
    assert report.sup_abs_K == 0.0


# [TRIVIAL] the point tower is vacuously certified.
def test_certify_point():
    report = certify_almost_flat(tower_of(catalog.point()),
                                 identity_seed(0), 1.0)
    assert report.ts == ()
    assert report.sup_abs_K == 0.0 and report.diam_bound == 0.0


# [TRIVIAL] the point tower has dimension 0: any other seed is a mismatch.
def test_certify_point_rejects_positive_seed_dim():
    with pytest.raises(DimensionMismatch):
        certify_almost_flat(tower_of(catalog.point()), identity_seed(3), 0.1)


# [DERIVED] h3: sup|K^t| = 3t/4, so the accepted top t is within 10% of
# 4·eps/3; only the top level is curved.
def test_certify_h3():
    eps = 0.01
    report = certify_almost_flat(tower_of(catalog.heisenberg3()),
                                 identity_seed(3), eps)
    target = 4.0 * eps / 3.0
    assert abs(report.ts[0] - target) <= 0.1 * target
    assert report.ts[1:] == (1.0, 1.0)
    assert report.curved_levels == (3,)
    assert report.sup_abs_K <= eps
    assert report.sup_abs_K == pytest.approx(0.75 * report.ts[0], abs=1e-9)
    assert np.allclose(report.metric_matrix,
                       np.diag([1.0, 1.0, report.ts[0]]), atol=1e-12)
    assert report.diam_bound == pytest.approx(
        1.0 + 0.5 * np.sqrt(report.ts[0]), abs=1e-12)


# [DERIVED] h3 with a tilted seed metric still certifies (the seed's
# orthonormal frame absorbs its off-diagonal).
def test_certify_h3_tilted_seed():
    eps = 0.01
    report = certify_almost_flat(tower_of(catalog.heisenberg3()),
                                 LeftInvariantMetric(matrix=TILTED3), eps)
    assert report.sup_abs_K <= eps
    assert 0.0 < report.ts[0] < 1.0
    assert np.isfinite(report.diam_bound)


# [DERIVED] n4: two curved levels split the budget and both land under it.
def test_certify_n4():
    eps = 1e-3
    report = certify_almost_flat(tower_of(catalog.n4()), identity_seed(4), eps)
    assert report.curved_levels == (4, 3)
    assert report.sup_abs_K <= eps
    assert report.level_dims == (4, 3, 2, 1)
    t4, t3 = report.ts[0], report.ts[1]
    assert 0.0 < t4 < t3 < 1.0
    assert report.ts[2:] == (1.0, 1.0)
    assert np.isfinite(report.diam_bound)


# [DERIVED] h5 with G = I, a single curved level at the top: ℛ has the
# eigenvalue −5t/4 at the bivector
# e1∧e2 + e3∧e4 (diagonal −3t/4, coupling −t/2), while every plane has
# |K| ≤ 3t/4.  The gate uses ρ = 5t/4, so one refinement from t = 1 gives
# t = 0.95·eps/(5/4), within 10 % of 4·eps/5, and the sampled sup stays at
# 3t/4, below the bound.
def test_certify_h5():
    eps = 1e-2
    report = certify_almost_flat(tower_of(catalog.heisenberg5()),
                                 identity_seed(5), eps)
    assert report.curved_levels == (5,)
    assert report.ts[1:] == (1.0,) * 4
    target = 4.0 * eps / 5.0
    assert abs(report.ts[0] - target) <= 0.1 * target
    assert report.sup_abs_K <= report.sup_abs_K_bound <= eps
    assert report.sup_abs_K_bound == pytest.approx(1.25 * report.ts[0], rel=1e-12)
    assert report.sup_abs_K == pytest.approx(0.75 * report.ts[0], rel=1e-9)
    assert report.level_bounds == (report.sup_abs_K_bound, 0.0, 0.0, 0.0, 0.0)


# [DERIVED] the final sup on h5 at G = I, where Thorpe's certificate closes
# on the polished eigenplane, is 3t/4 at the top t; on h7 at G = I, where it
# does not (ρ = 7t/4 there), its polished eigenplane gives the sup 3t/4 too.
def test_certify_final_sup_paths():
    h5 = certify_almost_flat(tower_of(catalog.heisenberg5()), identity_seed(5), 1e-2)
    assert h5.sup_abs_K == pytest.approx(0.75 * h5.ts[0], rel=1e-12)
    h7 = NilAlgebra.from_brackets(7, 2, {(1, 2): {7: 1}, (3, 4): {7: 1},
                                         (5, 6): {7: 1}})
    report = certify_almost_flat(tower_of(h7), identity_seed(7), 1e-2)
    assert report.sup_abs_K == 0.004071428571428573


# [DERIVED] the gate is a bound: each curved level's accepted ρ + δ is at
# most the level below's plus its share of eps, and the sampled sup of the
# final metric lies below its ρ + δ, which lies below eps.
@pytest.mark.parametrize("algebra,n,eps", [(catalog.heisenberg3(), 3, 1e-2),
                                           (catalog.n4(), 4, 1e-3),
                                           (catalog.heisenberg5(), 5, 1e-3),
                                           (catalog.filiform(6), 6, 1e-2)],
                         ids=["h3", "n4", "h5", "filiform6"])
def test_level_bounds_meet_budgets(algebra, n, eps):
    m = np.random.default_rng(3).uniform(-1, 1, size=(n, n))
    seed = LeftInvariantMetric(matrix=m @ m.T + n * np.eye(n))
    report = certify_almost_flat(tower_of(algebra), seed, eps, n_samples=512)
    budget = eps / len(report.curved_levels)
    bounds = report.level_bounds
    assert len(bounds) == n and bounds[0] == report.sup_abs_K_bound
    for i, dim in enumerate(report.level_dims[:-1]):
        if dim in report.curved_levels:
            assert bounds[i] <= bounds[i + 1] + budget
    assert report.sup_abs_K <= report.sup_abs_K_bound <= eps


# [DERIVED] a NaN measurement fails the final gate: the top level of h3 × Z
# at G = I is flat, so it is measured once, and only the final comparison
# sees its NaN bound.
def test_nan_measurement_fails_final_gate(monkeypatch):
    real = certify_module.curvature_bound
    monkeypatch.setattr(certify_module, "curvature_bound",
                        lambda r_hat: (float("nan"), 0.0) if r_hat.shape[0] == 4
                        else real(r_hat))
    monkeypatch.setattr(certify_module, "polished_sups",
                        lambda r4s: [float("nan")] * len(r4s))
    with pytest.raises(BudgetNotMet, match="final bound"):
        certify_almost_flat(tower_of(catalog.h3_times_z()), identity_seed(4), 1e-2)


H7 = NilAlgebra.from_brackets(7, 2, {(1, 2): {7: 1}, (3, 4): {7: 1}, (5, 6): {7: 1}})


# [DERIVED] certify measures no level of the abelian bottom: on h7 at G = I
# the six levels below [g, g] = span(e7) are recorded at t = 1 with bound
# 0.0 unmeasured, and the top level takes two rounds, one
# `rescaled_curvature` call each; an abelian tower calls it not at all.
def test_abelian_bottom_is_not_measured(monkeypatch):
    real = certify_module.rescaled_curvature
    dims = []

    def counting(c, w):
        dims.append(c.shape[0])
        return real(c, w)

    monkeypatch.setattr(certify_module, "rescaled_curvature", counting)
    report = certify_almost_flat(tower_of(H7), identity_seed(7), 1e-3)
    assert dims == [7, 7] and report.rounds == (2, 0, 0, 0, 0, 0, 0)
    assert report.ts[1:] == (1.0,) * 6 and report.level_bounds[1:] == (0.0,) * 6
    dims.clear()
    report = certify_almost_flat(tower_of(catalog.abelian(4)), identity_seed(4), 1e-2)
    assert dims == []
    assert report.sup_abs_K == report.sup_abs_K_bound == 0.0
    assert report.level_bounds == (0.0,) * 4


# [DERIVED] the levels certify skips are exactly flat: measured in the dense
# seed's frame, every level k ≤ p (e_{p+1} the first vector of [g, g], so
# p = 6 on h7 and 4 on free 2-step(4)) has R̂ = 0 and ρ + δ = (0.0, 0.0)
# bit for bit, and level p + 1 is curved.
@pytest.mark.parametrize("algebra", [H7, free_two_step(4)], ids=["h7", "free4"])
def test_skipped_levels_are_flat(algebra):
    n = algebra.dim
    seed = dense_seed(n)
    c_frame = _structure_in_frame(structure_array(algebra), *seed._frame)
    p = NilLattice(algebra=algebra).leads[1]
    for k in range(1, p + 2):
        r_hat = rescaled_curvature(c_frame[:k, :k, :k], np.ones(k))
        if k <= p:
            assert not np.any(r_hat) and curvature_bound(r_hat) == (0.0, 0.0)
        else:
            assert curvature_bound(r_hat)[0] > 0.0


# [TRIVIAL] refinement cap: zero rounds cannot accept any curved level.
def test_budget_not_met(monkeypatch):
    monkeypatch.setattr(certify_module, "_MAX_ROUNDS", 0)
    with pytest.raises(BudgetNotMet):
        certify_almost_flat(tower_of(catalog.heisenberg3()),
                            identity_seed(3), 0.01)


# [TRIVIAL] a flat level is one pass of the level loop whatever the round
# cap: with no refinement round allowed, z3 still certifies at t = 1 with
# rounds 0, and h3 fails at its curved top level, not at a flat one.
def test_flat_levels_take_one_pass(monkeypatch):
    monkeypatch.setattr(certify_module, "_MAX_ROUNDS", 0)
    report = certify_almost_flat(tower_of(catalog.abelian(3)), identity_seed(3), 1e-2)
    assert (report.ts, report.rounds) == ((1.0, 1.0, 1.0), (0, 0, 0))
    with pytest.raises(BudgetNotMet, match="level dim 3: could not meet"):
        certify_almost_flat(tower_of(catalog.heisenberg3()), identity_seed(3), 0.01)


def _raise_linalg(*args, **kwargs):
    raise np.linalg.LinAlgError("simulated failure")


# [TRIVIAL] a float64 eigensolver failure on h3's curved level (its operator
# on Λ² is 3×3; the flat levels below are smaller) is a BudgetNotMet that
# names the level.
def test_level_linalg_error_is_budget_not_met(monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: _raise_linalg() if a.shape == (3, 3)
                        else eigvalsh(a))
    with pytest.raises(BudgetNotMet, match="level dim 3"):
        certify_almost_flat(tower_of(catalog.heisenberg3()), identity_seed(3),
                            0.01)


# [TRIVIAL] a float64 eigensolver failure while sampling the final metric is
# a BudgetNotMet that names it; the levels gate on eigvalsh, not eigh.
def test_final_linalg_error_is_budget_not_met(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _raise_linalg)
    with pytest.raises(BudgetNotMet, match="final metric of dim 3"):
        certify_almost_flat(tower_of(catalog.heisenberg3()), identity_seed(3),
                            0.01)


# [DERIVED] a dense seed drives the collapse parameters of filiform(10) far
# below float64's resolution of an assembled Gram matrix (t reaches ~1e-30);
# curvature is measured from orthonormal structure constants and it still
# certifies.
def test_dense_seed_certifies():
    report = certify_almost_flat(tower_of(catalog.filiform(10)), dense_seed(10),
                                 1e-3)
    assert report.sup_abs_K <= 1e-3
    assert all(0.0 < t <= 1.0 for t in report.ts)
    assert min(report.ts) < 1e-19


def _coordinate_max_and_rho(algebra, metric):
    """Max |K| over the coordinate planes of the Cholesky orthonormal frame
    and the spectral radius ρ(ℛ) of the curvature operator on Λ²."""
    chol = np.linalg.cholesky(metric)
    f = np.linalg.inv(chol).T  # fᵀ·metric·f = I
    n = len(metric)
    rhat = rescaled_curvature(
        _structure_in_frame(structure_array(algebra), f, chol.T), np.ones(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    op = np.array([[rhat[i, j, k, l] for (k, l) in pairs] for (i, j) in pairs])
    coord = max(abs(rhat[i, j, i, j]) for (i, j) in pairs)
    return coord, float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (op + op.T)))))


# [DERIVED] regression: the certified sup|K| is a sup of the returned metric.
# It is at least |K| of every coordinate plane and at most ρ(ℛ), which bounds
# |K| of every plane (K(σ) is the Rayleigh quotient of ℛ at a unit
# decomposable bivector σ); the reported bound ρ + δ is that ρ, formed here
# from the returned metric in ambient coordinates.  Dense seeds check the
# certifier's frame against the metric it reports.
@pytest.mark.parametrize("algebra,seed,eps", [
    pytest.param(catalog.filiform(8), identity_seed, 1e-3, id="8-0.001"),
    pytest.param(catalog.filiform(10), identity_seed, 1e-2, id="10-0.01"),
    pytest.param(catalog.n4(), dense_seed, 1e-2, id="n4-dense-0.01"),
    pytest.param(catalog.filiform(6), dense_seed, 1e-2, id="filiform6-dense-0.01"),
])
def test_certified_sup_is_bracketed(algebra, seed, eps):
    report = certify_almost_flat(tower_of(algebra), seed(algebra.dim), eps)
    coord, rho = _coordinate_max_and_rho(algebra, np.array(report.metric_matrix))
    assert coord * (1.0 - 1e-10) <= report.sup_abs_K <= rho * (1.0 + 1e-8)
    assert report.sup_abs_K <= eps
    assert report.sup_abs_K_bound == pytest.approx(rho, rel=1e-8)


# [TRIVIAL] argument validation.
def test_certify_argument_errors():
    tower = tower_of(catalog.heisenberg3())
    with pytest.raises(ValueError):
        certify_almost_flat(tower, identity_seed(3), 0.0)
    with pytest.raises(ValueError):
        certify_almost_flat(tower, identity_seed(3), 0.01, n_samples=0)
    with pytest.raises(DimensionMismatch):
        certify_almost_flat(tower, identity_seed(4), 0.01)


# [TRIVIAL] a NaN or infinite eps is rejected up front, not after the
# refinement rounds run out.
@pytest.mark.parametrize("eps", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_certify_nonfinite_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        certify_almost_flat(tower_of(catalog.heisenberg3()), identity_seed(3), eps)


# [TRIVIAL] a negative seed is rejected up front: no level is measured.
def test_certify_negative_seed(monkeypatch):
    def schedule_ran(*args):
        raise AssertionError("the schedule ran")

    monkeypatch.setattr(certify_module, "rescaled_curvature", schedule_ran)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        certify_almost_flat(tower_of(catalog.heisenberg5()), identity_seed(5), 1e-2,
                            seed=-1)


# [DERIVED] determinism: identical arguments give identical reports.
def test_certify_determinism():
    a = certify_almost_flat(tower_of(catalog.n4()), identity_seed(4), 1e-3,
                            seed=5, n_samples=512)
    b = certify_almost_flat(tower_of(catalog.n4()), identity_seed(4), 1e-3,
                            seed=5, n_samples=512)
    assert a.ts == b.ts
    assert a.sup_abs_K == b.sup_abs_K
    assert a.diam_bound == b.diam_bound
    assert np.array_equal(a.metric_matrix, b.metric_matrix)


# [TRIVIAL] summary fields are JSON-ready and complete.
def test_certificate_summary():
    report = certify_almost_flat(tower_of(catalog.heisenberg3()),
                                 identity_seed(3), 0.01, n_samples=512)
    summary = certificate_summary(report)
    assert set(summary) == {"eps", "seed", "sample_count", "ts", "level_dims",
                            "curved_levels", "rounds", "fiber_lengths",
                            "sup_abs_K", "sup_abs_K_bound", "level_bounds",
                            "diam_bound"}
    assert summary["ts"][0] == report.ts[0]
    assert isinstance(summary["ts"], list)
