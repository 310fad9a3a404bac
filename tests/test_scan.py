"""Curvature-decomposition identities, the deterministic sup search, and the
decay scan.

Oracle key: [DERIVED] Heisenberg closed forms (sup|K^t| = 3t/4 for G = I,
vertical planes K^t = t/4), the independently computed two-sided identity
checks of the test-side O'Neill oracle (`oneill_oracle`), and hand-evaluated
diameter formulas; [DERIVED] the constant C in closed form on h3, against
explicit unit arguments on filiform(14), and bit for bit against the
oracle's O'Neill tensors;
[DERIVED] the batched polish
against a reference kept here, the single-pair alternation with the 4-tensor
form of |K|, to 1e-12 relative, and the polished sup against the spectral
radius ρ of the curvature operator, to the rounding allowance δ; [TRIVIAL]
abelian cases.
Identity defects are checked at 1e-9 on random planes (they come out near
1e-15) and at 1e-12 on single planes whose legs the check normalizes.
"""

import math

import numpy as np
import pytest

from nilflat import catalog, scan
from nilflat.algebra import NilAlgebra
from nilflat.certify import certify_almost_flat
from nilflat.errors import BoundViolated, DimensionMismatch
from nilflat.metric import (LeftInvariantMetric, _structure_in_frame,
                            rescaled_curvature, structure_array)
from nilflat.scan import (T_MIN, DecayReport, curvature_bound, diameter_bound,
                          lemma_scan, polished_sup, report_csv, report_summary)
from nilflat.submersion import build_split
from nilflat.tower import NilLattice, peel_tower
from conftest import free_two_step
from oneill_oracle import (SubmersionContext, decomposition_check,
                           frame_structure, oneill_constant,
                           oneill_from_frame, split_diagonal)
import oneill_oracle
import search_oracle

H3 = catalog.heisenberg3()
N4 = catalog.n4()

TILTED3 = np.array([[1.0, 0.0, 0.3],
                    [0.0, 1.0, 0.0],
                    [0.3, 0.0, 1.0]])


FREE3 = free_two_step(3)


def dense_seed(n, seed):
    """The SPD seed metric I + ½BBᵀ/n, B standard normal from `seed`."""
    b = np.random.default_rng(seed).standard_normal((n, n))
    return np.eye(n) + 0.5 * b @ b.T / n


def geometry(algebra, matrix=None):
    n = algebra.dim
    metric = (LeftInvariantMetric.identity(n) if matrix is None
              else LeftInvariantMetric(matrix=matrix))
    z = np.zeros(n)
    z[n - 1] = 1.0
    return metric, build_split(metric, z)


def random_plane(rng, n):
    """Legs (x, c) in the split frame: x horizontal, both standard normal;
    `decomposition_check` makes them g^t-orthonormal."""
    x, c = rng.standard_normal((2, n))
    x[n - 1] = 0.0
    return x, c


# [DERIVED] the four decomposition identities on random planes; identity and
# non-diagonal metrics.
@pytest.mark.parametrize("algebra,matrix", [
    (H3, None), (H3, TILTED3), (N4, None),
], ids=["h3-identity", "h3-tilted", "n4-identity"])
@pytest.mark.parametrize("t", [1.0, 0.1, 0.01, 1e-4])
def test_decomposition_identities(algebra, matrix, t):
    metric, split = geometry(algebra, matrix)
    ctx = SubmersionContext(algebra, metric, split)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, decomposition_check(ctx, t, *random_plane(rng, algebra.dim)))
    assert worst <= 1e-9


# [TRIVIAL] abelian: every identity term is exactly zero.
def test_decomposition_abelian_exact():
    z3 = catalog.abelian(3)
    metric, split = geometry(z3)
    ctx = SubmersionContext(z3, metric, split)
    rng = np.random.default_rng(2)
    for t in (1.0, 0.01):
        assert decomposition_check(ctx, t, *random_plane(rng, 3)) == 0.0


# [TRIVIAL] one oracle context computes the split-frame structure constants
# once and derives the O'Neill tensors and the base curvature from them.
def test_context_computes_frame_structure_once(monkeypatch):
    real = oneill_oracle.frame_structure
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oneill_oracle, "frame_structure", counting)
    metric, split = geometry(N4, np.diag([1.0, 2.0, 0.5, 1.5]))
    SubmersionContext(N4, metric, split)
    assert len(calls) == 1


# [DERIVED] a split must be the algebra's and built from the scan's metric
# (checked by `lemma_scan` and, through the same check, the oracle context):
# h3 with G = I and the split of diag(1, 1, 4) would mix the split's sup 3.0
# with the diameter bound 0.5 of I's fiber, and a 3-dim split of n4 would
# fail inside a contraction.
def test_context_rejects_foreign_split():
    metric = LeftInvariantMetric.identity(3)
    foreign = build_split(LeftInvariantMetric(matrix=np.diag([1.0, 1.0, 4.0])),
                          [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="different metric"):
        lemma_scan(H3, metric, foreign, [1.0], 10, 0)
    with pytest.raises(ValueError, match="different metric"):
        SubmersionContext(H3, metric, foreign)
    with pytest.raises(DimensionMismatch, match="split dim 3"):
        SubmersionContext(N4, metric, build_split(metric, [0.0, 0.0, 1.0]))
    same = LeftInvariantMetric(matrix=np.eye(3))  # an equal matrix is the same metric
    assert lemma_scan(H3, same, build_split(metric, [0.0, 0.0, 1.0]),
                      [1.0], 10, 0).sup_abs_K == (0.75,)


# [DERIVED] the collapsed direction e_n must be central: with [e1, e3] = e2
# it is not, so the split check that `lemma_scan` and the oracle context
# share refuses it by naming the bracket.  A center that is not last is
# collapsed by permuting the basis: h3×Z with the Heisenberg center moved
# last collapses as h3 does, sup|K^t| = 3t/4.
def test_context_rejects_non_central_direction():
    algebra = NilAlgebra.from_brackets(3, 2, {(1, 3): {2: 1}})
    metric, split = geometry(algebra)
    with pytest.raises(ValueError, match=r"e3 is not central: \[e1, e3\] = 1·e2"):
        lemma_scan(algebra, metric, split, [1.0, 0.1, 0.01], n_samples=1, seed=0)
    with pytest.raises(ValueError, match="not central"):
        SubmersionContext(algebra, metric, split)
    center_last = NilAlgebra.from_brackets(4, 2, {(1, 2): {4: 1}})
    metric4, split4 = geometry(center_last)
    report = lemma_scan(center_last, metric4, split4, [1.0, 0.1, 0.01],
                        n_samples=1, seed=0)
    assert report.sup_abs_K == pytest.approx((0.75, 0.075, 0.0075), rel=1e-12)


# [DERIVED] the context is the only source of algebra, metric and split: on
# h3 with the split of diag(1, 1, 4) at t = 0.1 the identities hold to
# rounding.
def test_decomposition_check_own_context():
    metric, split = geometry(H3, np.diag([1.0, 1.0, 4.0]))
    ctx = SubmersionContext(H3, metric, split)
    x, c = random_plane(np.random.default_rng(3), 3)
    assert decomposition_check(ctx, 0.1, x, c) <= 1e-12


# [DERIVED] the legs are made g^t-orthonormal inside the check, at the t it
# is given: legs of length 2 on h3 at t = 1 (the identities are quartic in
# the legs, so these legs unnormalized would leave a defect of 3.75), and
# legs that are g^0.1-orthonormal checked at t = 0.5 (else 0.19).
def test_decomposition_check_normalizes_legs():
    metric, split = geometry(H3)
    ctx = SubmersionContext(H3, metric, split)
    assert decomposition_check(ctx, 1.0, [2.0, 0.0, 0.0],
                               [0.0, math.sqrt(2.0), math.sqrt(2.0)]) <= 1e-12
    assert decomposition_check(ctx, 0.5, [1.0, 0.0, 0.0],
                               [0.0, 0.6, 0.8 / math.sqrt(0.1)]) <= 1e-12


# [TRIVIAL] a t outside (0, ∞), and legs that give no horizontal x, no plane
# or the wrong dimension, are refused.
def test_decomposition_check_rejects_bad_input():
    metric, split = geometry(H3)
    ctx = SubmersionContext(H3, metric, split)
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="0 < t < inf"):
            decomposition_check(ctx, t, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="horizontal"):
        decomposition_check(ctx, 0.1, [1.0, 0.0, 1e-3], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="plane Gram determinant"):
        decomposition_check(ctx, 0.1, [1.0, 2.0, 0.0], [-2.0, -4.0, 0.0])
    with pytest.raises(DimensionMismatch):
        decomposition_check(ctx, 0.1, [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        decomposition_check(ctx, 0.1, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])


# [DERIVED] vertical-plane law: for Y = 0 the sectional curvature is exactly
# the t²·g(A_XU, A_XU) term; h3 closed form gives K^t = t/4.
@pytest.mark.parametrize("t", [1.0, 0.01, 1e-4])
def test_vertical_plane_law(t):
    metric, split = geometry(H3)
    ctx = SubmersionContext(H3, metric, split)
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 0.0, 1.0 / np.sqrt(t)])
    assert decomposition_check(ctx, t, x, u) <= 1e-10

    a_xu = np.einsum("fep,f,e->p", ctx.tensors.a, x, u, optimize=False)
    predicted = t * t * float(a_xu @ a_xu)
    direct = ctx.ambient_sectional(t, x, u)
    assert abs(direct - predicted) <= 1e-10
    assert abs(direct - 0.25 * t) <= 1e-10


# [DERIVED] polished sup over h3 planes finds the closed-form maximum 3/4,
# certified.
def test_polished_sup_h3():
    metric, split = geometry(H3)
    ctx = SubmersionContext(H3, metric, split)
    r1 = ctx.frame_curvature(1.0)
    sup, certified = polished_sup(r1)
    assert sup == pytest.approx(0.75, abs=1e-12)
    assert certified


# [DERIVED] h3 scan: sup|K^t| = 3t/4 at every t, flat base, unit exponent.
def test_lemma_scan_h3():
    metric, split = geometry(H3)
    grid = np.geomspace(1.0, 1e-6, 7)
    report = lemma_scan(H3, metric, split, grid, n_samples=2000, seed=0)
    assert report.base_sup_K == 0.0
    for t, sup, bound, diam in zip(report.t_grid, report.sup_abs_K,
                                   report.bounds, report.diam_bound):
        assert sup == pytest.approx(0.75 * t, abs=1e-9)
        assert sup <= bound
        assert diam == pytest.approx(0.5 * np.sqrt(t), abs=1e-12)
    assert report.exponent_fit == pytest.approx(1.0, abs=0.02)
    assert report.sample_count == 2000 and report.seed == 0


# [TRIVIAL] abelian scan: all zero, no decay to fit.
def test_lemma_scan_z3():
    z3 = catalog.abelian(3)
    metric, split = geometry(z3)
    report = lemma_scan(z3, metric, split, np.geomspace(1.0, 1e-6, 7),
                        n_samples=500, seed=0)
    assert report.base_sup_K == 0.0
    assert all(s == 0.0 for s in report.sup_abs_K)
    assert report.exponent_fit is None


# [DERIVED] n4 scan: base sup is the h3 maximum 3/4; excess decays with
# exponent >= 0.9.
def test_lemma_scan_n4():
    metric, split = geometry(N4)
    report = lemma_scan(N4, metric, split, np.geomspace(1e-1, 1e-5, 5),
                        n_samples=2000, seed=0)
    assert report.base_sup_K == pytest.approx(0.75, abs=1e-9)
    assert report.exponent_fit is not None and report.exponent_fit >= 0.9
    for sup, bound in zip(report.sup_abs_K, report.bounds):
        assert sup <= bound


# [TRIVIAL] grid validation.
def test_lemma_scan_grid_errors():
    metric, split = geometry(H3)
    with pytest.raises(ValueError):
        lemma_scan(H3, metric, split, [], 10, 0)
    with pytest.raises(ValueError):
        lemma_scan(H3, metric, split, [0.1, 1.0], 10, 0)
    with pytest.raises(ValueError):
        lemma_scan(H3, metric, split, [1.0, -0.1], 10, 0)
    with pytest.raises(ValueError):
        lemma_scan(H3, metric, split, [1.0], 0, 0)


# [TRIVIAL] a negative seed is refused up front, before the curvature of
# any t is built, with a message that names the seed.
def test_lemma_scan_negative_seed(monkeypatch):
    metric, split = geometry(H3)

    def scan_ran(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(scan, "_central_structure", scan_ran)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        lemma_scan(H3, metric, split, [1.0], 10, -1)


# [TRIVIAL] a non-finite grid value is refused before any curvature is
# built.
@pytest.mark.parametrize("grid", [[float("nan")], [1.0, float("nan")],
                                  [float("inf"), 1.0]], ids=["nan", "nan-last", "inf"])
def test_lemma_scan_nonfinite_grid(grid):
    metric, split = geometry(H3)
    with pytest.raises(ValueError, match="finite"):
        lemma_scan(H3, metric, split, grid, 10, 0)


# [DERIVED] a t whose square underflows float64 is refused before any
# sampling (the floor of the `--t-min` contract); the smallest accepted t
# still gives a finite scan.
def test_lemma_scan_tiny_t():
    metric, split = geometry(H3)
    with pytest.raises(ValueError, match="underflows"):
        lemma_scan(H3, metric, split, [1.0, 1e-200], 10, 0)
    report = lemma_scan(H3, metric, split, [T_MIN], 10, 0)
    assert math.isfinite(report.sup_abs_K[0])


# [TRIVIAL] outside the C-constant's validity domain (t <= 1) no bound is
# proven, so a grid reaching above 1 is rejected before any scan (h3 at
# t = 100 has sup|K^t| = 75 above the formula's 68.28).
def test_bound_violated_outside_domain():
    metric, split = geometry(H3)
    with pytest.raises(ValueError, match="above 1"):
        lemma_scan(H3, metric, split, [100.0], n_samples=500, seed=0)
    with pytest.raises(ValueError, match="above 1"):
        lemma_scan(H3, metric, split, [1.5, 1.0, 0.5], n_samples=500, seed=0)
    assert lemma_scan(H3, metric, split, [1.0], n_samples=500, seed=0).t_grid == (1.0,)


# [DERIVED] the rounding allowance δ_t in the bound is far below any real
# shortfall: with C forced to 0, h3 (flat base, sup|K^t| = 3t/4) still
# violates its bound, by far more than δ_t; the violation is reported with
# the witnessing data.
def test_bound_short_by_more_than_rounding_raises(monkeypatch):
    metric, split = geometry(H3)
    monkeypatch.setattr(scan, "_lemma_constant", lambda *args: 0.0)
    with pytest.raises(BoundViolated) as info:
        lemma_scan(H3, metric, split, [1e-3], n_samples=200, seed=0)
    err = info.value
    assert err.t == 1e-3
    assert 0.0 < err.bound <= 1e-12
    assert err.value == pytest.approx(0.75e-3, rel=1e-9)
    assert "witness: an eigenplane of ℛ at this t" in str(err)


# [DERIVED] a NaN measurement violates the bound instead of passing it: with
# every polished sup NaN (the base's too) the comparison with the bound is
# false.
def test_nan_measurement_violates_bound(monkeypatch):
    metric, split = geometry(H3)
    search = scan._search
    monkeypatch.setattr(scan, "_search", lambda r4s: (
        [float("nan")] * len(r4s),) + search(r4s)[1:])
    with pytest.raises(BoundViolated) as info:
        lemma_scan(H3, metric, split, [1e-3], n_samples=200, seed=0)
    assert math.isnan(info.value.value)


# [DERIVED] C = 4‖A‖_F² + 2‖DA‖_F is computed, not sampled.  On h3 with
# G = I, A has the four components ±½ (A_{e1}e2 = ½e3, A_{e1}e3 = −½e2 and
# their alternates), so ‖A‖_F² = 1; DA has six components ±½ and eight ±¼,
# so ‖DA‖_F² = 6/4 + 8/16 = 2.  Hence C = 4 + 2√2 for every seed and sample
# count.
def test_h3_constant_closed_form():
    metric, split = geometry(H3)
    values = {lemma_scan(H3, metric, split, [1.0], n_samples=samples,
                         seed=seed).C
              for seed in (0, 1, 7) for samples in (16, 256)}
    assert len(values) == 1
    assert values.pop() == pytest.approx(4.0 + 2.0 * math.sqrt(2.0),
                                         rel=0, abs=1e-12)


# [DERIVED] C is at least the lemma's constant at explicit unit arguments:
# on filiform(14) with G = I, |A(e1, e13)| = ½ (A_{e1}e13 = ½e14), and
# DA((e12 + e14)/√2, e13, e14) has norm about 0.73, so
# C ≥ 4·¼ + 2·|DA(…)| ≈ 2.458.  A C estimated from 64 (or 4096) sampled
# unit arguments misses this witness.
def test_constant_dominates_filiform14_witness():
    algebra = catalog.filiform(14)
    metric, split = geometry(algebra)
    report = lemma_scan(algebra, metric, split, [1.0], n_samples=64, seed=0)
    e = np.eye(algebra.dim)
    tensors = SubmersionContext(algebra, metric, split).tensors
    assert np.array_equal(tensors.a[0, 12], 0.5 * e[13])
    da = np.einsum("efhp,e,f,h->p", tensors.da, (e[11] + e[13]) / math.sqrt(2.0),
                   e[12], e[13], optimize=False)
    assert report.C >= 4.0 * 0.5 ** 2 + 2.0 * float(np.linalg.norm(da))


# [DERIVED] C is the oracle's 4‖A‖_F² + 2‖DA‖_F bit for bit, with A and DA
# the test-side O'Neill tensors of the full Koszul formula at Gram I in the
# split frame: h5, n4 and filiform(8), each with G = I and two dense seeds.
@pytest.mark.parametrize("algebra", [catalog.heisenberg5(), N4, catalog.filiform(8)],
                         ids=["h5", "n4", "filiform8"])
@pytest.mark.parametrize("seed", [None, 0, 1], ids=["identity", "dense0", "dense1"])
def test_constant_matches_oneill_oracle(algebra, seed):
    n = algebra.dim
    metric, split = geometry(algebra, None if seed is None else dense_seed(n, seed))
    report = lemma_scan(algebra, metric, split, [1.0], n_samples=1, seed=0)
    tensors = oneill_from_frame(frame_structure(algebra, split), np.eye(n))
    assert report.C == oneill_constant(tensors)


# [DERIVED] the reported bound is sup|Ǩ| + C√t plus an allowance δ_t that is
# positive and tiny next to it.
def test_reported_bound_includes_rounding():
    metric, split = geometry(N4)
    report = lemma_scan(N4, metric, split, [1.0, 1e-4], n_samples=300, seed=0)
    for t, bound in zip(report.t_grid, report.bounds):
        plain = report.base_sup_K + report.C * np.sqrt(t)
        assert plain < bound <= plain * (1.0 + 1e-12)


# [DERIVED] diameter formula: half fiber length at t = 1; three unit fibers
# at t = 1e-4 give 0.015.
def test_diameter_bound_values():
    assert diameter_bound([1.0], [1.0]) == pytest.approx(0.5, abs=1e-15)
    assert diameter_bound([1.0, 1.0, 1.0], [1e-4] * 3) == pytest.approx(0.015, abs=1e-15)
    with pytest.raises(DimensionMismatch):
        diameter_bound([1.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        diameter_bound([1.0], [0.0])


# [TRIVIAL] a NaN or infinite collapse parameter is rejected, not summed.
@pytest.mark.parametrize("t", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_diameter_bound_nonfinite_t(t):
    with pytest.raises(ValueError):
        diameter_bound([1.0], [t])


# [TRIVIAL] a NaN, negative, zero or infinite fiber length is rejected, not
# summed into a NaN, negative or infinite diameter bound.
@pytest.mark.parametrize("length", [float("nan"), -1.0, 0.0, float("inf")],
                         ids=["nan", "negative", "zero", "inf"])
def test_diameter_bound_rejects_fiber_length(length):
    with pytest.raises(ValueError, match="fiber length"):
        diameter_bound([length], [1.0])


# [DERIVED] reports: CSV shape/columns and summary fields.
def test_report_serialization():
    metric, split = geometry(H3)
    report = lemma_scan(H3, metric, split, np.geomspace(1.0, 0.01, 3),
                        n_samples=200, seed=7)
    csv_text = report_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "t,sup_abs_K,base_sup_K,bound,diam_bound"
    assert len(lines) == 4
    assert csv_text.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == pytest.approx(0.75, abs=1e-9)
    summary = report_summary(report)
    assert set(summary) == {"C", "exponent_fit", "sample_count", "seed"}
    assert summary["seed"] == 7 and summary["sample_count"] == 200


# [DERIVED] determinism: repeated scans give identical reports.
def test_scan_determinism():
    metric, split = geometry(N4)
    grid = np.geomspace(1.0, 1e-3, 4)
    a = lemma_scan(N4, metric, split, grid, n_samples=300, seed=42)
    b = lemma_scan(N4, metric, split, grid, n_samples=300, seed=42)
    assert a.sup_abs_K == b.sup_abs_K
    assert a.base_sup_K == b.base_sup_K
    assert a.C == b.C
    assert a.exponent_fit == b.exponent_fit
    assert report_csv(a) == report_csv(b)


# Reference for the batched polish: the single-pair alternation it replaced,
# one plane at a time, with the 4-tensor form of |K|.
def reference_top_eigenpair(q, v):
    q = 0.5 * (q + q.T)
    if v is not None:
        qv = np.einsum("ij,j->i", q, v, optimize=False)
        q = (q - np.outer(v, qv) - np.outer(qv, v)
             + float(v @ qv) * np.outer(v, v))
    vals, vecs = np.linalg.eigh(q)
    i = int(np.argmax(np.abs(vals)))
    return abs(float(vals[i])), vecs[:, i]


def reference_abs_sectional(r4, x, c):
    return abs(float(np.einsum("ijkl,i,j,k,l->", r4, x, c, x, c,
                               optimize=False)))


def reference_polish_pair(r4, support, c, max_iter=50):
    """(max |K| found, sweeps run, x, c) of the alternation from the second
    leg c, from 0, with x kept in the first `support` coordinates; (x, c) is
    the plane that reached the max."""
    n = r4.shape[0]
    best, best_x, best_c = 0.0, None, None
    for sweep in range(1, max_iter + 1):
        qc = np.einsum("ijkl,j,l->ik", r4, c, c, optimize=False)
        ch = c[:support]
        h2 = float(ch @ ch)
        _, xh = reference_top_eigenpair(qc[:support, :support],
                                        ch / math.sqrt(h2) if h2 > 1e-20 else None)
        x = np.zeros(n)
        x[:support] = xh
        qx = np.einsum("ijkl,i,k->jl", r4, x, x, optimize=False)
        val, c = reference_top_eigenpair(qx, x)
        converged = abs(val - best) <= 1e-14 * max(1.0, abs(val))
        if val > best:
            best, best_x, best_c = val, x, c
        if converged:
            break
    return best, sweep, best_x, best_c


def random_split_tensor(algebra, seed, t):
    """Orthonormal split-frame curvature of a random SPD seed metric."""
    n = algebra.dim
    metric, split = geometry(algebra, dense_seed(n, seed))
    return rescaled_curvature(frame_structure(algebra, split),
                              np.sqrt(split_diagonal(n, t)))


def random_unit_rows(seed, n, count):
    rows = np.random.default_rng(seed).standard_normal((count, n))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def reference_rho_and_delta(r4):
    """(ρ, δ): the spectral radius of the curvature operator on Λ², built
    entry by entry from the 4-tensor, and the rounding allowance 2n⁴·ε·max|R̂|."""
    n = r4.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    op = np.array([[r4[i, j, k, l] for k, l in pairs] for i, j in pairs])
    rho = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (op + op.T)))))
    return rho, 2.0 * n ** 4 * np.finfo(np.float64).eps * float(np.max(np.abs(r4)))


# [DERIVED] the batched polish gives each plane the value of the single-pair
# alternation over all planes, to 1e-12 relative: a coordinate leg c = e_n,
# planes that converge at different sweeps, all twelve legs on one tensor
# (1, 12, n) or one leg on each of twelve copies (12, 1, n); the plane it
# returns for a leg with positive |K| has that value.
@pytest.mark.parametrize("algebra", [N4, catalog.filiform(5), catalog.heisenberg5()],
                         ids=["n4", "filiform5", "heisenberg5"])
@pytest.mark.parametrize("t", [1.0, 1e-3])
@pytest.mark.parametrize("stacked", [False, True], ids=["all", "stacked"])
def test_batched_polish_matches_single_pair(algebra, t, stacked):
    n = algebra.dim
    r_hat = random_split_tensor(algebra, 11 + n, t)
    c = random_unit_rows(2 + n, n, 12)
    c[0] = np.eye(n)[n - 1]
    c[1] = reference_polish_pair(r_hat, n, c[2])[3]  # at a maximum
    expected, sweeps, _, _ = zip(*(reference_polish_pair(r_hat, n, ca)
                                   for ca in c))
    rows = len(c)
    if stacked:
        r4s, legs = np.stack([r_hat] * rows), c[:, None]
    else:
        r4s, legs = r_hat[None], c[None]
    got, got_x, got_c = (part.reshape((rows,) + part.shape[2:]) for part in
                         scan._polish(r4s, legs, np.full(len(r4s), math.inf)))
    assert len(set(sweeps)) > 1
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    for a in np.flatnonzero(got > 0.0):  # the returned plane attains the max
        assert reference_abs_sectional(r_hat, got_x[a], got_c[a]) == pytest.approx(
            got[a], rel=1e-12, abs=0.0)


def reference_horizontal_search(r4):
    """(sup, certified) of the sup search over planes with one leg in the
    first n − 1 coordinates, kept here as a reference: both legs of the best
    rank-2 plane of each extreme eigenvector of ℛ (built entry by entry),
    each polished by the single-pair alternation with x horizontal; the best
    value is certified where it reaches ρ − δ or Thorpe's trick closes at its
    plane."""
    n = r4.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    op = np.array([[r4[i, j, k, l] for k, l in pairs] for i, j in pairs])
    sym = 0.5 * (op + op.T)
    vals, vecs = np.linalg.eigh(sym)
    legs = []
    for end in (0, -1):
        b = np.zeros((n, n))
        for p, (i, j) in enumerate(pairs):
            b[i, j], b[j, i] = vecs[p, end], -vecs[p, end]
        legs.extend(np.linalg.eigh(b.T @ b)[1][:, -2:].T)
    sup, _, x, c = max((reference_polish_pair(r4, n - 1, leg) for leg in legs),
                       key=lambda polished: polished[0])
    rho, delta = reference_rho_and_delta(r4)
    return sup, bool(sup >= rho - delta or scan._thorpe_certifies(
        sym, (float(vals[0]), float(vals[-1])), x, c, sup, float(np.max(np.abs(r4)))))


H7 = NilAlgebra.from_brackets(7, 2, {(1, 2): {7: 1}, (3, 4): {7: 1}, (5, 6): {7: 1}})


# [DERIVED] every 2-plane meets the horizontal space, so the search over all
# planes finds the sup of the search with one leg horizontal: to 1e-12
# relative, with the same certified flag (through `polished_sup`, which has
# the stack's bits), on every point of the default grid of free 2-step(3, 4),
# h7 and filiform(6), each at G = I and two dense seeds.
@pytest.mark.parametrize("algebra", [FREE3, free_two_step(4), H7, catalog.filiform(6)],
                         ids=["free3", "free4", "h7", "filiform6"])
def test_whole_plane_search_matches_horizontal_search(algebra):
    n = algebra.dim
    weights = np.sqrt(np.stack([split_diagonal(n, t)
                                for t in np.geomspace(1.0, 1e-6, 7)]))
    for seed in (None, 0, 1):
        _, split = geometry(algebra, None if seed is None else dense_seed(n, seed))
        r_ts = rescaled_curvature(frame_structure(algebra, split), weights)
        for r4, sup in zip(r_ts, scan.polished_sups(r_ts)):
            expected, expected_certified = reference_horizontal_search(r4)
            assert sup == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert polished_sup(r4) == (sup, expected_certified)


# [DERIVED] both legs of each eigenplane are polished: on free 2-step(4) at
# the seed I + 0.2·AAᵀ/n (A standard normal from seed 109) and t = 1e-4,
# where neither ρ − δ nor Thorpe's trick is reached, the legs of each
# eigenvector's top BᵀB eigenvector polish to 0.76880, and only the other
# leg of the λ_max eigenplane reaches 0.78408, the reference's value.
def test_both_eigenplane_legs_are_polished():
    algebra = free_two_step(4)
    n = algebra.dim
    a = np.random.default_rng(109).standard_normal((n, n))
    _, split = geometry(algebra, np.eye(n) + 0.2 * a @ a.T / n)
    r4 = rescaled_curvature(frame_structure(algebra, split),
                            np.sqrt(split_diagonal(n, 1e-4)))
    sup, certified = polished_sup(r4)
    assert not certified and sup > 0.784
    assert sup == pytest.approx(reference_horizontal_search(r4)[0], rel=1e-12, abs=0.0)


def assert_reaches_rho(r4):
    rho, delta = reference_rho_and_delta(r4)
    got, certified = polished_sup(r4)
    assert rho - 2.0 * delta <= got <= rho + delta
    assert certified


# [DERIVED] where ρ is attained the polished sup reaches it to 2δ, certified:
# n4 with G = I at t = 1, every default grid t of filiform(8), and a dense
# seed metric on filiform(6).
def test_sup_reaches_rho_n4():
    metric, split = geometry(N4)
    r1 = SubmersionContext(N4, metric, split).frame_curvature(1.0)
    assert_reaches_rho(r1)


def test_sup_reaches_rho_filiform8_grid():
    algebra = catalog.filiform(8)
    metric, split = geometry(algebra)
    ctx = SubmersionContext(algebra, metric, split)
    for t in np.geomspace(1.0, 1e-6, 7):
        assert_reaches_rho(ctx.frame_curvature(t))


def test_sup_reaches_rho_dense_filiform6():
    r_hat = random_split_tensor(catalog.filiform(6), 0, 1.0)
    assert_reaches_rho(r_hat)


# [DERIVED] the eigenplane seeds reach the ceiling at once: at most 2 polish
# sweeps (two `_top_eigenpairs` calls each) on filiform(8) at t = 1.
def test_polish_sweeps_filiform8(monkeypatch):
    algebra = catalog.filiform(8)
    metric, split = geometry(algebra)
    r1 = SubmersionContext(algebra, metric, split).frame_curvature(1.0)
    real = scan._top_eigenpairs
    calls = []

    def counting(q, v):
        calls.append(q.shape[0])
        return real(q, v)

    monkeypatch.setattr(scan, "_top_eigenpairs", counting)
    polished_sup(r1)
    assert 0 < len(calls) <= 4


# [DERIVED] a NaN or infinite tensor entry yields a non-finite sup, and so a
# bound violation, never the 0.0 that a polish from zero starts at.
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_tensor_is_not_hidden(value, monkeypatch):
    metric, split = geometry(H3)
    real = scan.rescaled_curvature

    def poisoned(c, w):  # the scan's stacked R̂, not the base's
        r_hat = real(c, w).copy()
        if np.ndim(w) == 2:
            r_hat[..., 0, 1, 0, 1] = value
        return r_hat

    r1 = poisoned(SubmersionContext(H3, metric, split).c_hat,
                  np.sqrt(split_diagonal(3, 1.0))[None])[0]
    with np.errstate(invalid="ignore", over="ignore"):
        sup, certified = polished_sup(r1)
        assert not math.isfinite(sup) and not certified
        monkeypatch.setattr(scan, "rescaled_curvature", poisoned)
        with pytest.raises(BoundViolated) as info:
            lemma_scan(H3, metric, split, [1e-3], n_samples=200, seed=0)
    assert not math.isfinite(info.value.value)


# [TRIVIAL] only `polished_sup` solves Thorpe's certificate: with
# `_thorpe_certifies` made to raise, `polished_sups` gives the sups of h5 × R
# (where it closes) and free 2-step(3) (where it does not), and certify
# certifies h5; `polished_sup` still certifies h5 × R below its ceiling.
def test_only_polished_sup_certifies(monkeypatch):
    stack = np.stack([padded_identity_tensor(algebra)
                      for algebra in (catalog.heisenberg5(), FREE3)])
    real = scan._thorpe_certifies

    def refuse(*args):
        raise AssertionError("a certificate was solved")

    monkeypatch.setattr(scan, "_thorpe_certifies", refuse)
    sups = scan.polished_sups(stack)
    certify_almost_flat(peel_tower(NilLattice(algebra=catalog.heisenberg5())),
                        LeftInvariantMetric.identity(5), 1e-2)
    monkeypatch.setattr(scan, "_thorpe_certifies", real)
    sup, certified = polished_sup(stack[0])
    rho, delta = curvature_bound(stack[0])
    assert sups[0] == sup and certified and sup < rho - delta
    assert sups[1] == polished_sup(stack[1])[0]


def padded_identity_tensor(algebra, n=6):
    """R̂ at G = I of algebra × R^(n − dim), in the algebra's basis."""
    product = NilAlgebra(dim=n, declared_class=max(algebra.declared_class, 1),
                         brackets=algebra.brackets)
    return rescaled_curvature(structure_array(product), np.ones(n))


# [DERIVED] a stack gives every member the bits of its one-tensor call: one
# member of each kind, all of dimension 6 — flat (z3 × R³,
# stopped before the first sweep), one whose polish reaches the ceiling ρ − δ
# (n4 × R²), one that Thorpe's trick certifies below it (h5 × R), one where it
# does not close (free 2-step(3) at G = I), and one with a NaN entry, whose
# sup is non-finite and changes no other member's bits.  The certified flags
# come from `polished_sup`.  Stacked weights give the per-row tensors of
# `rescaled_curvature` bit for bit.  The one rule of the search: a tensor
# below dimension 2 or with no nonzero entry has sup 0.0, certified, and one
# with a NaN or inf entry keeps it as its sup, uncertified; h5's 7 grid
# tensors with a zero and a NaN tensor among them keep their bits.
def test_stack_matches_one_tensor_at_a_time():
    kinds = [catalog.abelian(3), N4, catalog.heisenberg5(), FREE3, N4]
    stack = np.stack([padded_identity_tensor(algebra) for algebra in kinds])
    stack[4, 0, 1, 0, 1] = math.nan
    alone = [polished_sup(r4) for r4 in stack[:4]]
    with np.errstate(invalid="ignore"):
        together = scan.polished_sups(stack)
        nan_sup, nan_certified = polished_sup(stack[4])
    assert together[:4] == [sup for sup, _ in alone]
    assert not math.isfinite(together[4]) and not math.isfinite(nan_sup)
    assert nan_certified is False
    ceilings = [curvature_bound(r4)[0] - curvature_bound(r4)[1] for r4 in stack[:4]]
    assert alone[0] == (0.0, True)
    assert alone[1][1] and alone[1][0] >= ceilings[1]
    assert alone[2][1] and alone[2][0] < ceilings[2]
    assert not alone[3][1]

    algebra = catalog.filiform(6)
    _, split = geometry(algebra, dense_seed(6, 3))
    c_hat = frame_structure(algebra, split)
    weights = np.sqrt(np.stack([split_diagonal(6, t)
                                for t in np.geomspace(1.0, 1e-6, 7)]))
    stacked = rescaled_curvature(c_hat, weights)
    for row, w in zip(stacked, weights):
        assert np.array_equal(row, rescaled_curvature(c_hat, w))

    for n in (0, 1):
        assert polished_sup(np.ones((n,) * 4)) == (0.0, True)
    assert polished_sup(np.zeros((4,) * 4)) == (0.0, True)
    for value in (math.nan, math.inf):
        r4 = padded_identity_tensor(N4, 4)
        r4[0, 1, 0, 1] = value
        with np.errstate(invalid="ignore", over="ignore"):
            sup, certified = polished_sup(r4)
        assert repr(sup) == repr(value) and certified is False
    h5 = catalog.heisenberg5()
    grid = rescaled_curvature(structure_array(h5), np.sqrt(np.stack(
        [split_diagonal(5, t) for t in np.geomspace(1.0, 1e-6, 7)])))
    poisoned = grid[0].copy()
    poisoned[0, 1, 0, 1] = math.nan
    mixed = np.concatenate([grid[:3], np.zeros((1,) + grid.shape[1:]),
                            grid[3:5], poisoned[None], grid[5:]])
    with np.errstate(invalid="ignore"):
        together = scan.polished_sups(mixed)
        alone = [polished_sup(r4)[0] for r4 in mixed]
    assert np.array(together).tobytes() == np.array(alone).tobytes()
    assert together[3] == 0.0 and math.isnan(together[6])


# [DERIVED] a flat tensor reaches no eigensolve: at G = I on the default
# 7-point grid, h5 seeds one stacked search (its base R⁴ is flat), z3 none,
# and n4 two (the base h3, then the grid).
@pytest.mark.parametrize("algebra,calls", [
    (catalog.heisenberg5(), 1), (catalog.abelian(3), 0), (N4, 2)],
    ids=["h5", "z3", "n4"])
def test_flat_tensors_reach_no_eigensolve(algebra, calls, monkeypatch):
    real = scan._eigenplane_seeds
    seeded = []
    monkeypatch.setattr(scan, "_eigenplane_seeds",
                        lambda *args: seeded.append(args) or real(*args))
    metric, split = geometry(algebra)
    lemma_scan(algebra, metric, split, np.geomspace(1.0, 1e-6, 7),
               n_samples=1, seed=0)
    assert len(seeded) == calls


# [DERIVED] a long grid is measured in stacks of at most 16 t values, so
# its memory does not grow with the grid, and the report is that of the
# one-t-at-a-time scans: a 40-point grid on filiform(5) with a dense seed.
def test_long_grid_runs_in_bounded_stacks(monkeypatch):
    algebra = catalog.filiform(5)
    metric, split = geometry(algebra, dense_seed(5, 2))
    grid = np.geomspace(1.0, 1e-6, 40)
    alone = [lemma_scan(algebra, metric, split, [t], n_samples=1, seed=0)
             for t in grid]
    real = scan.rescaled_curvature
    stacks = []

    def counting(c, w):
        if np.ndim(w) == 2:
            stacks.append(len(w))
        return real(c, w)

    monkeypatch.setattr(scan, "rescaled_curvature", counting)
    report = lemma_scan(algebra, metric, split, grid, n_samples=1, seed=0)
    assert sum(stacks) == 40 and max(stacks) <= 16
    assert report == DecayReport(
        t_grid=tuple(grid), sup_abs_K=tuple(r.sup_abs_K[0] for r in alone),
        base_sup_K=alone[0].base_sup_K, C=alone[0].C,
        exponent_fit=report.exponent_fit,
        diam_bound=tuple(r.diam_bound[0] for r in alone), sample_count=1,
        seed=0, bounds=tuple(r.bounds[0] for r in alone))
    assert report.exponent_fit is not None


# [DERIVED] the scan's values do not depend on `n_samples` or `seed`, below
# the ceiling ρ − δ or not: where an eigenplane of ℛ attains ρ (h3, n4 and
# filiform(8) at G = I, and the flat bases), where Thorpe's trick certifies
# the polished eigenplane (h5 at G = I, free 2-step(3) with a dense seed),
# and on free 2-step(3) at G = I, where neither holds.
@pytest.mark.parametrize("algebra,seed", [
    (H3, None), (N4, None), (catalog.filiform(8), None),
    (catalog.heisenberg5(), None), (FREE3, None), (FREE3, 0)],
    ids=["h3", "n4", "filiform8", "h5", "free3", "free3-dense"])
def test_lemma_scan_draws_only_below_ceiling(algebra, seed):
    metric, split = geometry(algebra, None if seed is None else dense_seed(algebra.dim, seed))
    grid = np.geomspace(1.0, 1e-6, 7)
    reports = [lemma_scan(algebra, metric, split, grid, n_samples=samples, seed=s)
               for samples, s in ((4096, 0), (1, 7))]
    assert report_csv(reports[0]) == report_csv(reports[1])
    assert reports[0].C == reports[1].C
    assert reports[0].exponent_fit == reports[1].exponent_fit


# [DERIVED] where the base sup is not certified the bound column starts from
# the base's ρ + δ: free 2-step(4) at G = I polishes the base sup to 0.75,
# uncertified, below ρ ≈ 0.8904, and every bound stays at or above ρ; the
# exponent fit still measures the excess over 0.75.
def test_uncertified_base_bounds_from_rho():
    algebra = free_two_step(4)
    metric, split = geometry(algebra)
    r_base = SubmersionContext(algebra, metric, split).r_base
    base_sup, certified = polished_sup(r_base)
    rho, _ = curvature_bound(r_base)
    assert not certified and base_sup < rho
    report = lemma_scan(algebra, metric, split, np.geomspace(1.0, 1e-6, 7),
                        n_samples=1, seed=0)
    assert report.base_sup_K == base_sup
    assert min(report.bounds) == report.bounds[-1] >= rho


def assert_search_matches_oracle(r4s):
    """`_search` on the stack r4s gives the oracle's sups (by float repr),
    max|R̂| and certificate, every array to the bit, and `polished_sups` the
    same sups; a one-tensor stack also gives `polished_sup` its sup."""
    got, want = scan._search(r4s), search_oracle._search(r4s)
    assert [repr(s) for s in got[0]] == [repr(s) for s in want[0]]
    assert [repr(s) for s in scan.polished_sups(r4s)] == [repr(s) for s in want[0]]
    if len(r4s) == 1:
        assert repr(polished_sup(r4s[0])[0]) == repr(want[0][0])
    arrays = [(got[1], want[1])]
    assert (got[2] is None) == (want[2] is None)
    if got[2] is not None:
        (sym, (low, high), ceilings, x, c), (w_sym, (w_low, w_high), w_ceilings,
                                             w_x, w_c) = got[2], want[2]
        arrays += [(sym, w_sym), (low, w_low), (high, w_high),
                   (ceilings, w_ceilings), (x, w_x), (c, w_c)]
    for a, b in arrays:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.array_equal(a, b, equal_nan=True)


SEARCH_ORACLE_CASES = ([("z2", catalog.abelian(2)), ("h3", H3), ("n4", N4),
                        ("h3xZ", catalog.h3_times_z()), ("h5", catalog.heisenberg5())]
                       + [(f"filiform{n}", catalog.filiform(n)) for n in range(5, 11)]
                       + [("free3", FREE3), ("free4", free_two_step(4))])


# [ORACLE] the sup search against the copy of its earlier form in
# `search_oracle`: catalog algebras of dimension 2–10, at G = I and at two
# dense seeds, give the bits of the oracle on the split frame's base tensor
# and on its first and last grid tensor alone, and on the stacks of a
# 7-point and of a 16-point t grid.
@pytest.mark.parametrize("algebra", [case for _, case in SEARCH_ORACLE_CASES],
                         ids=[name for name, _ in SEARCH_ORACLE_CASES])
def test_search_matches_oracle(algebra):
    n = algebra.dim
    for seed in (None, 1, 3):
        metric = (LeftInvariantMetric.identity(n) if seed is None
                  else LeftInvariantMetric(dense_seed(n, seed)))
        c_hat = _structure_in_frame(structure_array(algebra), *metric._frame)
        assert_search_matches_oracle(
            rescaled_curvature(c_hat[:n - 1, :n - 1, :n - 1], np.ones(n - 1))[None])
        for points in (7, 16):
            weights = np.ones((points, n))
            weights[:, n - 1] = np.sqrt(np.geomspace(1.0, 1e-6, points))
            stack = rescaled_curvature(c_hat, weights)
            assert_search_matches_oracle(stack)
            if points == 7:
                assert_search_matches_oracle(stack[:1])
                assert_search_matches_oracle(stack[-1:])


# [ORACLE] the search's edge members against the oracle: a stack of 6-dim
# tensors with a zero, a NaN and an inf member among searched ones, and as
# transposed copies, which are not C-contiguous and are searched as
# gathered copies with the bits of the contiguous stacks, both that stack
# and one whose every member is searched: each polish sees its tensors in
# the oracle's memory layout.
def test_search_matches_oracle_on_edge_stacks(monkeypatch):
    layouts = {}
    for module in (scan, search_oracle):
        real = module._polish
        seen = layouts[module] = []
        monkeypatch.setattr(module, "_polish", lambda r4s, *args, real=real, seen=seen:
                            seen.append(r4s.strides) or real(r4s, *args))
    kinds = [N4, catalog.abelian(3), N4, catalog.heisenberg5(), FREE3, N4]
    stack = np.stack([padded_identity_tensor(algebra) for algebra in kinds])
    stack[1] = 0.0
    stack[2, 0, 1, 0, 1] = math.nan
    stack[5, 1, 2, 1, 2] = math.inf
    with np.errstate(invalid="ignore"):
        for r4s in (stack, stack[[0, 3, 4]]):
            transposed = r4s.T.copy().T
            assert not transposed.flags.c_contiguous
            for tensors in (r4s, transposed):
                assert_search_matches_oracle(tensors)
                for seen in layouts.values():
                    seen.clear()
                scan._search(tensors)
                search_oracle._search(tensors)
                assert layouts[scan] == layouts[search_oracle] != []
            assert ([repr(s) for s in scan.polished_sups(transposed)]
                    == [repr(s) for s in scan.polished_sups(r4s)])
        for member in stack:
            assert_search_matches_oracle(member[None])


# [ORACLE] stacks that sweep many times, where legs stop before their tensor
# and tensors before the stack: free 2-step(4) at the dense seed 3 polishes
# its 7-point grid stack in 10 sweeps, with tensors leaving at sweeps 8, 9
# and 10, and its t = 1 tensor alone at seed 1 in 8 sweeps, with legs
# stopping at sweeps 5 and 7.  A sweep is two `_top_eigenpairs` calls.
@pytest.mark.parametrize("seed,points,sweeps", [(3, 7, 10), (1, 1, 8)])
def test_search_matches_oracle_over_many_sweeps(seed, points, sweeps, monkeypatch):
    algebra = free_two_step(4)
    n = algebra.dim
    metric = LeftInvariantMetric(dense_seed(n, seed))
    c_hat = _structure_in_frame(structure_array(algebra), *metric._frame)
    weights = np.ones((points, n))
    weights[:, n - 1] = np.sqrt(np.geomspace(1.0, 1e-6, 7)[:points])
    stack = rescaled_curvature(c_hat, weights)
    assert_search_matches_oracle(stack)
    real = scan._top_eigenpairs
    calls = []
    monkeypatch.setattr(scan, "_top_eigenpairs",
                        lambda q, v: calls.append(len(v)) or real(q, v))
    scan._search(stack)
    assert len(calls) == 2 * sweeps


# [DERIVED] ρ + δ stays a bound at the ends of float64: ρ is +0.0 on a flat
# tensor, and where ℛ + ℛᵀ overflows (h3 with [e1, e2] = 12·10¹⁵³·e3 at
# G = I, max|R̂| = 1.08e308) its spectrum is NaN and so is ρ, not a number
# read off a finite end of it.
def test_curvature_bound_at_float64_ends():
    rho, delta = curvature_bound(np.zeros((3, 3, 3, 3)))
    assert (math.copysign(1.0, rho), rho, delta) == (1.0, 0.0, 0.0)
    huge = NilAlgebra(dim=3, declared_class=2, brackets={(0, 1): {2: 12 * 10 ** 153}})
    r_hat = rescaled_curvature(structure_array(huge), np.ones(3))
    assert np.isfinite(r_hat).all() and np.abs(r_hat).max() == 1.08e308
    with np.errstate(over="ignore", invalid="ignore"):
        rho, delta = curvature_bound(r_hat)
    assert math.isnan(rho) and math.isfinite(delta)
