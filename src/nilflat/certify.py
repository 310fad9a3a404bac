"""Almost-flatness certification: schedule fiber collapse over a whole tower.

Walking a circle-bundle tower bottom-up, each level adds one central direction
e_k to the nilpotent algebra, and each level is a Riemannian submersion onto
the quotient by the fibers above it (O'Neill 1966).  One frame serves every
level: the seed's G-orthonormal, lower-triangular frame F of
`metric._orthonormal_frame`, whose leading k×k block is a G-orthonormal
frame of the quotient metric on g/span(e_{k+1}, …, e_n).  With w_k = √t_k,
F·diag(w)⁻¹ is orthonormal for the assembled metric, with structure
constants ĉ = c_F·w_c / (w_a·w_b), c_F those of the top algebra in F,
transformed once.  Level k's curvature is `metric.rescaled_curvature` of the
leading k×k×k block of c_F at weights w[:k], with no division by t, and a
refinement round only changes w_k.  The reported metric (w·F⁻¹)ᵀ(w·F⁻¹) is
formed once, at the end; at every t_k = 1 it is the seed.  The reported
fiber lengths are √G_kk: the level-k fiber has length √D_k ≤ √G_kk, D the
pivots of the seed's reversed LDLᵀ, so the diameter bound built from them
is a true bound.

Levels whose extension cocycle vanishes keep t = 1, as metric products.
That holds only where the seed does not couple e_k to [g, g], that is, where
c_F[a, b, k] = 0 for all a, b < k: where it does, the brackets of the frame
vectors below gain a component along the level's own frame vector, and the
level carries curvature that its fixed t = 1 never collapses, as on
`h3_times_z` with G₃₄ = 0.25, which exits 3 (ROADMAP F5).  Each curved level
gets an equal share of eps and a multiplicative refinement loop on t gated
by the bound ρ + δ on sup|K| of `scan.curvature_bound`: ρ is the spectral
radius of the curvature operator ℛ on Λ², which bounds |K| of every plane
(K(σ) is the Rayleigh quotient of ℛ at the unit decomposable bivector σ;
Milnor 1976), and δ its rounding allowance.  A level is accepted once ρ + δ
is at most ρ of the level below plus the budget; the excess of ρ over the
level below scales linearly in t, so the loop converges in a couple of
rounds.  Every round costs one symmetric eigensolve, and no plane is
sampled.  The final metric's ρ + δ must be at most eps; its polished sup|K|
(`scan.polished_sup`, no plane is drawn) is reported beside the bound.
If a loop cannot meet its budget within _MAX_ROUNDS rounds, the final bound
exceeds eps, or the curvature of a level or of the final metric cannot be
measured in float64, the certification fails with BudgetNotMet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetNotMet, DimensionMismatch
from .metric import (LeftInvariantMetric, _orthonormal_frame,
                     _structure_in_frame, rescaled_curvature, structure_array)
from .scan import curvature_bound, diameter_bound, polished_sup
from .tower import BundleTower

_REFINE_MARGIN = 0.95
_MAX_ROUNDS = 20


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Schedule and measurements; per-level tuples are top-down (tower order).

    level_bounds[i] is ρ + δ of level i at its accepted t (see
    `scan.curvature_bound`); sup_abs_K_bound is that of the final metric, and
    sup_abs_K its polished sup|K|.  metric_matrix is the certified metric,
    the seed where every t_k = 1; fiber_lengths are the seed's √G_kk, upper
    bounds on the level fibers √D_k, and diam_bound is Σ ½·√G_kk·√t_k.
    """

    eps: float
    seed: int
    sample_count: int
    ts: tuple
    level_dims: tuple
    curved_levels: tuple
    rounds: tuple
    fiber_lengths: tuple
    sup_abs_K: float
    sup_abs_K_bound: float
    level_bounds: tuple
    diam_bound: float
    metric_matrix: np.ndarray


def certify_almost_flat(tower: BundleTower, seed_metric: LeftInvariantMetric,
                        eps: float, *, seed: int = 0,
                        n_samples: int = 4096) -> CertificateReport:
    """Choose per-level collapse parameters so the fully assembled metric has
    sup|K| ≤ ρ + δ ≤ eps, report its polished sup|K| beside that bound, and
    bound the diameter of the result.  `seed` and `n_samples` are validated
    and echoed but change no value."""
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    steps = tower.steps
    n = len(steps)  # each step peels one circle, down to the point
    if seed_metric.dim != n:
        raise DimensionMismatch(
            f"seed metric dim {seed_metric.dim} does not match tower dim {n}")
    if not steps:  # the point: nothing to collapse
        empty = np.zeros((0, 0))
        empty.flags.writeable = False
        return CertificateReport(
            eps=float(eps), seed=int(seed), sample_count=int(n_samples),
            ts=(), level_dims=(), curved_levels=(), rounds=(),
            fiber_lengths=(), sup_abs_K=0.0, sup_abs_K_bound=0.0,
            level_bounds=(), diam_bound=0.0, metric_matrix=empty)

    curved_dims = [step.total.algebra.dim for step in steps
                   if step.cocycle.upper_entries()]
    budget = eps / len(curved_dims) if curved_dims else None

    frame, frame_inv = _orthonormal_frame(seed_metric.matrix)
    c_frame = _structure_in_frame(structure_array(steps[0].total.algebra),
                                  frame, frame_inv)
    fibers_bottom_up = [math.sqrt(g) for g in np.diag(seed_metric.matrix).tolist()]
    w = np.ones(n)  # w_k = √t_k; t_k = 1 until accepted
    rho_prev = 0.0
    ts_bottom_up = []
    rounds_bottom_up = []
    bounds_bottom_up = []
    try:
        for k in range(1, n + 1):
            # a zero cocycle is a metric product factor: one pass, t = 1
            curved = bool(steps[n - k].cocycle.upper_entries())
            t, used = 1.0, 0
            for round_index in range(_MAX_ROUNDS if curved else 1):
                w[k - 1] = math.sqrt(t)
                where = (f"level dim {k} at t = {t!r} (smallest t below: "
                         f"{min(ts_bottom_up, default=t)!r})" if curved
                         else f"flat level dim {k}")
                r_hat = rescaled_curvature(c_frame[:k, :k, :k], w[:k])
                rho, delta = curvature_bound(r_hat)
                if not curved:
                    break
                if rho + delta <= rho_prev + budget:
                    used = round_index + 1
                    break
                t_next = t * _REFINE_MARGIN * budget / (rho - rho_prev)
                if not (0.0 < t_next < t):
                    t_next = 0.5 * t
                t = t_next
            else:
                raise BudgetNotMet(
                    f"level dim {k}: could not meet curvature budget "
                    f"{budget!r} within {_MAX_ROUNDS} refinement rounds "
                    f"(eps = {eps!r})")
            rho_prev = rho
            ts_bottom_up.append(t)
            rounds_bottom_up.append(used)
            bounds_bottom_up.append(rho + delta)

        bound = bounds_bottom_up[-1]
        if not (bound <= eps):
            raise BudgetNotMet(
                f"final bound ρ + δ = {bound!r} on sup|K| exceeds eps = {eps!r}")
        where = f"final metric of dim {n} (smallest t: {min(ts_bottom_up)!r})"
        sup_final, _ = polished_sup(r_hat)
    except np.linalg.LinAlgError as exc:
        raise BudgetNotMet(
            f"{where}: curvature could not be measured in float64 ({exc})") from exc

    diam = diameter_bound(fibers_bottom_up, ts_bottom_up)

    scaled = w[:, None] * frame_inv
    matrix = np.einsum("ki,kj->ij", scaled, scaled, optimize=False)
    matrix.flags.writeable = False
    return CertificateReport(
        eps=float(eps), seed=int(seed), sample_count=int(n_samples),
        ts=tuple(reversed(ts_bottom_up)),
        level_dims=tuple(step.total.algebra.dim for step in steps),
        curved_levels=tuple(curved_dims),
        rounds=tuple(reversed(rounds_bottom_up)),
        fiber_lengths=tuple(reversed(fibers_bottom_up)),
        sup_abs_K=sup_final,
        sup_abs_K_bound=bound,
        level_bounds=tuple(reversed(bounds_bottom_up)),
        diam_bound=diam,
        metric_matrix=matrix)


def certificate_summary(report: CertificateReport) -> dict:
    """JSON-ready certification summary (per-level lists are top-down)."""
    return {
        "eps": report.eps,
        "seed": report.seed,
        "sample_count": report.sample_count,
        "ts": list(report.ts),
        "level_dims": list(report.level_dims),
        "curved_levels": list(report.curved_levels),
        "rounds": list(report.rounds),
        "fiber_lengths": list(report.fiber_lengths),
        "sup_abs_K": report.sup_abs_K,
        "sup_abs_K_bound": report.sup_abs_K_bound,
        "level_bounds": list(report.level_bounds),
        "diam_bound": report.diam_bound,
    }
