"""Almost-flatness certification: schedule fiber collapse over a whole tower.

Walking a circle-bundle tower bottom-up, each level adds one central direction
e_k to the nilpotent algebra, and each level is a Riemannian submersion onto
the quotient by the fibers above it (O'Neill 1966).  One frame serves every
level: the seed's G-orthonormal, lower-triangular frame F of
`LeftInvariantMetric._frame`, whose leading k×k block is a G-orthonormal
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

The levels k ≤ p, with e_{p+1} the first vector of [g, g] (p = `leads[1]`
of the top lattice, p = n on an abelian tower), are quotients by a space
that holds [g, g], hence abelian; since F⁻¹ is lower-triangular,
c_F[:k, :k, :k] is exactly 0 there, so R̂ = 0 and ρ = δ = 0.0, bit for bit.
They are recorded at t = 1, rounds 0 and bound 0.0 without a measurement,
and the level loop starts at k = p + 1 with ρ of the level below 0.0.  An
abelian tower, the point (n = 0) included, has no level above p = n: no level
is measured and the structure constants are never transformed into F.
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
(`scan.polished_sups`, no plane is drawn and no certificate is solved) is
reported beside the bound; on an abelian tower it is 0.0.
If a loop cannot meet its budget within _MAX_ROUNDS rounds, the final bound
exceeds eps, or the curvature of a level or of the final metric cannot be
measured in float64, the certification fails with BudgetNotMet.
`certificate_summary` is every report field but metric_matrix, as JSON.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetNotMet, DimensionMismatch, _Frozen
from .metric import (LeftInvariantMetric, _structure_in_frame,
                     rescaled_curvature, structure_array)
from .scan import _check_echoed, curvature_bound, diameter_bound, polished_sups
from .tower import BundleTower

_REFINE_MARGIN = 0.95
_MAX_ROUNDS = 20


class CertificateReport(_Frozen):
    """Schedule and measurements; per-level tuples are top-down (tower order).

    level_bounds[i] is ρ + δ of level i at its accepted t (see
    `scan.curvature_bound`); sup_abs_K_bound is that of the final metric, and
    sup_abs_K its polished sup|K|.  metric_matrix is the certified metric,
    the seed where every t_k = 1; fiber_lengths are the seed's √G_kk, upper
    bounds on the level fibers √D_k, and diam_bound is Σ ½·√G_kk·√t_k.
    """

    _fields = ("eps", "seed", "sample_count", "ts", "level_dims",
               "curved_levels", "rounds", "fiber_lengths", "sup_abs_K",
               "sup_abs_K_bound", "level_bounds", "diam_bound", "metric_matrix")

    def __init__(self, eps: float, seed: int, sample_count: int, ts: tuple,
                 level_dims: tuple, curved_levels: tuple, rounds: tuple,
                 fiber_lengths: tuple, sup_abs_K: float, sup_abs_K_bound: float,
                 level_bounds: tuple, diam_bound: float,
                 metric_matrix: np.ndarray):
        self.__dict__.update(
            eps=eps, seed=seed, sample_count=sample_count, ts=ts,
            level_dims=level_dims, curved_levels=curved_levels, rounds=rounds,
            fiber_lengths=fiber_lengths, sup_abs_K=sup_abs_K,
            sup_abs_K_bound=sup_abs_K_bound, level_bounds=level_bounds,
            diam_bound=diam_bound, metric_matrix=metric_matrix)


def certify_almost_flat(tower: BundleTower, seed_metric: LeftInvariantMetric,
                        eps: float, *, seed: int = 0,
                        n_samples: int = 4096) -> CertificateReport:
    """Choose per-level collapse parameters so the fully assembled metric has
    sup|K| ≤ ρ + δ ≤ eps, report its polished sup|K| beside that bound, and
    bound the diameter of the result.  `seed` and `n_samples` are validated
    and echoed but change no value."""
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    _check_echoed(n_samples, seed)
    steps = tower.steps
    n = len(steps)  # each step peels one circle, down to the point
    if seed_metric.dim != n:
        raise DimensionMismatch(
            f"seed metric dim {seed_metric.dim} does not match tower dim {n}")
    curved_dims = [step.total.algebra.dim for step in steps if step.cocycle.entries]
    budget = eps / len(curved_dims) if curved_dims else None

    frame, frame_inv = seed_metric._frame
    fibers_bottom_up = [math.sqrt(g) for g in np.diag(seed_metric.matrix).tolist()]
    w = np.ones(n)  # w_k = √t_k; t_k = 1 until accepted
    # the abelian bottom: [g, g] starts at e_{p+1}, so the levels k ≤ p are
    # flat, R̂ = 0 and ρ = δ = 0.0 there, and none is measured (the point is
    # the abelian tower with p = n = 0)
    leads = steps[0].total.leads if steps else ()
    p = leads[1] if len(leads) > 1 else n
    if p < n:
        c_frame = _structure_in_frame(structure_array(steps[0].total.algebra),
                                      frame, frame_inv)
    rho_prev = 0.0
    ts_bottom_up = [1.0] * p
    rounds_bottom_up = [0] * p
    bounds_bottom_up = [0.0] * p
    k = None  # the level being measured, None at the final metric
    try:
        for k in range(p + 1, n + 1):
            # a zero cocycle is a metric product factor: one pass, t = 1
            curved = k in curved_dims
            t, used = 1.0, 0
            for round_index in range(_MAX_ROUNDS if curved else 1):
                w[k - 1] = math.sqrt(t)
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
        k = None

        bound = bounds_bottom_up[-1] if n else 0.0
        if not (bound <= eps):
            raise BudgetNotMet(
                f"final bound ρ + δ = {bound!r} on sup|K| exceeds eps = {eps!r}")
        sup_final = polished_sups(r_hat[None])[0] if p < n else 0.0
    except np.linalg.LinAlgError as exc:
        if k is None:
            where = (f"final metric of dim {n} "
                     f"(smallest t: {min(ts_bottom_up, default=1.0)!r})")
        elif curved:
            where = (f"level dim {k} at t = {t!r} (smallest t below: "
                     f"{min(ts_bottom_up, default=t)!r})")
        else:
            where = f"flat level dim {k}"
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
    """JSON-ready certification summary: every report field but
    metric_matrix, tuples as lists (per-level lists are top-down)."""
    values = ((name, getattr(report, name)) for name in report._fields
              if name != "metric_matrix")
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in values}
