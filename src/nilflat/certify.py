"""Almost-flatness certification: schedule fiber collapse over a whole tower.

Walking a circle-bundle tower bottom-up, each level adds one central direction
to the nilpotent algebra.  The certifier assembles a left-invariant metric
level by level: the new direction is split off seed-orthogonally, the base
keeps the metric already assembled below, and the fiber is scaled by a level
parameter t chosen so the measured curvature stays within an eps budget.

Levels whose extension cocycle vanishes are metric products — they add no
curvature and keep t = 1.  Each curved level gets an equal share of eps and a
multiplicative refinement loop on t driven by the measured sup|K| (the excess
over the level's base scales linearly in t, so the loop converges in a couple
of rounds); if the loop cannot meet its budget within the round cap, or the
assembled metric becomes singular in float64, the certification fails with
BudgetNotMet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetNotMet, DimensionMismatch
from .metric import LeftInvariantMetric, curvature_from_structure, structure_array
from .scan import diameter_bound, spawn_generator, sup_abs_sectional
from .tower import BundleTower

_STREAM_LEVEL = 6
_STREAM_FINAL = 7

_REFINE_MARGIN = 0.95


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Schedule and measurements; per-level tuples are top-down (tower order)."""

    eps: float
    seed: int
    sample_count: int
    ts: tuple
    level_dims: tuple
    curved_levels: tuple
    rounds: tuple
    fiber_lengths: tuple
    sup_abs_K: float
    diam_bound: float
    metric_matrix: np.ndarray


def assemble_metric(seed_block: np.ndarray, base_matrix: np.ndarray,
                    t: float) -> np.ndarray:
    """Extend an assembled base metric by one fiber direction.

    The last coordinate direction z is split off orthogonally with respect to
    the seed metric; the horizontal lifts carry the base metric and the fiber
    carries t times its seed length².  Returns the Gram matrix in the original
    coordinates (W^{-T} blockdiag(base, t·s) W^{-1} for the lift basis W).
    """
    k = seed_block.shape[0]
    if base_matrix.shape != (k - 1, k - 1):
        raise DimensionMismatch(
            f"base metric shape {base_matrix.shape} does not extend to dim {k}")
    s = float(seed_block[k - 1, k - 1])
    if k == 1:
        return np.array([[t * s]])
    w = np.eye(k)
    w[k - 1, :k - 1] = -seed_block[k - 1, :k - 1] / s
    b = np.zeros((k, k))
    b[:k - 1, :k - 1] = base_matrix
    b[k - 1, k - 1] = t * s
    w_inv = np.linalg.inv(w)
    return w_inv.T @ b @ w_inv


def _measure_sup(structure: np.ndarray, matrix: np.ndarray,
                 gen: np.random.Generator, n_samples: int, where: str) -> float:
    """Sampled sup|K| of the assembled metric; BudgetNotMet if it is singular.

    Collapse parameters can fall so far (1e-24 and below on dense seeds)
    that the assembled metric is singular in float64; no smaller t can then
    be measured, so the budget is reported as not met, naming `where`.
    """
    n = matrix.shape[0]
    try:
        r4 = curvature_from_structure(structure, matrix)
        sup, _ = sup_abs_sectional(r4, matrix, n, gen, n_samples)
    except np.linalg.LinAlgError as exc:
        raise BudgetNotMet(
            f"{where}: assembled metric is singular in float64 ({exc})") from exc
    return sup


def certify_almost_flat(tower: BundleTower, seed_metric: LeftInvariantMetric,
                        eps: float, *, seed: int = 0, n_samples: int = 4096,
                        max_rounds: int = 20) -> CertificateReport:
    """Choose per-level collapse parameters so the fully assembled metric has
    sampled sup|K| ≤ eps, and bound the diameter of the result."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    steps = tower.steps
    if not steps:  # the point: nothing to collapse
        empty = np.zeros((0, 0))
        empty.flags.writeable = False
        return CertificateReport(
            eps=float(eps), seed=int(seed), sample_count=int(n_samples),
            ts=(), level_dims=(), curved_levels=(), rounds=(),
            fiber_lengths=(), sup_abs_K=0.0, diam_bound=0.0,
            metric_matrix=empty)
    n = steps[0].total.algebra.dim
    if seed_metric.dim != n:
        raise DimensionMismatch(
            f"seed metric dim {seed_metric.dim} does not match tower dim {n}")
    seed_matrix = seed_metric.matrix

    curved_dims = [step.total.algebra.dim for step in steps
                   if step.cocycle.upper_entries()]
    budget = eps / len(curved_dims) if curved_dims else None

    assembled = np.zeros((0, 0))
    sup_prev = 0.0
    ts_bottom_up = []
    rounds_bottom_up = []
    for k in range(1, n + 1):
        step = steps[n - k]
        seed_block = seed_matrix[:k, :k]
        curved = bool(step.cocycle.upper_entries())
        if not curved:
            # zero cocycle: the new direction is a metric product factor
            assembled = assemble_metric(seed_block, assembled, 1.0)
            ts_bottom_up.append(1.0)
            rounds_bottom_up.append(0)
            continue

        structure = structure_array(step.total.algebra)
        target = sup_prev + budget
        t = 1.0
        accepted = None
        for round_index in range(max_rounds):
            candidate = assemble_metric(seed_block, assembled, t)
            gen = spawn_generator(seed, _STREAM_LEVEL, k, round_index)
            sup_k = _measure_sup(
                structure, candidate, gen, n_samples,
                f"level dim {k} at t = {t!r} (smallest t below: "
                f"{min(ts_bottom_up, default=t)!r})")
            if sup_k <= target:
                accepted = (t, candidate, sup_k, round_index + 1)
                break
            excess = sup_k - sup_prev
            t_next = t * _REFINE_MARGIN * budget / excess
            if not (0.0 < t_next < t):
                t_next = 0.5 * t
            t = t_next
        if accepted is None:
            raise BudgetNotMet(
                f"level dim {k}: could not meet curvature budget {budget!r} "
                f"within {max_rounds} refinement rounds (eps = {eps!r})")
        t, assembled, sup_prev, used = accepted
        ts_bottom_up.append(t)
        rounds_bottom_up.append(used)

    final_gen = spawn_generator(seed, _STREAM_FINAL)
    top_structure = structure_array(steps[0].total.algebra)
    sup_final = _measure_sup(top_structure, assembled, final_gen, n_samples,
                             f"final metric of dim {n} (smallest t: "
                             f"{min(ts_bottom_up)!r})")
    if sup_final > eps:
        raise BudgetNotMet(
            f"final sampled sup|K| = {sup_final!r} exceeds eps = {eps!r}")

    fibers_bottom_up = [math.sqrt(float(seed_matrix[k - 1, k - 1]))
                        for k in range(1, n + 1)]
    diam = diameter_bound(fibers_bottom_up, ts_bottom_up)

    matrix = np.array(assembled)
    matrix.flags.writeable = False
    return CertificateReport(
        eps=float(eps), seed=int(seed), sample_count=int(n_samples),
        ts=tuple(reversed(ts_bottom_up)),
        level_dims=tuple(step.total.algebra.dim for step in steps),
        curved_levels=tuple(curved_dims),
        rounds=tuple(reversed(rounds_bottom_up)),
        fiber_lengths=tuple(reversed(fibers_bottom_up)),
        sup_abs_K=sup_final,
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
        "diam_bound": report.diam_bound,
    }
