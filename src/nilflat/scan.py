"""Sampling verification of the collapse curvature bound sup|K^t| ≤ sup|Ǩ| + C√t.

The scan rescales the fiber of a central circle direction by t, samples tangent
2-planes, and tracks the sampled sup of |sectional curvature| against the
explicit bound.  Every 2-plane of the total space contains a horizontal unit
vector (the vertical distribution is a line), so planes are parametrized as
span(X, C) with X horizontal and C orthogonal to X, both g^t-unit.

Sup estimates are sampled and then *polished*: starting from the best sampled
planes, alternate exact maximization over each leg of the plane (a symmetric
eigenproblem on the admissible subspace).  |K| never decreases along the
alternation, so the polished value dominates the raw sample max and resolves
the sup to machine precision — which the decay-exponent fit needs, since the
excess sup|K^t| − sup|Ǩ| can sit many orders of magnitude below sup|Ǩ|.

Determinism: all randomness flows through counter-based Philox generators
keyed by (seed, stream, index), draws happen in single batched calls, and all
contractions are einsum(optimize=False), so outputs are byte-identical
regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import NilAlgebra
from .errors import BoundViolated, DimensionMismatch
from .metric import (
    TOL_GRAM,
    LeftInvariantMetric,
    curvature_from_structure,
    sectional_from_tensor,
    structure_array,
)
from .submersion import (
    OneillTensors,
    SubmersionSplit,
    _base_from_frame,
    _oneill_from_frame,
    frame_metric,
    frame_structure,
)

# Stream ids for Philox keying; every consumer of randomness gets its own.
_STREAM_BASE = 1
_STREAM_GRID = 2
_STREAM_NORM_A = 3
_STREAM_NORM_DA = 4
_STREAM_SAMPLE = 5

_POLISH_COUNT = 16
_POLISH_MAX_ITER = 50


def spawn_generator(seed: int, *path: int) -> np.random.Generator:
    """Deterministic Philox generator keyed by (seed, *path)."""
    key = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _row_norms2(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.einsum("ai,ij,aj->a", v, g, v, optimize=False)


def _draw_unit(gen: np.random.Generator, n: int, support: int, g: np.ndarray,
               count: int) -> np.ndarray:
    """count g-unit rows supported on the first `support` coordinates."""
    out = np.empty((count, n))
    remaining = np.arange(count)
    while remaining.size:
        draw = gen.standard_normal((remaining.size, n))
        if support < n:
            draw[:, support:] = 0.0
        norms = _row_norms2(draw, g)
        good = norms > TOL_GRAM
        rows = remaining[good]
        out[rows] = draw[good] / np.sqrt(norms[good])[:, None]
        remaining = remaining[~good]
    return out


def _draw_orthogonal_unit(gen: np.random.Generator, x: np.ndarray,
                          g: np.ndarray, count: int) -> np.ndarray:
    """Row-wise g-unit draws g-orthogonal to the corresponding row of x."""
    n = x.shape[1]
    gx = x @ g
    out = np.empty((count, n))
    remaining = np.arange(count)
    while remaining.size:
        draw = gen.standard_normal((remaining.size, n))
        proj = np.einsum("ai,ai->a", draw, gx[remaining], optimize=False)
        draw = draw - proj[:, None] * x[remaining]
        norms = _row_norms2(draw, g)
        good = norms > TOL_GRAM
        rows = remaining[good]
        out[rows] = draw[good] / np.sqrt(norms[good])[:, None]
        remaining = remaining[~good]
    return out


def _abs_sectional_batch(r4: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|K| per row for g-orthonormal pairs (x, c) (Gram determinant 1)."""
    q = np.einsum("ijkl,aj,al->aik", r4, c, c, optimize=False)
    return np.abs(np.einsum("aik,ai,ak->a", q, x, x, optimize=False))


def _subspace_basis(g: np.ndarray, support: int, orth_to: Sequence[np.ndarray]) -> np.ndarray:
    """g-orthonormal basis of the first-`support` coordinate subspace
    intersected with the g-orthocomplement of the given vectors."""
    n = g.shape[0]
    constraints = []
    block = g[:support, :support]
    for w in orth_to:
        coef = np.linalg.solve(block, (g @ w)[:support])
        p = np.zeros(n)
        p[:support] = coef
        norm2 = float(p @ g @ p)
        if norm2 > 1e-20:
            constraints.append(p / np.sqrt(norm2))
    cols = []
    for i in range(support):
        v = np.zeros(n)
        v[i] = 1.0
        for w in constraints:
            v = v - (v @ g @ w) * w
        for b in cols:
            v = v - (v @ g @ b) * b
        norm2 = float(v @ g @ v)
        if norm2 > 1e-10:
            cols.append(v / np.sqrt(norm2))
    if not cols:
        return np.zeros((n, 0))
    return np.stack(cols, axis=1)


def _polish_pair(r4: np.ndarray, g: np.ndarray, support: int, x: np.ndarray,
                 c: np.ndarray, max_iter: int = _POLISH_MAX_ITER) -> float:
    """Alternating exact maximization of |K(span(x, c))|; returns the max found."""
    n = g.shape[0]
    best = float(_abs_sectional_batch(r4, x[None], c[None])[0])
    for _ in range(max_iter):
        bx = _subspace_basis(g, support, [c])
        if bx.shape[1]:
            qc = np.einsum("ijkl,j,l->ik", r4, c, c, optimize=False)
            m = bx.T @ qc @ bx
            m = 0.5 * (m + m.T)
            vals, vecs = np.linalg.eigh(m)
            i = int(np.argmax(np.abs(vals)))
            x = bx @ vecs[:, i]
        bc = _subspace_basis(g, n, [x])
        if not bc.shape[1]:
            break
        qx = np.einsum("ijkl,i,k->jl", r4, x, x, optimize=False)
        m = bc.T @ qx @ bc
        m = 0.5 * (m + m.T)
        vals, vecs = np.linalg.eigh(m)
        j = int(np.argmax(np.abs(vals)))
        c = bc @ vecs[:, j]
        val = abs(float(vals[j]))
        if abs(val - best) <= 1e-14 * max(1.0, abs(val)) and val >= best:
            return val
        best = max(best, val)
    return best


def sup_abs_sectional(r4: np.ndarray, g: np.ndarray, horizontal_dim: int,
                      gen: np.random.Generator, n_samples: int,
                      polish: int = _POLISH_COUNT) -> tuple:
    """Sampled-and-polished sup |K| over planes with one leg in the first
    `horizontal_dim` coordinates.  Returns (sup, argmax raw sample index)."""
    n = g.shape[0]
    if n < 2 or horizontal_dim < 1:
        return 0.0, -1
    x = _draw_unit(gen, n, horizontal_dim, g, n_samples)
    c = _draw_orthogonal_unit(gen, x, g, n_samples)
    k = _abs_sectional_batch(r4, x, c)
    order = np.argsort(k, kind="stable")
    best_index = int(order[-1])
    best = float(k[best_index])
    for a in order[-min(polish, n_samples):][::-1]:
        val = _polish_pair(r4, g, horizontal_dim, x[a].copy(), c[a].copy())
        best = max(best, val)
    return best, best_index


@dataclass(frozen=True, eq=False)
class PlaneSample:
    """Tangent 2-plane span(x, c) in split-frame coordinates at parameter t.

    x is horizontal and g^t-unit; c is g^t-unit and g^t-orthogonal to x,
    decomposed c = y + u into horizontal and vertical parts, so that
    g(y, y) + t·g(u, u) = 1 exactly (the unit-disk normalization).
    """

    x: np.ndarray
    c: np.ndarray
    y: np.ndarray
    u: np.ndarray
    t: float


def sample_plane(gen: np.random.Generator, n: int, t: float) -> PlaneSample:
    """One plane sample for an n-dim split frame (vertical direction last)."""
    g_t = np.eye(n)
    g_t[n - 1, n - 1] = t
    x = _draw_unit(gen, n, n - 1, g_t, 1)[0]
    c = _draw_orthogonal_unit(gen, x[None], g_t, 1)[0]
    y = c.copy()
    y[n - 1] = 0.0
    u = np.zeros(n)
    u[n - 1] = c[n - 1]
    return PlaneSample(x=x, c=c, y=y, u=u, t=float(t))


class SubmersionContext:
    """Precomputed frame data shared by decomposition checks and scans."""

    def __init__(self, algebra: NilAlgebra, metric: LeftInvariantMetric,
                 split: SubmersionSplit):
        self.algebra = algebra
        self.metric = metric
        self.split = split
        self.c_hat = frame_structure(algebra, split)
        self.c_ambient = structure_array(algebra)
        self.tensors: OneillTensors = _oneill_from_frame(
            self.c_hat, frame_metric(metric.matrix, split), split, 1.0)
        _, _, self.r_base = _base_from_frame(self.c_hat, split.horizontal_dim)
        self._frame_r: dict = {}
        self._ambient: dict = {}

    @property
    def dim(self) -> int:
        return self.split.dim

    def frame_metric_at(self, t: float) -> np.ndarray:
        g = np.eye(self.dim)
        g[self.dim - 1, self.dim - 1] = t
        return g

    def frame_curvature(self, t: float) -> np.ndarray:
        t = float(t)
        if t not in self._frame_r:
            self._frame_r[t] = curvature_from_structure(
                self.c_hat, self.frame_metric_at(t))
        return self._frame_r[t]

    def ambient_at(self, t: float) -> tuple:
        """(G^t matrix, curvature of G^t) in ambient coordinates."""
        t = float(t)
        if t not in self._ambient:
            g = self.metric.matrix
            z = self.split.z
            gz = g @ z
            gt = g + (t - 1.0) * np.outer(gz, gz) / float(z @ gz)
            self._ambient[t] = (gt, curvature_from_structure(self.c_ambient, gt))
        return self._ambient[t]


def _r4_value(r4: np.ndarray, a, b, c, d) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", r4, a, b, c, d, optimize=False))


def decomposition_check(algebra: NilAlgebra, metric: LeftInvariantMetric,
                        split: SubmersionSplit, t: float, sample: PlaneSample,
                        context: Optional[SubmersionContext] = None) -> float:
    """Max absolute defect across the four curvature-decomposition identities.

    With A, DA the O'Neill tensors of the base metric g and R^t, Ř the
    curvature tensors of g^t and of the base:

      (i)   Ř(Y,X,Y,X) − R^t(Y,X,Y,X) = 3t·g(A_Y X, A_Y X)
      (ii)  R^t(Y,X,U,X) = −t·g((D_X A)_Y X, U)
      (iii) R^t(U,X,U,X) = t²·g(A_X U, A_X U)
      (iv)  K^t(span(X,C)) computed directly from the ambient metric G^t
            equals Ř(Y,X,Y,X) − 3t·g(A_YX,A_YX) − 2t·g((D_XA)_YX,U)
            + t²·g(A_XU,A_XU).
    """
    ctx = context if context is not None else SubmersionContext(algebra, metric, split)
    m = split.horizontal_dim
    x, c, y, u = sample.x, sample.c, sample.y, sample.u
    a, da = ctx.tensors.a, ctx.tensors.da
    r_t = ctx.frame_curvature(t)

    a_yx = np.einsum("fep,f,e->p", a, y, x, optimize=False)
    a_xu = np.einsum("fep,f,e->p", a, x, u, optimize=False)
    da_xyx = np.einsum("efhp,e,f,h->p", da, x, y, x, optimize=False)

    r_base_yxyx = _r4_value(ctx.r_base, y[:m], x[:m], y[:m], x[:m])
    term_a = 3.0 * t * float(a_yx @ a_yx)
    term_da = -t * float(da_xyx @ u)
    term_vert = t * t * float(a_xu @ a_xu)

    defect_i = abs((r_base_yxyx - _r4_value(r_t, y, x, y, x)) - term_a)
    defect_ii = abs(_r4_value(r_t, y, x, u, x) - term_da)
    defect_iii = abs(_r4_value(r_t, u, x, u, x) - term_vert)

    assembled = r_base_yxyx - term_a + 2.0 * term_da + term_vert
    gt, r_ambient = ctx.ambient_at(t)
    x_amb = split.from_frame(x)
    c_amb = split.from_frame(c)
    direct = sectional_from_tensor(r_ambient, gt, x_amb, c_amb)
    defect_iv = abs(direct - assembled)

    return max(defect_i, defect_ii, defect_iii, defect_iv)


@dataclass(frozen=True)
class DecayReport:
    """Scan result: sampled sup|K^t| per t against the explicit bound."""

    t_grid: tuple
    sup_abs_K: tuple
    base_sup_K: float
    C: float
    exponent_fit: Optional[float]
    diam_bound: tuple
    sample_count: int
    seed: int

    @property
    def bounds(self) -> tuple:
        return tuple(self.base_sup_K + self.C * math.sqrt(t) for t in self.t_grid)


def _tensor_sup(values: np.ndarray) -> float:
    return float(np.max(np.sqrt(np.einsum("ap,ap->a", values, values, optimize=False))))


def _oneill_norms(tensors: OneillTensors, m: int, n: int, seed: int,
                  n_samples: int) -> tuple:
    """Sampled sup norms of A and DA over unit arguments, ×2 safety factor."""
    eye = np.eye(n)
    gen_a = spawn_generator(seed, _STREAM_NORM_A)
    xs = _draw_unit(gen_a, n, m, eye, n_samples)
    es = _draw_unit(gen_a, n, n, eye, n_samples)
    a_vals = np.einsum("fep,af,ae->ap", tensors.a, xs, es, optimize=False)
    a_norm = 2.0 * _tensor_sup(a_vals)

    gen_da = spawn_generator(seed, _STREAM_NORM_DA)
    e1 = _draw_unit(gen_da, n, n, eye, n_samples)
    e2 = _draw_unit(gen_da, n, n, eye, n_samples)
    e3 = _draw_unit(gen_da, n, n, eye, n_samples)
    da_vals = np.einsum("efhp,ae,af,ah->ap", tensors.da, e1, e2, e3, optimize=False)
    da_norm = 2.0 * _tensor_sup(da_vals)
    return a_norm, da_norm


def lemma_scan(algebra: NilAlgebra, metric: LeftInvariantMetric,
               split: SubmersionSplit, t_grid: Sequence[float], n_samples: int,
               seed: int) -> DecayReport:
    """Scan sup|K^t| over a descending t grid and assert it stays below
    sup|Ǩ| + C√t with C := 3‖A‖² + 2‖DA‖ + ‖A‖² (valid for t ≤ 1)."""
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0.0 for t in ts):
        raise ValueError("t grid must be nonempty and positive")
    if any(b > a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be descending")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    ctx = SubmersionContext(algebra, metric, split)
    n = ctx.dim
    m = split.horizontal_dim

    base_gen = spawn_generator(seed, _STREAM_BASE)
    base_sup, _ = sup_abs_sectional(ctx.r_base, np.eye(m), m, base_gen, n_samples)

    a_norm, da_norm = _oneill_norms(ctx.tensors, m, n, seed, n_samples)
    c_const = 3.0 * a_norm ** 2 + 2.0 * da_norm + a_norm ** 2

    fiber_len = math.sqrt(float(split.z @ metric.matrix @ split.z))

    sups = []
    diams = []
    for idx, t in enumerate(ts):
        gen = spawn_generator(seed, _STREAM_GRID, idx)
        r_t = ctx.frame_curvature(t)
        sup_t, raw_index = sup_abs_sectional(r_t, ctx.frame_metric_at(t), m,
                                             gen, n_samples)
        bound = base_sup + c_const * math.sqrt(t)
        if sup_t > bound:
            raise BoundViolated(
                f"sampled sup|K^t| = {sup_t!r} exceeds bound {bound!r} at "
                f"t = {t!r} (witness near sample {raw_index})",
                t=t, sample_index=raw_index, value=sup_t, bound=bound)
        sups.append(sup_t)
        diams.append(0.5 * fiber_len * math.sqrt(t))

    exponent = _fit_exponent(ts, sups, base_sup)
    return DecayReport(t_grid=tuple(ts), sup_abs_K=tuple(sups),
                       base_sup_K=base_sup, C=c_const, exponent_fit=exponent,
                       diam_bound=tuple(diams), sample_count=int(n_samples),
                       seed=int(seed))


def _fit_exponent(ts: Sequence[float], sups: Sequence[float],
                  base_sup: float) -> Optional[float]:
    """Least-squares slope of log(sup|K^t| − sup|Ǩ|) against log t.

    The excess over the base sup is what decays (the sup itself saturates at
    sup|Ǩ| on curved bases); points with nonpositive excess are excluded.
    """
    xs, ys = [], []
    for t, s in zip(ts, sups):
        excess = s - base_sup
        if excess > 0.0:
            xs.append(math.log(t))
            ys.append(math.log(excess))
    if len(xs) < 2:
        return None
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(slope)


def diameter_bound(fiber_lengths: Sequence[float], ts: Sequence[float],
                   base: float = 0.0) -> float:
    """Recursive tower diameter bound: base + Σ ½·ℓ_i·√(t_i).

    ℓ_i is the unscaled fiber circle length at level i and t_i its collapse
    parameter; the point at the bottom contributes 0.
    """
    if len(fiber_lengths) != len(ts):
        raise DimensionMismatch(
            f"{len(fiber_lengths)} fiber lengths vs {len(ts)} collapse parameters")
    total = float(base)
    for ell, t in zip(fiber_lengths, ts):
        if t <= 0.0:
            raise ValueError(f"collapse parameter must be positive, got {t}")
        total += 0.5 * float(ell) * math.sqrt(float(t))
    return total


def report_csv(report: DecayReport) -> str:
    """CSV with columns t, sup_abs_K, base_sup_K, bound, diam_bound."""
    lines = ["t,sup_abs_K,base_sup_K,bound,diam_bound"]
    for t, sup, bound, diam in zip(report.t_grid, report.sup_abs_K,
                                   report.bounds, report.diam_bound):
        lines.append(f"{t!r},{sup!r},{report.base_sup_K!r},{bound!r},{diam!r}")
    return "\n".join(lines) + "\n"


def report_summary(report: DecayReport) -> dict:
    """JSON-ready scan summary."""
    return {
        "C": report.C,
        "exponent_fit": report.exponent_fit,
        "sample_count": report.sample_count,
        "seed": report.seed,
    }
