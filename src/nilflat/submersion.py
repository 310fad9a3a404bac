"""Riemannian submersion data for a central circle direction.

Collapsing a central direction z of a nilpotent algebra defines a Riemannian
submersion onto the quotient algebra.  This module builds:

  * SubmersionSplit — a G-orthonormal frame adapted to the splitting
    (horizontal vectors first, the normalized vertical direction last);
  * the canonical variation G^t, which rescales the vertical direction by t
    while keeping the horizontal distribution and base metric fixed;
  * the structure constants of the bracket in the split frame.

Frame convention: a split frame has the horizontal vectors first and the
vertical direction last; in it G^t is diag(1, …, 1, t), so its curvature is
`metric.rescaled_curvature` of the frame structure constants at weights
√(1, …, 1, t), and that of the base the horizontal block at weights 1.
`canonical_variation`, G^t in the original coordinates, is its independent
oracle.  The split frame is orthonormal for G, so the O'Neill tensors A and
DA of the submersion are read off the Koszul connection of those structure
constants (`scan.lemma_scan`'s constant C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import NilAlgebra
from .errors import DimensionMismatch, NotPositiveDefinite
from .metric import TOL_GRAM, LeftInvariantMetric, structure_array


@dataclass(frozen=True, eq=False)
class SubmersionSplit:
    """G-orthonormal frame adapted to a central direction z.

    ``frame`` has the frame vectors as columns: columns 0..m-1 span the
    horizontal distribution (the G-orthogonal complement of z) and column m
    is z normalized to unit G-length.  By construction frameᵀ G frame = I.
    """

    z: np.ndarray
    frame: np.ndarray
    metric: LeftInvariantMetric

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def horizontal_dim(self) -> int:
        return self.dim - 1


def _unit_vertical(metric: LeftInvariantMetric, z: Sequence[float]) -> tuple:
    """(z, u): z as a float64 vector and u = z/|z|_G, after checking that z
    has the metric's dimension, is finite and has a length that does not
    vanish relative to G's scale."""
    g = metric.matrix
    n = metric.dim
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({n},)")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"central direction must be finite, got {z.tolist()}")
    znorm2 = float(z @ g @ z)
    if znorm2 <= TOL_GRAM * float(z @ z) * float(np.max(np.diag(g))):
        raise NotPositiveDefinite("central direction has vanishing length")
    return z, z / np.sqrt(znorm2)


def build_split(metric: LeftInvariantMetric, z: Sequence[float]) -> SubmersionSplit:
    """G-orthonormalized frame with the unit vertical direction last.

    The horizontal frame comes from G-Gram-Schmidt applied to the standard
    basis vectors with their vertical components projected out; the basis
    vector most parallel to z is dropped.  Both length tests are relative to
    G's scale, so a valid metric of any scale is accepted.  The procedure is
    deterministic.
    """
    g = metric.matrix
    n = metric.dim
    z, u = _unit_vertical(metric, z)
    columns = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        v = v - (v @ g @ u) * u
        for h in columns:
            v = v - (v @ g @ h) * h
        norm2 = float(v @ g @ v)
        if norm2 > 1e-10 * g[i, i]:
            columns.append(v / np.sqrt(norm2))
    if len(columns) != n - 1:
        raise DimensionMismatch(
            f"failed to build horizontal frame: got {len(columns)} of {n - 1}")
    frame = np.stack(columns + [u], axis=1)
    return SubmersionSplit(z=np.array(z), frame=frame, metric=metric)


def canonical_variation(metric: LeftInvariantMetric, z: Sequence[float],
                        t: float) -> LeftInvariantMetric:
    """G^t = G + (t−1)·(Gz)(Gz)ᵀ/⟨z,z⟩ in the original coordinates; 0 < t < ∞."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"canonical variation requires 0 < t < inf, got {t}")
    gu = metric.matrix @ _unit_vertical(metric, z)[1]
    return LeftInvariantMetric(matrix=metric.matrix + (t - 1.0) * np.outer(gu, gu))


def split_diagonal(n: int, t: float) -> np.ndarray:
    """Diagonal (1, …, 1, t) of G^t in an n-dimensional split frame."""
    d = np.ones(n)
    d[n - 1] = t
    return d


def frame_structure(algebra: NilAlgebra, split: SubmersionSplit) -> np.ndarray:
    """Structure constants of the bracket in split-frame coordinates."""
    f = split.frame
    return _structure_in_frame(structure_array(algebra), f, np.linalg.inv(f))


def _structure_in_frame(c: np.ndarray, f: np.ndarray,
                        f_inv: np.ndarray) -> np.ndarray:
    """Structure constants C in the frame whose vectors are the columns of f."""
    # [F_a, F_b] = Σ C[i,j,k] F_ia F_jb e_k and e_k has frame coordinates
    # F⁻¹[:, k]; one index at a time, each contraction is O(n⁴).
    c = np.einsum("ia,ijk->ajk", f, c, optimize=False)
    c = np.einsum("jb,ajk->abk", f, c, optimize=False)
    return np.einsum("abk,ck->abc", c, f_inv, optimize=False)
