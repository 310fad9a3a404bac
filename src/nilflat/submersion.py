"""The split of a metric along a central circle direction.

Collapsing a central direction z of a nilpotent algebra defines a Riemannian
submersion onto the quotient algebra.  This module holds only its frame:
`build_split` makes a `SubmersionSplit`, a G-orthonormal frame with the
horizontal vectors (the G-orthogonal complement of z) first and the
normalized vertical direction last.

In a split frame G^t is diag(1, …, 1, t), so `scan.lemma_scan` changes the
structure constants to it once (`metric._structure_in_frame`) and reads the
curvature of g^t at weights √(1, …, 1, t), that of the base at weights 1 and
the O'Neill constant C off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .metric import LeftInvariantMetric

TOL_GRAM = 1e-14  # a G-length² of z at most this, relative to G's scale, vanishes


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


def build_split(metric: LeftInvariantMetric, z: Sequence[float]) -> SubmersionSplit:
    """G-orthonormalized frame with the unit vertical direction last.

    The horizontal frame is G-Gram-Schmidt of the standard basis vectors with
    their vertical components projected out, in order, without the one most
    parallel to z in G (the greatest ⟨e_i, z⟩_G²/|e_i|_G², the first on a
    tie): with z the other n − 1 span the space, so none is dropped for a
    short residual.  The procedure is deterministic.  z must have the
    metric's dimension, be finite and have a G-length that does not vanish
    relative to G's scale, so a valid metric of any scale is accepted.
    """
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
    u = z / np.sqrt(znorm2)
    gu = g @ u
    dropped = int(np.argmax(gu * gu / np.diag(g)))
    columns = []
    for i in range(n):
        if i == dropped:
            continue
        v = np.zeros(n)
        v[i] = 1.0
        v = v - (v @ g @ u) * u
        for h in columns:
            v = v - (v @ g @ h) * h
        norm2 = float(v @ g @ v)
        if not norm2 > 0.0:
            raise NotPositiveDefinite(
                "metric is singular to working precision: no horizontal frame")
        columns.append(v / np.sqrt(norm2))
    frame = np.stack(columns + [u], axis=1)
    return SubmersionSplit(z=np.array(z), frame=frame, metric=metric)
