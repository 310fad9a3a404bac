"""The split of a metric along e_n, the top circle of an adapted basis.

Collapsing the central direction e_n defines a Riemannian submersion onto
the quotient algebra.  This module holds only its frame: `build_split` makes
a `SubmersionSplit`, a G-orthonormal frame with the horizontal vectors (the
G-orthogonal complement of e_n) first and e_n normalized last, from the
factor that also gates the metric, so the split has no tolerance or failure
of its own.  To collapse another central direction, permute the basis of
the input so that it comes last.

In a split frame G^t is diag(1, …, 1, t), so `scan.lemma_scan` changes the
structure constants to it once (`metric._structure_in_frame`) and reads the
curvature of g^t at weights √(1, …, 1, t), that of the base at weights 1 and
the O'Neill constant C off them.  The split enters only there: the sup
search of `scan` runs over all planes of a curvature tensor and reads no
horizontal space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .metric import LeftInvariantMetric, _reversed_cholesky


@dataclass(frozen=True, eq=False)
class SubmersionSplit:
    """G-orthonormal frame of `metric` adapted to the top direction e_n.

    ``frame`` has the frame vectors as columns and is lower-triangular: the
    first n − 1 columns span the horizontal distribution (the G-orthogonal
    complement of e_n) and the last is e_n/√G_nn.  frameᵀ G frame = I to
    rounding.
    """

    frame: np.ndarray
    metric: LeftInvariantMetric

    @property
    def dim(self) -> int:
        return self.frame.shape[0]


def build_split(metric: LeftInvariantMetric, z: Sequence[float]) -> SubmersionSplit:
    """The split frame along z, which must be e_n: with P the reversal of the
    basis order and P·G·P = R·Rᵀ (`metric._reversed_cholesky`), the frame
    P·R⁻ᵀ·P, lower-triangular and G-orthonormal, so its last column is
    e_n/√G_nn.  At G = I it is the identity."""
    n = metric.dim
    z = np.asarray(z, dtype=np.float64)
    if n == 0 or z.shape != (n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({n},) with n >= 1")
    if not np.array_equal(z, np.eye(n)[n - 1]):
        raise ValueError(f"a split is along e{n} only, got z = {z.tolist()}; "
                         "put a central direction last by permuting the basis")
    # R⁻¹ is lower-triangular; tril drops what the pivoting of inv leaves
    # above the diagonal
    frame = np.tril(np.linalg.inv(_reversed_cholesky(metric.matrix))).T[::-1, ::-1]
    return SubmersionSplit(frame=frame, metric=metric)
