"""The split of a metric along e_n, the top circle of an adapted basis.

Collapsing the central direction e_n defines a Riemannian submersion onto
the quotient algebra.  `build_split` makes a `SubmersionSplit`, the
metric's one orthonormal frame (`metric._orthonormal_frame`): horizontal
vectors (the G-orthogonal complement of e_n) first and e_n normalized last.
It has no tolerance or failure of its own.  To collapse another central
direction, permute the basis of the input so that it comes last.

`scan.lemma_scan` checks that a split belongs to its metric and reads the
same frame off the metric itself, where G^t is diag(1, …, 1, t); `frame`
is kept for callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .metric import LeftInvariantMetric, _orthonormal_frame


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
    """The split frame along z, which must be e_n: the metric's one frame
    P·R⁻ᵀ·P of `metric._orthonormal_frame`, lower-triangular and
    G-orthonormal, so its last column is e_n/√G_nn.  At G = I it is the
    identity."""
    n = metric.dim
    z = np.asarray(z, dtype=np.float64)
    if n == 0 or z.shape != (n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({n},) with n >= 1")
    if not np.array_equal(z, np.eye(n)[n - 1]):
        raise ValueError(f"a split is along e{n} only, got z = {z.tolist()}; "
                         "put a central direction last by permuting the basis")
    return SubmersionSplit(frame=_orthonormal_frame(metric.matrix)[0],
                           metric=metric)
