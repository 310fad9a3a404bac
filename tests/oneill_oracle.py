"""Test-side O'Neill oracle for the collapse of a central circle direction.

`scan.lemma_scan` reads its constant C = 4‖A‖_F² + 2‖DA‖_F off the Koszul
connection of the orthonormal split frame.  This module keeps the general
construction as an independent check, imported by the tests the way the
`conftest` helpers are:

  * the O'Neill invariants A, T and the covariant derivative DA of A for an
    ambient metric of any Gram in the split frame, through the full Koszul
    formula, written here (`oneill_from_frame`) and not taken from the
    package;
  * the four curvature-decomposition identities (i)–(iv) of O'Neill (1966)
    at one plane of g^t, the fourth against Milnor's formula
    (`conftest.milnor_sectional`) at the G^t of `canonical_variation` in the
    original coordinates;
  * the metric g^t itself, built here and not taken from the package: in the
    split frame (`split_diagonal`) and in the original coordinates
    (`canonical_variation`), and the split-frame structure constants
    (`frame_structure`).

Because the split direction e_n is central and the metric is
left-invariant, the fibers are totally geodesic (T ≡ 0); the tests verify
that numerically rather than assume it.
"""

import math
from dataclasses import dataclass

import numpy as np

from nilflat import scan
from nilflat.errors import DimensionMismatch
from nilflat.metric import (LeftInvariantMetric, _structure_in_frame,
                            rescaled_curvature, structure_array)
from conftest import milnor_sectional

TOL_PLANE = 1e-14  # relative Gram determinant of a degenerate plane


def split_diagonal(n, t):
    """Diagonal (1, …, 1, t) of G^t in an n-dimensional split frame."""
    d = np.ones(n)
    d[n - 1] = t
    return d


def canonical_variation(metric, z, t):
    """G^t = G + (t−1)·(Gu)(Gu)ᵀ in the original coordinates, u = z/|z|_G;
    0 < t < ∞."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"canonical variation requires 0 < t < inf, got {t}")
    z = np.asarray(z, dtype=np.float64)
    gu = metric.matrix @ (z / np.sqrt(float(z @ metric.matrix @ z)))
    return LeftInvariantMetric(matrix=metric.matrix + (t - 1.0) * np.outer(gu, gu))


def frame_structure(algebra, split):
    """Structure constants of the bracket in split-frame coordinates."""
    f = split.frame
    return _structure_in_frame(structure_array(algebra), f, np.linalg.inv(f))


def to_frame(split, v):
    """Coordinates of an ambient vector in the split frame."""
    return np.linalg.solve(split.frame, np.asarray(v, dtype=np.float64))


def from_frame(split, v):
    """The ambient vector of split-frame coordinates v."""
    return split.frame @ np.asarray(v, dtype=np.float64)


def frame_metric(matrix, split):
    """Gram matrix of an ambient metric in split-frame coordinates."""
    f = split.frame
    return f.T @ matrix @ f


@dataclass(frozen=True, eq=False)
class OneillTensors:
    """O'Neill invariants in split-frame coordinates.

    ``a`` and ``t_tensor`` are (n,n,n): a[x, e, :] are the frame components
    of A_X E (first slot of A restricted to horizontal directions, of T to
    vertical ones).  ``da`` is (n,n,n,n): da[e, x, y, :] = (D_E A)_X Y, the
    covariant derivative of A as a (1,2)-tensor for the same metric.
    """

    a: np.ndarray
    t_tensor: np.ndarray
    da: np.ndarray


def oneill_tensors(algebra, metric, split):
    """A, T and DA of the submersion for the given ambient metric.

    ``metric`` is the ambient metric (e.g. G or G^t); tensors are returned
    in the split frame of G.  Slots of A and T follow O'Neill:

        A_X E = H ∇_{HX} (VE) + V ∇_{HX} (HE)
        T_U E = H ∇_{VU} (VE) + V ∇_{VU} (HE)
    """
    if metric.dim != algebra.dim:
        raise DimensionMismatch(
            f"metric dim {metric.dim} does not match algebra dim {algebra.dim}")
    return oneill_from_frame(frame_structure(algebra, split),
                             frame_metric(metric.matrix, split))


def oneill_from_frame(c_hat, g_hat):
    """`oneill_tensors` from frame structure constants and a frame Gram."""
    n = c_hat.shape[0]
    m = n - 1
    # Koszul: ⟨∇_{e_i} e_j, e_k⟩ = ½(b_ijk − b_jki + b_kij) on b_ijk =
    # ⟨[e_i, e_j], e_k⟩, with the last index raised by g⁻¹
    b = np.einsum("ijk,kl->ijl", c_hat, g_hat, optimize=False)
    lowered = 0.5 * (b - np.einsum("jki->ijk", b) + np.einsum("kij->ijk", b))
    gamma = np.einsum("ijl,lk->ijk", lowered, np.linalg.inv(g_hat), optimize=False)

    # With the vertical direction last, H keeps components :m and V keeps m;
    # the first slot picks A (horizontal) or T (vertical), and the second
    # slot decides which projection of ∇ lands there.
    a = np.zeros((n, n, n))
    a[:m, :m, m] = gamma[:m, :m, m]
    a[:m, m, :m] = gamma[:m, m, :m]
    t_tensor = np.zeros((n, n, n))
    t_tensor[m, :m, m] = gamma[m, :m, m]
    t_tensor[m, m, :m] = gamma[m, m, :m]

    # (D_E A)_X Y = ∇_E (A_X Y) − A_{∇_E X} Y − A_X (∇_E Y), with the frame
    # fields left-invariant so ∇_E applied to a constant-component field is
    # contraction with Γ.
    da = (np.einsum("xym,epm->exyp", a, gamma, optimize=False)
          - np.einsum("exm,myp->exyp", gamma, a, optimize=False)
          - np.einsum("eym,xmp->exyp", gamma, a, optimize=False))
    return OneillTensors(a=a, t_tensor=t_tensor, da=da)


def oneill_constant(tensors):
    """C = 4‖A‖_F² + 2‖DA‖_F from the tensors of an orthonormal frame."""
    a2 = float(np.einsum("fep,fep->", tensors.a, tensors.a, optimize=False))
    da2 = float(np.einsum("efhp,efhp->", tensors.da, tensors.da, optimize=False))
    return 4.0 * a2 + 2.0 * math.sqrt(da2)


class SubmersionContext:
    """Frame data of one split, shared by decomposition checks.  The split is
    checked as `lemma_scan` checks it: the algebra's, built from this metric,
    split along e_n, which must be central."""

    def __init__(self, algebra, metric, split):
        scan._central_structure(algebra, metric, split)
        self.algebra = algebra
        self.metric = metric
        self.split = split
        self.c_hat = frame_structure(algebra, split)
        self.tensors = oneill_from_frame(self.c_hat, np.eye(split.dim))
        m = split.dim - 1
        self.r_base = rescaled_curvature(self.c_hat[:m, :m, :m], np.ones(m))

    @property
    def dim(self):
        return self.split.dim

    def frame_curvature(self, t):
        """R̂ of g^t in its orthonormal frame."""
        return rescaled_curvature(self.c_hat, np.sqrt(split_diagonal(self.dim, t)))

    def ambient_sectional(self, t, x, c):
        """K of the plane span(x, c), given in split-frame coordinates, for
        G^t in the original coordinates, by Milnor's formula."""
        gt = canonical_variation(self.metric, np.eye(self.dim)[self.dim - 1], t).matrix
        return milnor_sectional(self.algebra, gt, from_frame(self.split, x),
                                from_frame(self.split, c))


def r4_value(r4, a, b, c, d):
    return float(np.einsum("ijkl,i,j,k,l->", r4, a, b, c, d, optimize=False))


def decomposition_check(context, t, x, c):
    """Max absolute defect across the four curvature-decomposition identities
    at the plane span(x, c) of g^t, given in the split frame of `context`.

    0 < t < ∞ and x must be horizontal (vertical coordinate zero), else
    ValueError.  The legs are made g^t-orthonormal here, so c = y + u, its
    horizontal and vertical parts, has g(y, y) + t·g(u, u) = 1.  A pair
    whose g^t Gram determinant is at most TOL_PLANE·|x|²|c|² raises
    ValueError, legs of another length DimensionMismatch.

    With A, DA the O'Neill tensors of the base metric g and R^t, Ř the
    curvature tensors of g^t and of the base:

      (i)   Ř(Y,X,Y,X) − R^t(Y,X,Y,X) = 3t·g(A_Y X, A_Y X)
      (ii)  R^t(Y,X,U,X) = −t·g((D_X A)_Y X, U)
      (iii) R^t(U,X,U,X) = t²·g(A_X U, A_X U)
      (iv)  K^t(span(X,C)) by Milnor's formula at the ambient metric G^t
            equals Ř(Y,X,Y,X) − 3t·g(A_YX,A_YX) − 2t·g((D_XA)_YX,U)
            + t²·g(A_XU,A_XU).
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"decomposition check requires 0 < t < inf, got {t}")
    split = context.split
    n = split.dim
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.shape != (n,) or c.shape != (n,):
        raise DimensionMismatch(
            f"legs of shape {x.shape} and {c.shape}, expected ({n},)")
    if x[n - 1] != 0.0:
        raise ValueError(f"x must be horizontal, got vertical coordinate {x[n - 1]!r}")
    d = split_diagonal(n, t)
    xx, cc, xc = x @ (d * x), c @ (d * c), x @ (d * c)
    gram = xx * cc - xc * xc
    if not gram > TOL_PLANE * xx * cc:
        raise ValueError(f"plane Gram determinant {gram:.3e} below tolerance")
    c = c - (xc / xx) * x
    x = x / math.sqrt(xx)
    c = c / math.sqrt(c @ (d * c))
    y = c.copy()
    y[n - 1] = 0.0
    u = c - y
    m = n - 1
    a, da = context.tensors.a, context.tensors.da
    r_t = context.frame_curvature(t)
    xs, ys, us = np.sqrt(d) * [x, y, u]  # to R̂'s frame

    a_yx = np.einsum("fep,f,e->p", a, y, x, optimize=False)
    a_xu = np.einsum("fep,f,e->p", a, x, u, optimize=False)
    da_xyx = np.einsum("efhp,e,f,h->p", da, x, y, x, optimize=False)

    r_base_yxyx = r4_value(context.r_base, y[:m], x[:m], y[:m], x[:m])
    term_a = 3.0 * t * float(a_yx @ a_yx)
    term_da = -t * float(da_xyx @ u)
    term_vert = t * t * float(a_xu @ a_xu)

    defect_i = abs((r_base_yxyx - r4_value(r_t, ys, xs, ys, xs)) - term_a)
    defect_ii = abs(r4_value(r_t, ys, xs, us, xs) - term_da)
    defect_iii = abs(r4_value(r_t, us, xs, us, xs) - term_vert)

    assembled = r_base_yxyx - term_a + 2.0 * term_da + term_vert
    defect_iv = abs(context.ambient_sectional(t, x, c) - assembled)

    return max(defect_i, defect_ii, defect_iii, defect_iv)
