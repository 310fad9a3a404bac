"""Left-invariant metrics and their curvature in an orthonormal frame.

Everything is evaluated at the identity in a left-invariant frame, where the
geometry of a left-invariant metric is encoded by the structure constants
C[i,j,k] ([e_i, e_j] = Σ_k C[i,j,k] e_k) and the Gram matrix G:

    Koszul   2⟨∇_X Y, Z⟩ = ⟨[X,Y],Z⟩ − ⟨[Y,Z],X⟩ + ⟨[Z,X],Y⟩
    R(X,Y)Z  = ∇_{[X,Y]}Z − ∇_X ∇_Y Z + ∇_Y ∇_X Z
    K(v,w)   = ⟨R(v,w)v, w⟩ / (|v|²|w|² − ⟨v,w⟩²)

The curvature sign convention is fixed so the Heisenberg metric G = I has
K(e1,e2) = −3/4 and K(e1,e3) = +1/4.

`rescaled_curvature` is the one constructor of R̂, curvature in an orthonormal
frame: a frame of orthogonal vectors F_a of lengths w_a gives the orthonormal
frame F_a / w_a, with structure constants ĉ = c·w_c / (w_a·w_b), and R̂ is the
Koszul formula at g = I on ĉ (Milnor 1976).  A metric of any other Gram is
read in its one G-orthonormal frame first (`_orthonormal_frame`, which the
scan and every certify level read): the package computes no curvature at a
general Gram.

Each formula is written once: the Koszul formula in `_orthonormal_connection`,
the curvature formula in `_curvature_from_connection`, and the change of
structure constants to a frame in `_structure_in_frame`.

All dense algebra uses np.einsum with optimize=False: contractions stay in
numpy's own deterministic loops, so results are byte-identical regardless of
BLAS threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NilAlgebra
from .errors import DimensionMismatch, NotPositiveDefinite

TOL_IDENTITY = 1e-12   # relative: metric symmetry


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _reversed_cholesky(g: np.ndarray) -> np.ndarray:
    """Lower-triangular R with P·G·P = R·Rᵀ, P the reversal of the basis
    order: the metric's one positive-definiteness gate and the factor of its
    orthonormal frame (`_orthonormal_frame`).  A pivot d_k = R_kk² at most
    n·ε·(PGP)_kk is rounding, so G is singular to working precision; each
    pivot is compared with its own diagonal entry, so rescaling the basis
    keeps a valid G valid."""
    reversed_g = g[::-1, ::-1]
    try:
        r = np.linalg.cholesky(reversed_g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("metric matrix is not positive definite")
    if np.any(np.diag(r) ** 2 <= len(g) * np.finfo(float).eps * np.diag(reversed_g)):
        raise NotPositiveDefinite("metric matrix is singular to working precision")
    return r


def _orthonormal_frame(g: np.ndarray) -> tuple:
    """(F, F⁻¹), the metric's one G-orthonormal frame: F = P·R⁻ᵀ·P and
    F⁻¹ = P·Rᵀ·P with P·G·P = R·Rᵀ (`_reversed_cholesky`), lower-triangular,
    so its leading k×k block is a G-orthonormal frame of the quotient metric
    on g/span(e_{k+1}, …, e_n) and its last column is e_n/√G_nn."""
    r = _reversed_cholesky(g)
    # tril drops what the pivoting of inv leaves above R⁻¹'s diagonal
    return np.tril(np.linalg.inv(r)).T[::-1, ::-1], r.T[::-1, ::-1]


@dataclass(frozen=True, eq=False)
class LeftInvariantMetric:
    """Symmetric positive-definite Gram matrix on the algebra basis: finite,
    symmetric to TOL_IDENTITY relative to its largest entry, and passed by
    the one positive-definiteness gate, `_reversed_cholesky`."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"metric must be square, got shape {m.shape}")
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            entries = ", ".join(f"G[{i + 1},{j + 1}] = {m[i, j]}" for i, j in bad)
            raise NotPositiveDefinite(f"metric matrix has non-finite entries: {entries}")
        if m.size and np.max(np.abs(m - m.T)) > TOL_IDENTITY * np.max(np.abs(m)):
            raise NotPositiveDefinite("metric matrix is not symmetric")
        sym = 0.5 * (m + m.T)
        if m.size:
            _reversed_cholesky(sym)
        object.__setattr__(self, "matrix", _as_readonly(sym))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def identity(n: int) -> "LeftInvariantMetric":
        return LeftInvariantMetric(matrix=np.eye(n))


def structure_array(algebra: NilAlgebra) -> np.ndarray:
    """Full antisymmetric structure tensor C[i,j,k] as float64."""
    n = algebra.dim
    c = np.zeros((n, n, n))
    for (i, j), entry in algebra.brackets.items():
        for k, coeff in entry.items():
            c[i, j, k] = float(coeff)
            c[j, i, k] = -float(coeff)
    return c


def _structure_in_frame(c: np.ndarray, f: np.ndarray,
                        f_inv: np.ndarray) -> np.ndarray:
    """Structure constants C in the frame whose vectors are the columns of f."""
    # [F_a, F_b] = Σ C[i,j,k] F_ia F_jb e_k and e_k has frame coordinates
    # F⁻¹[:, k]; one index at a time, each contraction is O(n⁴).
    c = np.einsum("ia,ijk->ajk", f, c, optimize=False)
    c = np.einsum("jb,ajk->abk", f, c, optimize=False)
    return np.einsum("abk,ck->abc", c, f_inv, optimize=False)


def _orthonormal_connection(b: np.ndarray) -> np.ndarray:
    """The Koszul formula ½(b_ijk − b_jki + b_kij) on b[i,j,k] =
    ⟨[e_i, e_j], e_k⟩ (or on each in a stack): ⟨∇_{e_i} e_j, e_k⟩.  In an
    orthonormal frame b is ĉ, and this is its connection Γ."""
    return 0.5 * (b - np.einsum("...jki->...ijk", b)
                  + np.einsum("...kij->...ijk", b))


def _curvature_from_connection(c: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """R(e_i, e_j)e_k = ∇_{[e_i,e_j]} e_k − ∇_{e_i} ∇_{e_j} e_k
    + ∇_{e_j} ∇_{e_i} e_k, with index [i,j,k,m] on e_m, from the structure
    constants c and the connection Γ (or from each pair in a stack)."""
    second = np.einsum("...jkp,...ipm->...ijkm", gamma, gamma, optimize=False)
    return (np.einsum("...ijp,...pkm->...ijkm", c, gamma, optimize=False)
            - second + np.swapaxes(second, -4, -3))


def rescaled_curvature(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R̂ in the orthonormal frame whose vector a is frame vector a divided by
    w_a, from the frame's structure constants c and its vector lengths w; a
    stack of lengths (T, n) gives T tensors, each with its own call's bits.
    Koszul at g = I: Γ = `_orthonormal_connection` of ĉ."""
    c_hat = (c * w[..., None, None, :] / w[..., :, None, None]
             / w[..., None, :, None])
    return _curvature_from_connection(c_hat, _orthonormal_connection(c_hat))
