"""Left-invariant metrics: Koszul connection, curvature, sectional curvature.

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
Koszul formula at g = I on ĉ (Milnor 1976).

All dense algebra uses np.einsum with optimize=False: contractions stay in
numpy's own deterministic loops, so results are byte-identical regardless of
BLAS threading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import NilAlgebra
from .errors import DegeneratePlane, DimensionMismatch, NotPositiveDefinite

TOL_IDENTITY = 1e-12   # connection/curvature identities
TOL_ORACLE = 1e-9      # agreement with independent oracles
TOL_INVARIANCE = 1e-10 # basis-invariance checks
TOL_GRAM = 1e-14       # degenerate-plane rejection threshold (relative)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class LeftInvariantMetric:
    """Symmetric positive-definite Gram matrix on the algebra basis."""

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
            try:
                np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite("metric matrix is not positive definite")
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


def connection_from_structure(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Koszul connection Γ[i,j,k] (∇_{e_i} e_j = Σ_k Γ[i,j,k] e_k)."""
    # B[i,j,l] = ⟨[e_i,e_j], e_l⟩
    b = np.einsum("ijk,kl->ijl", c, g, optimize=False)
    # 2⟨∇_i j, e_l⟩ = B[i,j,l] − B[j,l,i] + B[l,i,j]
    rhs = b - np.transpose(b, (2, 0, 1)) + np.transpose(b, (1, 2, 0))
    return 0.5 * np.einsum("ijl,lk->ijk", rhs, np.linalg.inv(g), optimize=False)


def curvature_from_structure(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Curvature R4[i,j,k,l] = ⟨R(e_i,e_j)e_k, e_l⟩ (convention above)."""
    gamma = connection_from_structure(c, g)
    # ∇_{[e_i,e_j]} e_k
    term_bracket = np.einsum("ijp,pkm->ijkm", c, gamma, optimize=False)
    # ∇_{e_i} ∇_{e_j} e_k
    term_second = np.einsum("jkp,ipm->ijkm", gamma, gamma, optimize=False)
    rm = term_bracket - term_second + np.transpose(term_second, (1, 0, 2, 3))
    return np.einsum("ijkm,ml->ijkl", rm, g, optimize=False)


def _orthonormal_connection(c_hat: np.ndarray) -> np.ndarray:
    """Koszul connection Γ of an orthonormal frame (or of each in a stack)
    from its structure constants: Γ_ijk = ½(ĉ_ijk − ĉ_jki + ĉ_kij)."""
    return 0.5 * (c_hat - np.einsum("...jki->...ijk", c_hat)
                  + np.einsum("...kij->...ijk", c_hat))


def rescaled_curvature(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R̂ in the orthonormal frame whose vector a is frame vector a divided by
    w_a, from the frame's structure constants c and its vector lengths w; a
    stack of lengths (T, n) gives T tensors, each with its own call's bits.
    Koszul at g = I (`_orthonormal_connection`)."""
    c_hat = (c * w[..., None, None, :] / w[..., :, None, None]
             / w[..., None, :, None])
    gamma = _orthonormal_connection(c_hat)
    # ∇_{[e_i,e_j]} e_k − ∇_{e_i} ∇_{e_j} e_k + ∇_{e_j} ∇_{e_i} e_k
    second = np.einsum("...jkp,...ipm->...ijkm", gamma, gamma, optimize=False)
    return (np.einsum("...ijp,...pkm->...ijkm", c_hat, gamma, optimize=False)
            - second + np.swapaxes(second, -4, -3))


def connection_coeffs(algebra: NilAlgebra, metric: LeftInvariantMetric) -> np.ndarray:
    if metric.dim != algebra.dim:
        raise DimensionMismatch(
            f"metric dim {metric.dim} does not match algebra dim {algebra.dim}")
    return connection_from_structure(structure_array(algebra), metric.matrix)


def curvature_tensor(algebra: NilAlgebra, metric: LeftInvariantMetric) -> np.ndarray:
    if metric.dim != algebra.dim:
        raise DimensionMismatch(
            f"metric dim {metric.dim} does not match algebra dim {algebra.dim}")
    return curvature_from_structure(structure_array(algebra), metric.matrix)


def sectional_from_tensor(r4: np.ndarray, g: np.ndarray,
                          v: np.ndarray, w: np.ndarray) -> float:
    """K of span(v, w) given a precomputed curvature tensor; the plane is
    degenerate when its Gram determinant is at most TOL_GRAM·|v|²|w|²."""
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    gv, gw = g @ v, g @ w
    vv, ww = v @ gv, w @ gw
    gram = vv * ww - (v @ gw) ** 2
    if gram <= TOL_GRAM * vv * ww:
        raise DegeneratePlane(f"plane Gram determinant {gram:.3e} below tolerance")
    num = np.einsum("ijkl,i,j,k,l->", r4, v, w, v, w, optimize=False)
    return float(num / gram)


def sectional_curvature(algebra: NilAlgebra, metric: LeftInvariantMetric,
                        v: Sequence[float], w: Sequence[float]) -> float:
    """K(span(v,w)) = ⟨R(v,w)v,w⟩ / (|v|²|w|² − ⟨v,w⟩²)."""
    r4 = curvature_tensor(algebra, metric)
    return sectional_from_tensor(r4, metric.matrix,
                                 np.asarray(v, dtype=np.float64),
                                 np.asarray(w, dtype=np.float64))
