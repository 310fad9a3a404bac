"""Verification of the collapse curvature bound sup|K^t| ≤ sup|Ǩ| + C√t.

The scan rescales the top fiber e_n of an adapted basis by t (it must be
central: no bracket [e_i, e_n] is stored), measures the sup of |sectional
curvature| over all tangent 2-planes, and checks it against the explicit
bound.  The sup search reads only R̂; a split holds only its metric.

Frame convention: a split frame has the vertical direction last, and g^t is
diag(1, …, 1, t) there; curvature tensors are R̂ in the orthonormal frame of
g^t that divides the vertical vector by √t: `metric.rescaled_curvature` at
weights √(1, …, 1, t).  The sup is searched in those orthonormal
coordinates.  `lemma_scan` reads everything off the split frame's structure
constants ĉ: the base tensor (the horizontal block at weights 1), the tensors
of the t grid (stacked, `_T_CHUNK` grid points per stack) and the constant C
(the O'Neill tensors A and DA, from the Koszul connection of ĉ).

Curvature operator and ceiling: R̂ is read as the curvature operator ℛ on
Λ², indexed by pairs p = (i, j), q = (k, l) with i < j, k < l (`_pairs`),
ℛ_pq = R̂_ijkl.  K(σ) is the Rayleigh quotient of ℛ at the unit bivector
σ = x ∧ c, σ_p = x_i c_j − x_j c_i (Milnor 1976), so the spectral radius ρ
of ℛ bounds every plane; it is attained exactly where the eigenspace of ρ
or −ρ holds a decomposable bivector.  `curvature_bound` gives ρ and its
rounding allowance δ (derived in `lemma_scan`), the bound ρ + δ that
`certify` gates on.

Sup search (`polished_sups` on a stack of tensors, one deterministic pass;
`polished_sup` on one tensor, with its certificate; both via `_search`,
which alone decides which members it solves): a tensor below dimension 2
or with no nonzero entry has sup 0.0, a non-finite one its non-finite
max|R̂|, without a solve.  For the others, one stacked eigh of the ℛ (read
off each tensor by one take through a flat index cached per n) gives each
ρ and two extreme eigenvectors; each, read as a skew n×n matrix B, gives
both legs of its best rank-2 plane (the top 2-eigenspace of BᵀB).  The four
legs per tensor are *polished*: alternate exact maximization over each leg,
each step the top eigenvector of the fixed leg v's form R̂(·, v, ·, v)
compressed onto v's orthocomplement, so |K| never decreases.  Each
half-sweep is one contraction of the live tensors over their legs and one
stacked eigh; a leg stops when its sweep moves |K| by no more than
rounding, a tensor once a leg reaches its ρ − δ, so each gets the bits of its
call.  No plane exceeds ρ + δ, so where ρ is attained the sup is within 2δ of
the true sup — the decay-exponent fit needs that, since the excess
sup|K^t| − sup|Ǩ| can sit many orders of magnitude below sup|Ǩ|.

Thorpe certificate (`polished_sup` only, its one caller; `polished_sups`
returns the sups alone, since neither `certify` nor the scan's t grid reads
a flag): where the legs stop below ρ − δ, the best of them,
σ = x ∧ c with value B and sign s of K, may still be the sup.  K is also
the Rayleigh quotient of sℛ + W_ω at decomposable σ for every 4-form ω,
since W_ω vanishes there (Thorpe 1971; one coefficient per 4-subset, placed
at its three disjoint pair-pairs), so λ_max(sℛ + W_ω) + δ_ω bounds sK for
every ω.  ω is the least-norm solution of the complementary slackness
(sℛ + W_ω)σ = Bσ, through the eigh of an m×m Gram matrix (m = n(n−1)/2).
If B reaches λ_max − δ_ω and the other sign's extreme eigenvalue of ℛ stays
below B − δ, B is certified as the sup.  Else (the relaxation is not exact
there, as on free 2-step algebras and h7 at G = I) B is still returned, as
the lower end of the bracket [B, ρ + δ]; it is not flagged as certified.

Determinism: nothing here draws a random number, every contraction is
einsum(optimize=False) (no BLAS matmul; the certificate's Gram matrix is a
np.bincount scatter sum, in input order) and every eigensolve a LAPACK eigh
(stacked, whose rows do not depend on the batch), so outputs are
byte-identical regardless of thread count and of how tensors are stacked,
and `polished_sup` has the bits of `polished_sups` on the same tensor.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .algebra import NilAlgebra
from .errors import BoundViolated, DimensionMismatch, _Record
from .metric import (
    LeftInvariantMetric,
    _orthonormal_connection,
    _structure_in_frame,
    rescaled_curvature,
    structure_array,
)
from .submersion import SubmersionSplit

_POLISH_MAX_ITER = 50
# Grid points per stacked curvature evaluation: a stack's memory grows as its
# length times n⁴, and no row depends on the stack it is in.
_T_CHUNK = 16

_EPS = float(np.finfo(np.float64).eps)
# Smallest t a scan accepts, the floor of the `--t-min` contract: t² is a
# normal float64 down to here.  No measurement divides by t or t².
T_MIN = math.sqrt(float(np.finfo(np.float64).tiny))


@functools.lru_cache(maxsize=64)
def _pairs(n: int) -> tuple:
    """(i, j): the pairs i < j of range(n) in lexicographic order, the index
    p of Λ² that every operator here uses (read-only arrays)."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=64)
def _operator_index(n: int) -> np.ndarray:
    """The flat index of R̂_ijkl in an n⁴ tensor at ℛ_pq, p = (i, j) and
    q = (k, l) pairs of `_pairs` (m×m, read-only)."""
    i, j = _pairs(n)
    pair = i * n + j
    index = pair[:, None] * (n * n) + pair
    index.flags.writeable = False
    return index


def _curvature_operator(r4: np.ndarray) -> np.ndarray:
    """ℛ, the curvature operator on Λ² of the orthonormal tensor r4 (or of
    each in a stack), ℛ_pq = R̂_ijkl for the pairs p = (i, j), q = (k, l)."""
    n = r4.shape[-1]
    return r4.reshape(r4.shape[:-4] + (n ** 4,)).take(_operator_index(n), axis=-1)


def _top_eigenpairs(q: np.ndarray, v: np.ndarray) -> tuple:
    """Per leading index, the eigenpair of largest |eigenvalue| of the
    symmetric form q (..., n, n) compressed by the projector I − v vᵀ onto
    the orthocomplement of the unit vector v (..., n)."""
    shape = v.shape
    q, v = q.reshape((-1,) + q.shape[-2:]), v.reshape(-1, shape[-1])
    q = q + q.swapaxes(1, 2)
    q *= 0.5
    qv = np.einsum("aij,aj->ai", q, v, optimize=False)
    vqv = np.einsum("ai,ai->a", v, qv, optimize=False)
    # q − v·qvᵀ − qv·vᵀ + vqv·(v·vᵀ), in place: the transposed view of v·qvᵀ
    # holds the products qv_i·v_j
    outer = v[:, :, None] * qv[:, None, :]
    q -= outer
    q -= outer.swapaxes(1, 2)
    outer = v[:, :, None] * v[:, None, :]
    outer *= vqv[:, None, None]
    q += outer
    vals, vecs = np.linalg.eigh(q)
    rows = np.arange(q.shape[0])
    top = np.abs(vals, out=vals).argmax(axis=1)
    return vals[rows, top].reshape(shape[:-1]), vecs[rows, :, top].reshape(shape)


def _rounding_allowance(n: int, r_max: float) -> float:
    """δ = 2n⁴·ε·r_max, the rounding allowance on a |K| (or ρ) of an n-dim
    orthonormal tensor with entries at most r_max (derived in `lemma_scan`)."""
    return 2.0 * n ** 4 * _EPS * r_max


def curvature_bound(r_hat: np.ndarray) -> tuple:
    """(ρ, δ): the spectral radius ρ of the curvature operator ℛ on Λ² of the
    orthonormal tensor r_hat and its rounding allowance δ, so that ρ + δ
    bounds |K| of every plane."""
    op = _curvature_operator(r_hat)
    eigenvalues = np.linalg.eigvalsh(0.5 * (op + op.T))
    rho = float(np.abs(eigenvalues).max(initial=0.0))
    return rho, _rounding_allowance(r_hat.shape[0],
                                    float(np.abs(r_hat).max(initial=0.0)))


def _eigenplane_seeds(sym: np.ndarray, n: int) -> tuple:
    """((λ_min, λ_max), legs) of a stack of T symmetric operators sym on Λ²:
    the extreme eigenvalues of each, and its four unit legs (T, 4, n): both
    legs of the best rank-2 plane of each extreme eigenvector.  An
    eigenvector read as the skew n×n matrix B has as its best plane the top
    2-eigenspace of BᵀB, B's own plane when B is decomposable; else its two
    legs can polish to different planes, so both are kept."""
    vals, vecs = np.linalg.eigh(sym)
    i, j = _pairs(n)
    b = np.zeros((sym.shape[0], 2, n, n))
    ends = vecs[:, :, [0, -1]].swapaxes(1, 2)
    b[:, :, i, j] = ends
    b[:, :, j, i] = -ends
    btb = np.einsum("taki,takj->taij", b, b, optimize=False)
    legs = np.linalg.eigh(btb)[1][..., -2:].swapaxes(-1, -2).reshape(-1, 4, n)
    return (vals[:, 0], vals[:, -1]), legs


# Signs of the splittings (ab|cd), (ac|bd), (ad|bc) of a 4-subset a < b < c < d
# in the Plücker relation σ_ab σ_cd − σ_ac σ_bd + σ_ad σ_bc = 0, which holds
# for every decomposable bivector σ.
_SPLIT_SIGN = np.array([1.0, -1.0, 1.0])


@functools.lru_cache(maxsize=8)
def _pair_splittings(n: int) -> tuple:
    """(p, q): the three splittings of every 4-subset of range(n), in
    lexicographic order, into disjoint pairs p | q, as C(n, 4)×3 indices into
    the pairs of `_pairs` (in `_SPLIT_SIGN` order)."""
    index = np.zeros((n, n), dtype=np.intp)
    index[_pairs(n)] = np.arange(n * (n - 1) // 2)
    a, b, c, d = np.array(list(itertools.combinations(range(n), 4)),
                          dtype=np.intp).reshape(-1, 4).T
    p = np.stack([index[a, b], index[a, c], index[a, d]], axis=1)
    q = np.stack([index[c, d], index[b, d], index[b, c]], axis=1)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _thorpe_form(omega: np.ndarray, n: int) -> np.ndarray:
    """W_ω, the symmetric form on Λ² of the 4-form ω (one coefficient per
    4-subset, in `_pair_splittings` order): bᵀW_ωb = 2Σ ω_abcd(b_ab b_cd −
    b_ac b_bd + b_ad b_bc), zero at every decomposable b (Thorpe 1971)."""
    p, q = _pair_splittings(n)
    m = n * (n - 1) // 2
    w = np.zeros((m, m))
    entries = omega[:, None] * _SPLIT_SIGN
    w[p, q] = entries
    w[q, p] = entries
    return w


def _slack_form(sigma: np.ndarray, residual: np.ndarray, n: int) -> np.ndarray:
    """The least-norm 4-form ω that brings W_ω σ nearest to residual.

    ω ↦ W_ω σ is a linear map A, whose column of the 4-subset abcd is
    nonzero only at its six pairs; ω = Aᵀ(AAᵀ)⁺ residual, with the m×m Gram
    matrix AAᵀ scatter-summed over those 6×6 blocks (np.bincount adds in
    input order) and pseudo-inverted by its eigh."""
    p, q = _pair_splittings(n)
    m = sigma.shape[0]
    rows = np.concatenate([p, q], axis=1)
    column = np.concatenate([_SPLIT_SIGN * sigma[q], _SPLIT_SIGN * sigma[p]],
                            axis=1)
    gram = np.bincount((rows[:, :, None] * m + rows[:, None, :]).reshape(-1),
                       weights=(column[:, :, None] * column[:, None, :]).reshape(-1),
                       minlength=m * m).reshape(m, m)
    lam, u = np.linalg.eigh(gram)
    keep = lam > m * _EPS * lam[-1]
    coef = np.einsum("pk,p->k", u[:, keep], residual, optimize=False) / lam[keep]
    y = np.einsum("pk,k->p", u[:, keep], coef, optimize=False)
    return np.einsum("se,se->s", column, y[rows], optimize=False)


def _thorpe_certifies(sym: np.ndarray, extremes: tuple, x: np.ndarray,
                      c: np.ndarray, value: float, r_max: float) -> bool:
    """Whether |K| = value of the orthonormal plane span(x, c) is the sup
    over all planes, to the rounding allowance, by Thorpe's trick.

    With σ = x ∧ c and s the sign of K(σ), sK(τ) = τᵀ(sℛ + W_ω)τ for every
    unit decomposable τ and every 4-form ω, so λ_max(sℛ + W_ω) + δ_ω bounds
    sK.  ω solves the complementary slackness (sℛ + W_ω)σ = value·σ in the
    least-norm sense.  The plane is certified if value ≥ λ_max − δ_ω, with
    δ_ω counting max|ω| beside max|R̂|, and the other sign is bounded below
    value − δ by its extreme eigenvalue of ℛ (`extremes` = (λ_min, λ_max))."""
    n = x.shape[0]
    i, j = _pairs(n)
    sigma = x[i] * c[j] - x[j] * c[i]
    norm = math.sqrt(float(np.einsum("p,p->", sigma, sigma, optimize=False)))
    if not (value > 0.0 and norm > 0.0):
        return False
    sigma = sigma / norm
    r_sigma = np.einsum("pq,q->p", sym, sigma, optimize=False)
    k_sigma = float(np.einsum("p,p->", sigma, r_sigma, optimize=False))
    sign = 1.0 if k_sigma >= 0.0 else -1.0
    other = -extremes[0] if sign > 0 else extremes[1]
    if other > value - _rounding_allowance(n, r_max):
        return False
    omega = _slack_form(sigma, value * sigma - sign * r_sigma, n)
    top = float(np.linalg.eigvalsh(sign * sym + _thorpe_form(omega, n))[-1])
    omega_max = float(np.max(np.abs(omega), initial=0.0))
    return value >= top - _rounding_allowance(n, r_max + omega_max)


def _polish(r4s: np.ndarray, legs: np.ndarray, ceilings: np.ndarray) -> tuple:
    """Alternating exact maximization of |K(span(x, c))| under each tensor
    r4s[t] from each of its unit legs c = legs[t, a] (T, L, n) at once, in
    orthonormal coordinates.  Returns (best, x, c): the max found per leg
    (T, L) and the plane that reached it (T, L, n; zero where none is > 0).

    A leg stops once a sweep moves its |K| by no more than rounding (either
    way: at the maximum, values scatter by a few ulp) or after
    _POLISH_MAX_ITER sweeps; tensor t once a leg reaches ceilings[t] (checked
    before the first sweep and after each) or no leg moves.  A stopped leg is
    swept with its tensor, unrecorded; live tensors are gathered only when one
    stops, and the polish ends as soon as none is live."""
    out = np.zeros(legs.shape[:2]), np.zeros(legs.shape), np.zeros(legs.shape)
    live = (0.0 < ceilings).nonzero()[0]
    if not live.size:
        return out
    r4, c, ceiling = r4s, legs, ceilings[:, None]
    best, best_x, best_c = out
    if live.size < len(r4s):
        r4, c, ceiling = r4s[live], legs[live], ceiling[live]
        best, best_x, best_c = (part[live] for part in out)
    moving = np.ones(best.shape, dtype=bool)
    for sweep in range(1, _POLISH_MAX_ITER + 1):
        x = _top_eigenpairs(np.einsum("tijkl,taj,tal->taik", r4, c, c,
                                      optimize=False), c)[1]
        val, c = _top_eigenpairs(np.einsum("tijkl,tai,tak->tajl", r4, x, x,
                                           optimize=False), x)
        done = np.abs(val - best) <= 1e-14 * np.maximum(1.0, np.abs(val))
        raised = (moving & (val > best))[..., None]
        np.copyto(best_x, x, where=raised)
        np.copyto(best_c, c, where=raised)
        np.maximum(best, val, out=best, where=moving)
        moving &= ~done
        keep = (moving.any(axis=1) & (best < ceiling).all(axis=1)
                & (sweep < _POLISH_MAX_ITER))
        if keep.all():
            continue
        if best is not out[0]:  # the states are gathered copies
            for part, state in zip(out, (best, best_x, best_c)):
                part[live] = state
        if not keep.any():
            break
        live, c, ceiling, best, best_x, best_c, moving = (
            state[keep] for state in (live, c, ceiling, best, best_x, best_c, moving))
        r4 = r4s[live]
    return out


def _search(r4s: np.ndarray) -> tuple:
    """(sups, r_max, certificate) of the stack r4s of n-dim tensors: each
    member's polished sup (unsearched members as the module says) and
    max|R̂|, and what `polished_sup` certifies with, per searched member
    (None if there is none): the symmetrized ℛ, its extreme eigenvalues, the
    ceiling ρ − δ and the legs (x, c) of the best plane."""
    n = r4s.shape[-1]
    r_max = np.abs(r4s).max(axis=(1, 2, 3, 4), initial=0.0)
    finite = np.isfinite(r_max)
    sups = np.where(finite | (n < 2), 0.0, r_max).tolist()
    searched = (finite & (0.0 < r_max) & (n >= 2)).nonzero()[0]
    if not searched.size:
        return sups, r_max, None
    if searched.size < len(r4s) or not r4s.flags.c_contiguous:
        r4s = r4s[searched]
    op = _curvature_operator(r4s)
    sym = op + op.swapaxes(1, 2)
    sym *= 0.5
    (low, high), legs = _eigenplane_seeds(sym, n)
    ceilings = np.maximum(-low, high) - _rounding_allowance(n, r_max[searched])
    best, best_x, best_c = _polish(r4s, legs, ceilings)
    lead = np.arange(searched.size), best.argmax(axis=1)
    for member, sup in zip(searched.tolist(), best[lead].tolist()):
        sups[member] = sup
    return sups, r_max, (sym, (low, high), ceilings, best_x[lead], best_c[lead])


def polished_sups(r4s: np.ndarray) -> list:
    """The polished sup |K| over all 2-planes of each member of the stack r4s
    of orthonormal tensors, with the bits of its one-tensor call.

    The best of the member's four polished eigenplane legs; no certificate
    is solved.  A non-finite entry gives its member a non-finite sup and no
    other member a change."""
    return _search(r4s)[0]


def polished_sup(r4: np.ndarray) -> tuple:
    """(sup, certified) of the one orthonormal tensor r4: the sup of
    `polished_sups`, certified as the sup (to 2δ) where it reaches the
    ceiling ρ − δ or Thorpe's trick closes at its plane
    (`_thorpe_certifies`); else it is the lower end of the bracket
    [sup, ρ + δ].  An unsearched sup is certified where it is 0.0."""
    [sup], [r_max], certificate = _search(r4[None])
    if certificate is None:
        return sup, sup == 0.0
    sym, (low, high), ceilings, x, c = certificate
    return sup, sup >= float(ceilings[0]) or _thorpe_certifies(
        sym[0], (float(low[0]), float(high[0])), x[0], c[0], sup, float(r_max))


def _central_structure(algebra: NilAlgebra, metric: LeftInvariantMetric,
                       split: SubmersionSplit) -> np.ndarray:
    """The algebra's structure tensor, after checking the split: it must be
    the algebra's, built from this metric, and its direction e_n central (no
    stored bracket [e_i, e_n]), since the lemma's bound holds only there."""
    if split.dim != algebra.dim:
        raise DimensionMismatch(
            f"split dim {split.dim} does not match algebra dim {algebra.dim}")
    if not np.array_equal(split.metric.matrix, metric.matrix):
        raise ValueError("split was built from a different metric")
    n = algebra.dim
    for (i, j), entry in algebra.brackets.items():
        if j == n - 1:
            raise ValueError(
                f"direction e{n} is not central: [e{i + 1}, e{n}] = "
                + " + ".join(f"{coeff}·e{k + 1}" for k, coeff in entry.items()))
    return structure_array(algebra)


class DecayReport(_Record):
    """Scan result: polished sup|K^t| per t against the explicit bound.
    sample_count and seed echo the arguments, which change no value; bounds
    holds sup|Ǩ| (or its ρ + δ) + C√t + δ_t per t (see lemma_scan)."""

    _fields = ("t_grid", "sup_abs_K", "base_sup_K", "C", "exponent_fit",
               "diam_bound", "sample_count", "seed", "bounds")

    def __init__(self, t_grid: tuple, sup_abs_K: tuple, base_sup_K: float,
                 C: float, exponent_fit: Optional[float], diam_bound: tuple,
                 sample_count: int, seed: int, bounds: tuple):
        self.__dict__.update(
            t_grid=t_grid, sup_abs_K=sup_abs_K, base_sup_K=base_sup_K, C=C,
            exponent_fit=exponent_fit, diam_bound=diam_bound,
            sample_count=sample_count, seed=seed, bounds=bounds)


def _lemma_constant(c_hat: np.ndarray) -> float:
    """C = 4‖A‖_F² + 2‖DA‖_F from the structure constants c_hat of an
    orthonormal split frame (vertical vector last).

    A and DA are O'Neill's integrability tensor and its covariant derivative,
    read off the Koszul connection Γ of the frame:
    A_X E = H ∇_{HX} (VE) + V ∇_{HX} (HE), and with the frame fields
    left-invariant, ∇_E of a constant-component field is contraction with Γ."""
    n = c_hat.shape[0]
    m = n - 1
    gamma = _orthonormal_connection(c_hat)
    # a[x, e, :] are the frame components of A_X E: its first slot is
    # horizontal, and its second slot decides which projection of ∇ lands there
    a = np.zeros((n, n, n))
    a[:m, :m, m] = gamma[:m, :m, m]
    a[:m, m, :m] = gamma[:m, m, :m]
    # da[e, x, y, :] = (D_E A)_X Y = ∇_E (A_X Y) − A_{∇_E X} Y − A_X (∇_E Y)
    with np.errstate(over="ignore", invalid="ignore"):
        da = (np.einsum("xym,epm->exyp", a, gamma, optimize=False)
              - np.einsum("exm,myp->exyp", gamma, a, optimize=False)
              - np.einsum("eym,xmp->exyp", gamma, a, optimize=False))
        a2 = float(np.einsum("fep,fep->", a, a, optimize=False))
        da_norm = math.sqrt(float(np.einsum("efhp,efhp->", da, da, optimize=False)))
    if math.isinf(da_norm):
        # ΣDA² can overflow where ‖DA‖_F does not; only then is DA rescaled
        # by max|DA|, so every finite sum keeps its bits
        scale = float(np.max(np.abs(da)))
        if math.isfinite(scale):
            da = da / scale
            da_norm = scale * math.sqrt(
                float(np.einsum("efhp,efhp->", da, da, optimize=False)))
    return 4.0 * a2 + 2.0 * da_norm


def _check_echoed(n_samples: int, seed: int) -> None:
    """The sampler arguments that `lemma_scan` and `certify_almost_flat`
    echo: they change no value, but must be valid to be echoed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def lemma_scan(algebra: NilAlgebra, metric: LeftInvariantMetric,
               split: SubmersionSplit, t_grid: Sequence[float], n_samples: int,
               seed: int) -> DecayReport:
    """Scan sup|K^t| over a descending t grid, collapsing e_n in the metric's
    one frame (`split` must be its algebra's, from `metric`, with e_n
    central), and assert it stays below
    sup|Ǩ| + C√t + δ_t, where the lemma's constant 3‖A‖² + 2‖DA‖ + ‖A‖²
    (operator norms over unit arguments; valid for t ≤ 1) is bounded by

        C := 4‖A‖_F² + 2‖DA‖_F,

    computed from the O'Neill tensors of g in its orthonormal split frame.
    By Cauchy–Schwarz |A(x, e)| ≤ ‖A‖_F for unit x, e (and likewise for DA),
    so C is a true upper bound; it is computed, not sampled.  The grid runs in
    stacks of `_T_CHUNK` points (stacked `rescaled_curvature` and
    `_search`, a stop per t), so memory does not grow with its length,
    and no value depends on the stacking.  The scan draws no plane:
    `n_samples` and `seed` are validated and echoed in the report but change
    no value.  The base sup alone is certified (`polished_sup`); where it
    is not, it is only a lower end of sup|Ǩ|, so the bound starts from the base's ρ + δ
    (`curvature_bound`) instead; the exponent fit still measures the excess
    over the polished base sup.

    δ_t is a rounding allowance, so a bound met exactly (C = 0 on a metric
    product) does not fail by a few ulp.  Each polished |K| is
    Σ R̂_ijkl x_i c_j x_k c_l in orthonormal coordinates with unit x, c (or an
    eigenvalue of that form compressed to n×n), equal to bᵀℛb on Λ² with
    b = x ∧ c.  Its terms sum in absolute value to at most
    max|R̂|·‖x‖₁²‖c‖₁² ≤ n²·max|R̂| (for bᵀℛb since Σ_p |b_p| ≤ ‖x‖₁‖c‖₁)
    and each passes through at most 2n² roundings, so its error is about
    n⁴·ε·max|R̂| (ε = 2⁻⁵²); the normalisation of x, c and the eigensolver
    add lower-order terms, covered by a factor 2.  Both sides of the
    comparison are such values, hence δ_t = 2n⁴·ε·(max|R̂_t| + max|Ř|),
    which is part of the reported bound.
    """
    ts = [float(t) for t in t_grid]
    if not ts or not all(math.isfinite(t) and t > 0.0 for t in ts):
        raise ValueError("t grid must be nonempty, finite and positive")
    if max(ts) > 1.0:
        raise ValueError(f"t grid value {max(ts)} is above 1, where C is unproven")
    if min(ts) < T_MIN:
        raise ValueError(f"t grid value {min(ts)} is below {T_MIN:.3g}, where t² "
                         "underflows float64")
    if any(b > a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be descending")
    _check_echoed(n_samples, seed)

    c = _central_structure(algebra, metric, split)
    c_hat = _structure_in_frame(c, *metric._frame)
    n = split.dim
    m = n - 1

    r_base = rescaled_curvature(c_hat[:m, :m, :m], np.ones(m))
    base_sup, certified = polished_sup(r_base)
    base_bound = base_sup if certified else sum(curvature_bound(r_base))
    base_max = float(np.max(np.abs(r_base), initial=0.0))

    c_const = _lemma_constant(c_hat)

    fiber_len = math.sqrt(float(metric.matrix[n - 1, n - 1]))

    weights = np.ones((len(ts), n))  # √ of G^t = diag(1, …, 1, t)
    weights[:, n - 1] = np.sqrt(ts)
    sups, roundings, bounds, diams = [], [], [], []
    for start in range(0, len(ts), _T_CHUNK):
        sups_t, r_maxes = _search(rescaled_curvature(
            c_hat, weights[start:start + _T_CHUNK]))[:2]
        for t, sup_t, r_max in zip(ts[start:start + _T_CHUNK], sups_t,
                                   r_maxes.tolist()):
            rounding = _rounding_allowance(n, r_max + base_max)
            bound = base_bound + c_const * math.sqrt(t) + rounding
            if not (math.isfinite(sup_t) and sup_t <= bound):
                raise BoundViolated(
                    f"measured sup|K^t| = {sup_t!r} exceeds bound {bound!r} at "
                    f"t = {t!r}; witness: an eigenplane of ℛ at this t",
                    t=t, value=sup_t, bound=bound)
            sups.append(sup_t)
            roundings.append(rounding)
            bounds.append(bound)
            diams.append(diameter_bound([fiber_len], [t]))

    exponent = _fit_exponent(ts, sups, base_sup, roundings)
    return DecayReport(t_grid=tuple(ts), sup_abs_K=tuple(sups),
                       base_sup_K=base_sup, C=c_const, exponent_fit=exponent,
                       diam_bound=tuple(diams), sample_count=int(n_samples),
                       seed=int(seed), bounds=tuple(bounds))


def _fit_exponent(ts: Sequence[float], sups: Sequence[float], base_sup: float,
                  roundings: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(sup|K^t| − sup|Ǩ|) against log t.

    The excess over the base sup is what decays (the sup itself saturates at
    sup|Ǩ| on curved bases); points whose excess is within the rounding
    allowance δ_t, and so indistinguishable from zero, are excluded; a slope
    needs two distinct t among the rest.
    """
    xs, ys = [], []
    for t, s, rounding in zip(ts, sups, roundings):
        excess = s - base_sup
        if excess > rounding:
            xs.append(math.log(t))
            ys.append(math.log(excess))
    if len(set(xs)) < 2:
        return None
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(slope)


def diameter_bound(fiber_lengths: Sequence[float], ts: Sequence[float]) -> float:
    """Recursive tower diameter bound: Σ ½·ℓ_i·√(t_i).

    ℓ_i is the unscaled fiber circle length at level i and t_i its collapse
    parameter; the point at the bottom contributes 0. Each length and each
    parameter must be positive and finite, so NaN is rejected too.
    """
    if len(fiber_lengths) != len(ts):
        raise DimensionMismatch(
            f"{len(fiber_lengths)} fiber lengths vs {len(ts)} collapse parameters")
    total = 0.0
    for ell, t in zip(fiber_lengths, ts):
        if not (0.0 < ell < math.inf):
            raise ValueError(
                f"fiber length must be positive and finite, got {ell}")
        if not (0.0 < t < math.inf):
            raise ValueError(
                f"collapse parameter must be positive and finite, got {t}")
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
