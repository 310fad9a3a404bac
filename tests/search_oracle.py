"""Test-side oracle of the sup search: `scan._search` as it stood before its
bookkeeping was cut, kept here verbatim with `_polish`, `_top_eigenpairs`
and `_eigenplane_seeds`, the way `oneill_oracle` keeps the O'Neill tensors.

The package's search must give every sup, every max|R̂| and every part of
its certificate bit for bit as this copy does: the later form does the same
floating-point operations on the same operands, in the same order and
memory layout, and changes only boolean and index reductions, allocations,
gathers and scatters.  The index helpers (`_pairs` through
`_curvature_operator`) and the rounding allowance are read from the package.
"""

import numpy as np

from nilflat.scan import (_POLISH_MAX_ITER, _curvature_operator, _pairs,
                          _rounding_allowance)


def _top_eigenpairs(q: np.ndarray, v: np.ndarray) -> tuple:
    """Per leading index, the eigenpair of largest |eigenvalue| of the
    symmetric form q (..., n, n) compressed by the projector I − v vᵀ onto
    the orthocomplement of the unit vector v (..., n)."""
    shape = v.shape
    q, v = q.reshape((-1,) + q.shape[-2:]), v.reshape(-1, shape[-1])
    q = 0.5 * (q + np.swapaxes(q, 1, 2))
    qv = np.einsum("aij,aj->ai", q, v, optimize=False)
    vqv = np.einsum("ai,ai->a", v, qv, optimize=False)
    q = (q - v[:, :, None] * qv[:, None, :] - qv[:, :, None] * v[:, None, :]
         + vqv[:, None, None] * (v[:, :, None] * v[:, None, :]))
    vals, vecs = np.linalg.eigh(q)
    rows = np.arange(q.shape[0])
    top = np.argmax(np.abs(vals), axis=1)
    return np.abs(vals[rows, top]).reshape(shape[:-1]), vecs[rows, :, top].reshape(shape)


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
    ends = np.swapaxes(vecs[:, :, [0, -1]], 1, 2)
    b[:, :, i, j] = ends
    b[:, :, j, i] = -ends
    btb = np.einsum("taki,takj->taij", b, b, optimize=False)
    legs = np.swapaxes(np.linalg.eigh(btb)[1][..., -2:], -1, -2).reshape(-1, 4, n)
    return (vals[:, 0], vals[:, -1]), legs


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
    stops."""
    out = np.zeros(legs.shape[:2]), np.zeros(legs.shape), np.zeros(legs.shape)
    live = np.flatnonzero(0.0 < ceilings)
    r4, c, ceiling = r4s, legs, ceilings[:, None]
    best, best_x, best_c = out
    if live.size < len(r4s):
        r4, c, ceiling = r4s[live], legs[live], ceiling[live]
        best, best_x, best_c = (part[live] for part in out)
    moving = np.ones(best.shape, dtype=bool)
    for sweep in range(1, _POLISH_MAX_ITER + 1):
        if not live.size:
            break
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
        keep = (moving.any(axis=1) & ~(~(best < ceiling)).any(axis=1)
                & (sweep < _POLISH_MAX_ITER))
        if keep.all():
            continue
        for part, state in zip(out, (best, best_x, best_c)):
            part[live] = state
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
    r_max = np.max(np.abs(r4s), axis=(1, 2, 3, 4), initial=0.0)
    finite = np.isfinite(r_max)
    sups = np.where(finite | (n < 2), 0.0, r_max).tolist()
    searched = np.flatnonzero(finite & (0.0 < r_max) & (n >= 2))
    if not searched.size:
        return sups, r_max, None
    r4s = r4s[searched]
    op = _curvature_operator(r4s)
    sym = 0.5 * (op + np.swapaxes(op, 1, 2))
    (low, high), legs = _eigenplane_seeds(sym, n)
    ceilings = np.maximum(-low, high) - _rounding_allowance(n, r_max[searched])
    best, best_x, best_c = _polish(r4s, legs, ceilings)
    lead = np.arange(searched.size), np.argmax(best, axis=1)
    for member, sup in zip(searched.tolist(), best[lead].tolist()):
        sups[member] = sup
    return sups, r_max, (sym, (low, high), ceilings, best_x[lead], best_c[lead])
