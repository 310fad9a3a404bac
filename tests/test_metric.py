"""Left-invariant curvature against independent oracles.

The package computes curvature only in an orthonormal frame: R̂ =
`rescaled_curvature(c_F, w)` from a frame's structure constants c_F and its
vector lengths w, with Γ̂ = `_orthonormal_connection(c_F)`.  A metric of any
Gram G is read here in its Cholesky frame F (FᵀGF = I).

Oracle key: [DERIVED] exact sympy re-implementation of the Koszul/curvature
pipeline at the Gram G in the original basis (explicit loops and rational
linear solves, no shared code), its tensors pushed into F and compared with
Γ̂ and R̂; Milnor's sectional-curvature formula (`conftest.milnor_sectional`,
no Koszul connection and nothing from `nilflat.metric`); hand-pinned
Heisenberg literals; [TRIVIAL] abelian/flat cases.  Identity checks
(torsion, compatibility, symmetries) run at 1e-12, oracle agreement at 1e-9,
invariance checks at 1e-10.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from nilflat import catalog
from nilflat.errors import DimensionMismatch, NotPositiveDefinite
from nilflat.metric import (TOL_IDENTITY, LeftInvariantMetric,
                            _orthonormal_connection, _structure_in_frame,
                            rescaled_curvature, structure_array)
from nilflat.submersion import build_split
from conftest import milnor_sectional
from oneill_oracle import canonical_variation

TOL_ORACLE = 1e-9       # agreement with independent oracles
TOL_INVARIANCE = 1e-10  # basis-invariance checks

H3 = catalog.heisenberg3()
N4 = catalog.n4()
H5 = catalog.heisenberg5()

TILTED3 = np.array([[1.0, 0.0, 0.3],
                    [0.0, 1.0, 0.0],
                    [0.3, 0.0, 1.0]])
RATIONAL4 = np.array([[Fraction(2), Fraction(1, 2), 0, 0],
                      [Fraction(1, 2), Fraction(1), 0, Fraction(1, 4)],
                      [0, 0, Fraction(3, 2), 0],
                      [0, Fraction(1, 4), 0, Fraction(1)]], dtype=object)


# ---------------------------------------------------------------------------
# independent symbolic oracle (sympy rationals, explicit index loops)
# ---------------------------------------------------------------------------

def symbolic_geometry(algebra, gram_rows):
    """Koszul connection and (lowered) curvature, all in exact arithmetic.

    Solves 2 G Γ_ij = rhs_ij per index pair instead of contracting with an
    inverse, and builds R(e_i,e_j)e_k = ∇_{[e_i,e_j]}e_k − ∇_i∇_j e_k
    + ∇_j∇_i e_k term by term.
    """
    n = algebra.dim
    g = sp.Matrix(n, n, lambda i, j: sp.Rational(Fraction(gram_rows[i][j])))

    def bracket(i, j):
        return [sp.Rational(c) for c in algebra.basis_bracket(i, j)]

    def inner(x, y):
        return sum(x[a] * g[a, b] * y[b] for a in range(n) for b in range(n))

    def basis(i):
        return [sp.Integer(1) if a == i else sp.Integer(0) for a in range(n)]

    gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = sp.zeros(n, 1)
            for k in range(n):
                rhs[k] = (inner(bracket(i, j), basis(k))
                          - inner(bracket(j, k), basis(i))
                          + inner(bracket(k, i), basis(j)))
            sol = g.solve(rhs / 2)
            gamma[i][j] = [sol[m] for m in range(n)]

    def nabla(i, vec):
        out = [sp.Integer(0)] * n
        for p in range(n):
            if vec[p] != 0:
                for m in range(n):
                    out[m] += vec[p] * gamma[i][p][m]
        return out

    riem = [[[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
            for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                first = [sp.Integer(0)] * n
                cb = bracket(i, j)
                for p in range(n):
                    if cb[p] != 0:
                        for m in range(n):
                            first[m] += cb[p] * gamma[p][k][m]
                second = nabla(i, gamma[j][k])
                third = nabla(j, gamma[i][k])
                vec = [first[m] - second[m] + third[m] for m in range(n)]
                for l in range(n):
                    riem[i][j][k][l] = inner(vec, basis(l))
    return gamma, riem


def oracle_arrays(algebra, gram_rows):
    gamma, riem = symbolic_geometry(algebra, gram_rows)
    n = algebra.dim
    gam = np.array([[[float(gamma[i][j][m]) for m in range(n)]
                     for j in range(n)] for i in range(n)])
    r4 = np.array([[[[float(riem[i][j][k][l]) for l in range(n)]
                     for k in range(n)] for j in range(n)] for i in range(n)])
    return gam, r4


def metric_from_rows(rows):
    return LeftInvariantMetric(
        matrix=np.array([[float(Fraction(v)) for v in row] for row in rows]))


def cholesky_frame(algebra, rows):
    """(F, c_F): the Cholesky frame F of G, FᵀGF = I, and the structure
    constants in it, as the commands read a metric."""
    chol = np.linalg.cholesky(metric_from_rows(rows).matrix)
    f = np.linalg.inv(chol).T
    return f, _structure_in_frame(structure_array(algebra), f, chol.T)


def frame_sectional(r_hat, x, y):
    """K of span(x, y), given in the orthonormal frame of R̂."""
    num = np.einsum("ijkl,i,j,k,l->", r_hat, x, y, x, y, optimize=False)
    return float(num / ((x @ x) * (y @ y) - (x @ y) ** 2))


CASES = [
    ("h3-identity", H3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ("h3-tilted", H3, [[1, 0, Fraction(3, 10)], [0, 1, 0],
                       [Fraction(3, 10), 0, 1]]),
    ("n4-identity", N4, np.eye(4, dtype=int).tolist()),
    ("n4-rational", N4, RATIONAL4.tolist()),
    ("h5-identity", H5, np.eye(5, dtype=int).tolist()),
]


# [DERIVED] the connection and curvature of the Cholesky frame agree with the
# symbolic oracle at G, pushed into the frame: Γ̂_abc = F_ia F_jb Γ_ijm
# (GF)_mc and R̂_abcd = R_ijkl F_ia F_jb F_kc F_ld.
@pytest.mark.parametrize("name,algebra,rows", CASES, ids=[c[0] for c in CASES])
def test_against_symbolic_oracle(name, algebra, rows):
    f, c_f = cholesky_frame(algebra, rows)
    gamma = _orthonormal_connection(c_f)
    r_hat = rescaled_curvature(c_f, np.ones(algebra.dim))
    gam_oracle, r4_oracle = oracle_arrays(algebra, rows)
    gf = metric_from_rows(rows).matrix @ f
    gam_oracle = np.einsum("ia,jb,ijm,mc->abc", f, f, gam_oracle, gf)
    r4_oracle = np.einsum("ia,jb,kc,ld,ijkl->abcd", f, f, f, f, r4_oracle)
    assert np.max(np.abs(gamma - gam_oracle)) <= TOL_ORACLE
    assert np.max(np.abs(r_hat - r4_oracle)) <= TOL_ORACLE


# [DERIVED] hand-pinned Heisenberg literals: K(e1,e2) = -3/4, mixed = +1/4,
# from R̂ at G = I and from Milnor's formula.
def test_h3_sectional_literals():
    r_hat = rescaled_curvature(structure_array(H3), np.ones(3))
    e = np.eye(3)
    for i, j, value in ((0, 1, -0.75), (0, 2, 0.25), (1, 2, 0.25)):
        assert r_hat[i, j, i, j] == pytest.approx(value, abs=1e-9)
        assert milnor_sectional(H3, e, e[i], e[j]) == pytest.approx(value, abs=1e-9)


# [TRIVIAL] abelian algebras are flat for every metric.
@pytest.mark.parametrize("rows", [np.eye(3, dtype=int).tolist(),
                                  [[2, 1, 0], [1, 2, 0], [0, 0, 5]]])
def test_abelian_flat(rows):
    _, c_f = cholesky_frame(catalog.abelian(3), rows)
    r_hat = rescaled_curvature(c_f, np.ones(3))
    assert np.max(np.abs(r_hat)) == 0.0


# [DERIVED] torsion ∇_XY − ∇_YX − [X,Y] = 0 and metric compatibility
# ∂(⟨Y,Z⟩) = 0 = ⟨∇_XY,Z⟩ + ⟨Y,∇_XZ⟩ in the orthonormal Cholesky frame.
@pytest.mark.parametrize("name,algebra,rows", CASES, ids=[c[0] for c in CASES])
def test_connection_identities(name, algebra, rows):
    _, c_f = cholesky_frame(algebra, rows)
    gamma = _orthonormal_connection(c_f)
    torsion = gamma - gamma.transpose(1, 0, 2) - c_f
    assert np.max(np.abs(torsion)) <= TOL_IDENTITY
    compat = gamma + gamma.transpose(0, 2, 1)
    assert np.max(np.abs(compat)) <= TOL_IDENTITY


# [DERIVED] curvature symmetries: antisymmetry in (i,j) and (k,l), pair
# symmetry, first Bianchi.
@pytest.mark.parametrize("name,algebra,rows", CASES, ids=[c[0] for c in CASES])
def test_curvature_symmetries(name, algebra, rows):
    _, c_f = cholesky_frame(algebra, rows)
    r4 = rescaled_curvature(c_f, np.ones(algebra.dim))
    assert np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3))) <= TOL_IDENTITY
    assert np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2))) <= TOL_IDENTITY
    assert np.max(np.abs(r4 - r4.transpose(2, 3, 0, 1))) <= TOL_IDENTITY
    bianchi = (r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3))
    assert np.max(np.abs(bianchi)) <= TOL_IDENTITY


# [DERIVED] K depends only on the plane: Milnor's K is invariant under
# changes of the plane's basis, and equals K of R̂ in the Cholesky frame.
def test_sectional_plane_invariance():
    rows = CASES[3][2]
    g = metric_from_rows(rows).matrix
    rng = np.random.default_rng(11)
    v = np.array([1.0, 0.0, 2.0, -1.0])
    w = np.array([0.0, 1.0, 1.0, 3.0])
    k0 = milnor_sectional(N4, g, v, w)
    f, c_f = cholesky_frame(N4, rows)
    r_hat = rescaled_curvature(c_f, np.ones(4))
    f_inv = np.linalg.inv(f)
    assert abs(frame_sectional(r_hat, f_inv @ v, f_inv @ w) - k0) <= TOL_INVARIANCE
    for _ in range(20):
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(a * d - b * c) < 0.1:
            continue
        k1 = milnor_sectional(N4, g, a * v + b * w, c * v + d * w)
        assert abs(k1 - k0) <= TOL_INVARIANCE


# [DERIVED] homothety G -> λG scales sectional curvature by 1/λ: frame
# weights ·√λ divide R̂ by λ, and Milnor's K at λG is K at G over λ.
def test_homothety_scaling():
    lam = 3.5
    c = structure_array(N4)
    r_base = rescaled_curvature(c, np.ones(4))
    r_scaled = rescaled_curvature(c, np.full(4, np.sqrt(lam)))
    assert np.max(np.abs(r_scaled - r_base / lam)) <= TOL_INVARIANCE
    v = [1, 0, 1, 0]
    w = [0, 1, 0, 2]
    k_base = milnor_sectional(N4, np.eye(4), v, w)
    k_scaled = milnor_sectional(N4, lam * np.eye(4), v, w)
    assert abs(k_scaled - k_base / lam) <= TOL_INVARIANCE


# [TRIVIAL] validation errors.  Both orders of an exactly singular matrix
# (det 0) are refused, the one whose reversed Cholesky factor passes by
# rounding by its last pivot, 8.9e-16 ≤ 3ε·4.
def test_metric_validation_errors():
    with pytest.raises(NotPositiveDefinite):
        LeftInvariantMetric(matrix=np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        LeftInvariantMetric(matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    singular = np.array([[8.0, 2.0, 4.0], [2.0, 13.0, -4.0], [4.0, -4.0, 4.0]])
    with pytest.raises(NotPositiveDefinite, match="not positive definite"):
        LeftInvariantMetric(matrix=singular)
    with pytest.raises(NotPositiveDefinite, match="singular to working precision"):
        LeftInvariantMetric(matrix=singular[::-1, ::-1])
    with pytest.raises(DimensionMismatch):
        LeftInvariantMetric(matrix=np.zeros((2, 3)))
    metric = LeftInvariantMetric.identity(3)
    assert not metric.matrix.flags.writeable


# [DERIVED] the symmetry test is relative to the largest entry: at scale
# 1e5 an off-diagonal pair one ulp apart is symmetric, and a matrix of scale
# 1e-13 whose lower corner is 0 (its upper one 1e-13) is not.
def test_metric_symmetry_scale_invariant():
    a = 0.5e5
    m = np.array([[1e5, a], [np.nextafter(a, np.inf), 1e5]])
    assert m[0, 1] != m[1, 0]
    assert LeftInvariantMetric(matrix=m).matrix[0, 1] == 0.5 * (m[0, 1] + m[1, 0])
    with pytest.raises(NotPositiveDefinite, match="not symmetric"):
        LeftInvariantMetric(matrix=np.array([[1e-13, 1e-13], [0.0, 1e-13]]))


# [DERIVED] an orthogonal plane with one very short leg is a plane: h3 with
# G = diag(1, 1, t) has K(e1, e3) = t/4 at t = 1e-16, from R̂ at frame
# weights √(1, 1, t) and from Milnor's formula whatever the leg lengths.
def test_degenerate_plane_scale_invariant():
    t = 1e-16
    r_hat = rescaled_curvature(structure_array(H3), np.sqrt([1.0, 1.0, t]))
    assert r_hat[0, 2, 0, 2] == pytest.approx(0.25 * t, rel=1e-9)
    for scale in (1.0, 1e8):
        k = milnor_sectional(H3, np.diag([1.0, 1.0, t]), [1, 0, 0], [0, 0, scale])
        assert k == pytest.approx(0.25 * t, rel=1e-9)


# [DERIVED] canonical variation: scales only the vertical direction.
def split_variation_bytes(metric, z, t):
    """G^t from the unit vertical of the split frame, G + (t−1)(Gu)(Gu)ᵀ,
    as bytes: `canonical_variation` must give exactly these."""
    gu = metric.matrix @ build_split(metric, z).metric._frame[0][:, -1]
    return (metric.matrix + (t - 1.0) * np.outer(gu, gu)).tobytes()


def test_canonical_variation_diagonal():
    metric = LeftInvariantMetric.identity(3)
    for t in (1.0, 0.1, 0.01):
        g_t = canonical_variation(metric, [0, 0, 1], t).matrix
        assert np.allclose(g_t, np.diag([1.0, 1.0, t]), atol=TOL_IDENTITY)
        assert g_t.tobytes() == split_variation_bytes(metric, [0, 0, 1], t)
    assert np.allclose(canonical_variation(metric, [0, 0, 1], 1.0).matrix,
                       metric.matrix, atol=0.0)


# [DERIVED] tilted metric: G^t fixes the horizontal complement, scales the
# vertical line; checked via the defining projector identities.
def test_canonical_variation_tilted():
    metric = LeftInvariantMetric(matrix=TILTED3)
    z = np.array([0.0, 0.0, 1.0])
    t = 0.2
    g_t = canonical_variation(metric, z, t).matrix
    assert g_t.tobytes() == split_variation_bytes(metric, z, t)
    g = metric.matrix
    gz = g @ z
    # vertical scaling: G^t(z, x) = t·G(z, x) for every x
    assert np.max(np.abs(g_t @ z - t * gz)) <= TOL_IDENTITY
    # horizontal invariance: x ⟂_G z  ⇒  G^t(x, y) = G(x, y)
    x = np.array([1.0, 0.0, 0.0]) - (gz[0] / (z @ gz)) * z
    y = np.array([0.0, 1.0, 0.0]) - (gz[1] / (z @ gz)) * z
    for a in (x, y):
        for b in (x, y):
            assert abs(a @ g_t @ b - a @ g @ b) <= TOL_IDENTITY


# [TRIVIAL] nonpositive t rejected.
def test_canonical_variation_bad_t():
    metric = LeftInvariantMetric.identity(3)
    with pytest.raises(ValueError):
        canonical_variation(metric, [0, 0, 1], 0.0)
    with pytest.raises(ValueError):
        canonical_variation(metric, [0, 0, 1], -0.5)


# [TRIVIAL] a NaN or infinite t is the caller's error, not the metric's.
@pytest.mark.parametrize("t", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_canonical_variation_nonfinite_t(t):
    with pytest.raises(ValueError, match="requires 0 < t < inf"):
        canonical_variation(LeftInvariantMetric.identity(3), [0, 0, 1], t)


# [DERIVED] h3 under canonical variation: K^t(e1,e2) = -3t/4, mixed = t/4,
# from R̂ at split-frame weights √(1, 1, t) and from Milnor's formula at G^t.
@pytest.mark.parametrize("t", [1.0, 0.1, 0.01])
def test_h3_variation_curvature(t):
    g_t = canonical_variation(LeftInvariantMetric.identity(3), [0, 0, 1], t).matrix
    r_hat = rescaled_curvature(structure_array(H3), np.sqrt([1.0, 1.0, t]))
    e = np.eye(3)
    for i, j, value in ((0, 1, -0.75 * t), (0, 2, 0.25 * t)):
        assert r_hat[i, j, i, j] == pytest.approx(value, abs=1e-9)
        assert milnor_sectional(H3, g_t, e[i], e[j]) == pytest.approx(value, abs=1e-9)
