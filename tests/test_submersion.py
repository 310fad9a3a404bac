"""Submersion splits, O'Neill tensors, and the canonical-variation relations.

Oracle key: [DERIVED] hand values for the Heisenberg integrability tensor
(A_{e1}e2 = e3/2 when G = I) and the alternation/typing identities of A and
T from their definitions; [TRIVIAL] abelian cases.  The structural checks
run at 1e-12.
"""

from pathlib import Path

import numpy as np
import pytest

from nilflat import catalog
from nilflat.errors import DimensionMismatch
from nilflat.fileio import load_metric
from nilflat.metric import (LeftInvariantMetric, rescaled_curvature,
                            structure_array)
from nilflat.submersion import build_split
from oneill_oracle import (canonical_variation, frame_metric, frame_structure,
                           from_frame, oneill_tensors, to_frame)

TOL = 1e-12
DATA = Path(__file__).resolve().parent.parent / "data"

H3 = catalog.heisenberg3()
N4 = catalog.n4()
H5 = catalog.heisenberg5()

TILTED3 = np.array([[1.0, 0.0, 0.3],
                    [0.0, 1.0, 0.0],
                    [0.3, 0.0, 1.0]])
SPD4 = np.array([[1.0, 0.2, 0.0, 0.1],
                 [0.2, 2.0, 0.0, 0.0],
                 [0.0, 0.0, 1.5, 0.3],
                 [0.1, 0.0, 0.3, 1.0]])


def last_basis(n):
    z = np.zeros(n)
    z[n - 1] = 1.0
    return z


def split_for(algebra, matrix=None):
    metric = (LeftInvariantMetric.identity(algebra.dim) if matrix is None
              else LeftInvariantMetric(matrix=matrix))
    return metric, build_split(metric, last_basis(algebra.dim))


GEOMETRIES = [
    ("h3-identity", H3, None),
    ("h3-tilted", H3, TILTED3),
    ("n4-identity", N4, None),
    ("n4-spd", N4, SPD4),
    ("h5-identity", H5, None),
]
GEOMETRY_IDS = [g[0] for g in GEOMETRIES]


# [DERIVED] frame columns are G-orthonormal with the unit vertical last.
@pytest.mark.parametrize("name,algebra,matrix", GEOMETRIES, ids=GEOMETRY_IDS)
def test_split_frame_orthonormal(name, algebra, matrix):
    metric, split = split_for(algebra, matrix)
    n = algebra.dim
    gram = split.metric._frame[0].T @ metric.matrix @ split.metric._frame[0]
    assert np.max(np.abs(gram - np.eye(n))) <= TOL
    # last column is e_n up to positive scale
    z = last_basis(n)
    u = split.metric._frame[0][:, n - 1]
    assert np.max(np.abs(u * np.sqrt(z @ metric.matrix @ z) - z)) <= TOL
    # to_frame/from_frame invert each other
    v = np.arange(1.0, n + 1.0)
    assert np.max(np.abs(from_frame(split, to_frame(split, v)) - v)) <= TOL


# [TRIVIAL] a split is along e_n only: any other direction, however close to
# e_n or parallel to it, is refused by name, and a mis-sized one by shape.
def test_split_errors():
    metric = LeftInvariantMetric.identity(3)
    for z in ([1.0, 0.0, 0.0], [1e-9, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 2.0]):
        with pytest.raises(ValueError, match=r"along e3 only"):
            build_split(metric, z)
    with pytest.raises(DimensionMismatch):
        build_split(metric, [0.0, 1.0])


# [TRIVIAL] a NaN or infinite direction is not e_n, and is refused as such.
@pytest.mark.parametrize("z", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_split_nonfinite_direction(z):
    with pytest.raises(ValueError, match=r"along e3 only"):
        build_split(LeftInvariantMetric.identity(3), [0.0, 0.0, z])


def dense_seed(n, seed):
    """The SPD seed metric I + ½BBᵀ/n, B standard normal from `seed`."""
    b = np.random.default_rng(seed).standard_normal((n, n))
    return np.eye(n) + 0.5 * b @ b.T / n


SHIPPED_METRICS = sorted(DATA.glob("metric*_*.json"))


# [DERIVED] the split frame is the reversed Cholesky frame: lower-triangular
# and G-orthonormal to rounding, on every shipped seed metric and on dense
# seeds of dimensions 6 to 10.
@pytest.mark.parametrize("matrix", [
    *(load_metric(path) for path in SHIPPED_METRICS),
    dense_seed(6, 0), dense_seed(8, 1), dense_seed(10, 2),
], ids=[path.stem for path in SHIPPED_METRICS] + ["dense6", "dense8", "dense10"])
def test_split_frame_lower_triangular(matrix):
    metric = LeftInvariantMetric(matrix=matrix)
    frame = build_split(metric, last_basis(metric.dim)).metric._frame[0]
    assert np.array_equal(frame, np.tril(frame))
    defect = frame.T @ metric.matrix @ frame - np.eye(metric.dim)
    assert np.max(np.abs(defect)) <= 1e-15


# [TRIVIAL] at G = I the split frame is the identity, bit for bit.
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_split_frame_identity(n):
    frame = build_split(LeftInvariantMetric.identity(n), last_basis(n)).metric._frame[0]
    assert frame.tobytes() == np.eye(n).tobytes()


# [DERIVED] frame structure constants transform as a (1,2)-tensor: checked by
# evaluating a bracket both ways on a non-diagonal metric (regression for the
# component-index transpose).
def test_frame_structure_consistency():
    metric, split = split_for(H3, TILTED3)
    c = structure_array(H3)
    c_hat = frame_structure(H3, split)
    f = split.metric._frame[0]
    for a in range(3):
        for b in range(3):
            ambient = np.einsum("ijk,i,j->k", c, f[:, a], f[:, b],
                                optimize=False)
            assert np.max(np.abs(from_frame(split, c_hat[a, b, :]) - ambient)) <= TOL
    # h3 brackets land in the center: no horizontal component in any frame
    assert np.max(np.abs(c_hat[:, :, :2])) <= TOL
    # frame metric of the defining metric is the identity
    assert np.max(np.abs(frame_metric(metric.matrix, split) - np.eye(3))) <= TOL


# [DERIVED] Heisenberg integrability: A_{e1}e2 = e3/2 for G = I.
def test_h3_a_tensor_value():
    _, split = split_for(H3)
    tensors = oneill_tensors(H3, LeftInvariantMetric.identity(3), split)
    assert np.max(np.abs(tensors.a[0, 1, :] - np.array([0.0, 0.0, 0.5]))) <= TOL
    assert np.max(np.abs(tensors.a[1, 0, :] + np.array([0.0, 0.0, 0.5]))) <= TOL


# [DERIVED] structural identities of A and T on every test geometry:
# horizontal-slot alternation A_XY = -A_YX = ½V[X,Y], typing of the images,
# and T ≡ 0 (central fibers are totally geodesic).
@pytest.mark.parametrize("name,algebra,matrix", GEOMETRIES, ids=GEOMETRY_IDS)
def test_oneill_structure(name, algebra, matrix):
    metric, split = split_for(algebra, matrix)
    n = algebra.dim
    m = n - 1
    tensors = oneill_tensors(algebra, metric, split)
    a = tensors.a

    assert np.max(np.abs(tensors.t_tensor)) <= TOL
    # vertical first slot of A vanishes by construction
    assert np.max(np.abs(a[m, :, :])) <= TOL
    # alternation on horizontal slots, equal to half the vertical bracket part
    c_hat = frame_structure(algebra, split)
    for x in range(m):
        for y in range(m):
            assert np.max(np.abs(a[x, y, :] + a[y, x, :])) <= TOL
            half_vert = np.zeros(n)
            half_vert[m] = 0.5 * c_hat[x, y, m]
            assert np.max(np.abs(a[x, y, :] - half_vert)) <= TOL
    # typing: A maps (horizontal, horizontal) to vertical and
    # (horizontal, vertical) to horizontal
    assert np.max(np.abs(a[:m, :m, :m])) <= TOL
    assert np.max(np.abs(a[:m, m, m])) <= TOL


# [DERIVED] canonical-variation relations: A^t on horizontal pairs is
# t-independent, on mixed pairs scales linearly in t; G^t is bit for bit
# G + (t−1)(Gu)(Gu)ᵀ with u the split frame's unit vertical.
@pytest.mark.parametrize("name,algebra,matrix", GEOMETRIES, ids=GEOMETRY_IDS)
@pytest.mark.parametrize("t", [1.0, 0.1, 0.003])
def test_variation_relations(name, algebra, matrix, t):
    metric, split = split_for(algebra, matrix)
    n = algebra.dim
    m = n - 1
    g_t = canonical_variation(metric, last_basis(n), t)
    gu = metric.matrix @ split.metric._frame[0][:, -1]
    assert g_t.matrix.tobytes() == (metric.matrix
                                    + (t - 1.0) * np.outer(gu, gu)).tobytes()
    base = oneill_tensors(algebra, metric, split)
    varied = oneill_tensors(algebra, g_t, split)
    assert np.max(np.abs(varied.a[:m, :m, :] - base.a[:m, :m, :])) <= TOL
    assert np.max(np.abs(varied.a[:m, m, :] - t * base.a[:m, m, :])) <= TOL
    assert np.max(np.abs(varied.t_tensor)) <= TOL


# [TRIVIAL] abelian algebras have A ≡ 0 and DA ≡ 0.
def test_abelian_tensors_vanish():
    z4 = catalog.abelian(4)
    metric, split = split_for(z4, SPD4)
    tensors = oneill_tensors(z4, metric, split)
    assert np.max(np.abs(tensors.a)) == 0.0
    assert np.max(np.abs(tensors.t_tensor)) == 0.0
    assert np.max(np.abs(tensors.da)) == 0.0


# [DERIVED] the base of the n4 peel is h3: base curvature from the quotient
# frame equals the directly computed h3 curvature (identity metric).
def test_n4_base_is_h3():
    metric, split = split_for(N4)
    c_base = frame_structure(N4, split)[:3, :3, :3]
    g_base = frame_metric(metric.matrix, split)[:3, :3]
    r_base = rescaled_curvature(c_base, np.ones(3))
    assert np.max(np.abs(c_base - structure_array(H3))) <= TOL
    assert np.max(np.abs(g_base - np.eye(3))) <= TOL
    r_h3 = rescaled_curvature(structure_array(H3), np.ones(3))
    assert np.max(np.abs(r_base - r_h3)) <= TOL


# [DERIVED] tilted h3: the quotient base is a flat plane (regression: the
# vertical bracket component must not leak into the base).
def test_tilted_h3_base_flat():
    _, split = split_for(H3, TILTED3)
    c_base = frame_structure(H3, split)[:2, :2, :2]
    r_base = rescaled_curvature(c_base, np.ones(2))
    assert np.max(np.abs(c_base)) <= TOL
    assert np.max(np.abs(r_base)) <= TOL
