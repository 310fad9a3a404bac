"""Property tests (hypothesis, derandomised).

Oracle key, exact layer: [DERIVED] `extend_by_cocycle` then `peel_step` is the
identity on (base, ω) for every integral closed ω, and the total is the
algebra whose 1-based bracket table is the base's plus ω(e_i, e_j)·e_{n+1}.
The cocycles are ω = a·ω_top + δλ: ω_top is the base's own peel cocycle read
as a form on the base (the pullback of a closed form is closed), δλ(x, y) =
−λ([x, y]) is a coboundary, a and λ are small random integers.

Oracle key, numerical layer: [DERIVED] the curvature every measurement uses, that of
diag(1, …, 1, t) in the split frame of `build_split`, against the ambient
curvature of `canonical_variation` in the original coordinates.  The two
share only the Koszul formula: one path transforms the structure constants
into the frame, the other the metric.  Random SPD seeds on h3, n4 and
filiform(5), t in [1e-6, 1], random planes that are not nearly degenerate in
G^t; agreement to 1e-9 relative, with an absolute floor of 1e-12 times the
largest orthonormal curvature component for planes whose |K| nearly cancels.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nilflat import catalog
from nilflat.algebra import NilAlgebra
from nilflat.metric import (LeftInvariantMetric, sectional_curvature,
                            sectional_from_tensor)
from nilflat.scan import _orthonormal
from nilflat.tower import CentralCocycle, NilLattice, extend_by_cocycle, peel_step
from nilflat.submersion import (build_split, canonical_variation,
                                frame_structure, split_curvature,
                                split_diagonal)

ALGEBRAS = {"h3": catalog.heisenberg3(), "n4": catalog.n4(),
            "filiform5": catalog.filiform(5)}

UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(ALGEBRAS)),
       t=st.floats(1e-6, 1.0),
       data=st.data())
def test_split_frame_curvature_matches_canonical_variation(name, t, data):
    algebra = ALGEBRAS[name]
    n = algebra.dim
    b = data.draw(arrays(np.float64, (n, n), elements=UNIT), label="B")
    metric = LeftInvariantMetric(matrix=np.eye(n) + b @ b.T)
    # the plane, in orthonormal coordinates of G^t, is kept well away from
    # degenerate: both curvatures are then well-conditioned
    a, c = data.draw(arrays(np.float64, (2, n), elements=UNIT), label="plane")
    assume((a @ a) * (c @ c) - (a @ c) ** 2 > 1e-3 * (a @ a) * (c @ c))

    z = np.zeros(n)
    z[n - 1] = 1.0
    split = build_split(metric, z)
    d = split_diagonal(n, t)
    a, c = a / np.sqrt(d), c / np.sqrt(d)
    r_split = split_curvature(frame_structure(algebra, split), t)
    k_split = sectional_from_tensor(r_split, np.diag(d), a, c)
    k_ambient = sectional_curvature(algebra, canonical_variation(metric, z, t),
                                    split.from_frame(a), split.from_frame(c))

    scale = float(np.max(np.abs(_orthonormal(r_split, t))))
    assert k_split == pytest.approx(k_ambient, rel=1e-9, abs=1e-12 * scale)


# 1-based tables: (dim, class, {(i, j): {k: c}})
BASES = {"h3": (3, 2, {(1, 2): {3: 1}}),
         "n4": (4, 3, {(1, 2): {3: 1}, (1, 3): {4: 1}}),
         "filiform5": (5, 4, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}),
         "heisenberg5": (5, 2, {(1, 2): {5: 1}, (3, 4): {5: 1}}),
         "z3": (3, 1, {})}

SMALL = st.integers(-3, 3)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(BASES)), a=SMALL, data=st.data())
def test_extend_then_peel_round_trips(name, a, data):
    n, cls, table = BASES[name]
    lam = data.draw(st.lists(SMALL, min_size=n, max_size=n), label="lambda")
    base = NilLattice(NilAlgebra.from_brackets(n, cls, table))
    top = {(i, j): v for i, j, v in peel_step(base).cocycle.upper_entries()}
    omega = {(i, j): a * top.get((i, j), 0)
             - sum(lam[k - 1] * c for k, c in table.get((i, j), {}).items())
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    cocycle = CentralCocycle.from_entries(n, omega)

    total = extend_by_cocycle(base, cocycle)
    step = peel_step(total)
    assert step.base == base
    assert step.cocycle == cocycle
    # ω is a coboundary, so the total is base × R and keeps the base's class;
    # zero ω entries are listed, and a zero term kept by the extension fails
    expected = {pair: dict(terms) for pair, terms in table.items()}
    for pair, value in omega.items():
        expected.setdefault(pair, {})[n + 1] = value
    assert total.algebra == NilAlgebra.from_brackets(n + 1, cls, expected)
