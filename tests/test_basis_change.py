"""Basis equivariance of the exact layer.

Oracle key: [DERIVED] let P be an integer lower unitriangular matrix times a
diagonal of signs, and f_a = Σ_i P_ia e_i. P keeps the flag
span(e_k, ..., e_n) and the lattice, so the basis f is again adapted, with
integer constants c′_ab^c = Σ P_ia P_jb c_ij^k (P⁻¹)_ck. Each term of the
lower central series is the same ideal, so validation returns the same
leads. The quotient by span(f_{m+1}, ..., f_n) is the level of dimension m
of both towers, in the basis given by the leading m×m block P_m. Its Euler
class in the new basis is ±P_mᵀ ω P_m plus a coboundary: the sign is that
of the fiber f_{m+1}, and the coboundary comes from the entries of P⁻¹ off
its diagonal.
"""

import random
from fractions import Fraction

import pytest

from nilflat import catalog
from nilflat.algebra import NilAlgebra, validate_algebra
from nilflat.tower import CentralCocycle, NilLattice, cocycles_cohomologous, peel_tower
from conftest import free_two_step

INPUTS = [("h3", catalog.heisenberg3()), ("n4", catalog.n4()),
          ("h5", catalog.heisenberg5()), ("h3xZ", catalog.h3_times_z()),
          ("filiform6", catalog.filiform(6)), ("filiform8", catalog.filiform(8)),
          ("free2_3", free_two_step(3))]
DRAWS = 5


def random_flag_basis(rng: random.Random, n: int):
    """P = L·S, L integer lower unitriangular with entries in [−2, 2], S a
    diagonal of signs; returns P and its inverse, also integral."""
    signs = [rng.choice((1, -1)) for _ in range(n)]
    p = [[(1 if i == a else rng.randint(-2, 2) if i > a else 0) * signs[a]
          for a in range(n)] for i in range(n)]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):  # P·inv = I, solved row by row downwards
        for i in range(a, n):
            rest = (1 if i == a else 0) - sum(p[i][k] * inv[k][a] for k in range(a, i))
            inv[i][a] = Fraction(rest, p[i][i])
    assert all(x.denominator == 1 for row in inv for x in row)
    return p, inv


def conjugate(algebra: NilAlgebra, p, inv) -> NilAlgebra:
    """The algebra in the basis f_a = Σ_i P_ia e_i."""
    n = algebra.dim
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            image = {}  # [f_a, f_b] in the basis e
            for (i, j), entry in algebra.brackets.items():
                c = p[i][a] * p[j][b] - p[j][a] * p[i][b]
                for k, coeff in entry.items():
                    image[k] = image.get(k, 0) + c * coeff
            terms = {c: sum(inv[c][k] * v for k, v in image.items()) for c in range(n)}
            brackets[(a, b)] = {c: v for c, v in terms.items() if v}
    return NilAlgebra(dim=n, declared_class=algebra.declared_class, brackets=brackets)


def pulled_back(cocycle: CentralCocycle, p) -> CentralCocycle:
    """P_mᵀ ω P_m, with P_m the leading m×m block of P."""
    m = cocycle.dim
    entries = {}
    for a in range(m):
        for b in range(a + 1, m):
            entries[(a, b)] = sum(value * (p[i][a] * p[j][b] - p[j][a] * p[i][b])
                                  for (i, j), value in cocycle.entries.items())
    return CentralCocycle(dim=m, entries=entries)


@pytest.mark.parametrize("name,algebra", INPUTS, ids=[name for name, _ in INPUTS])
def test_flag_preserving_basis_change(name, algebra):
    rng = random.Random(name)
    leads = validate_algebra(algebra)
    tower = peel_tower(NilLattice(algebra))
    for _ in range(DRAWS):
        p, inv = random_flag_basis(rng, algebra.dim)
        other = conjugate(algebra, p, inv)
        assert validate_algebra(other) == leads
        other_tower = peel_tower(NilLattice(other))
        assert len(other_tower.steps) == len(tower.steps)
        for step, other_step in zip(tower.steps, other_tower.steps):
            verdict = cocycles_cohomologous(other_step.base, other_step.cocycle,
                                            pulled_back(step.cocycle, p), up_to_sign=True)
            assert verdict.cohomologous, (name, step.base.dim, p)
