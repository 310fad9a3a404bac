"""Shared helpers: deterministic random rationals and vectors, the free
2-step algebras, the leads of a lower central series, and the environment
for child `python -m nilflat` processes."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nilflat
from nilflat.algebra import NilAlgebra, lower_central_series


def random_fraction(rng: random.Random, span: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_vec(rng: random.Random, n: int, span: int = 6, max_den: int = 4):
    return tuple(random_fraction(rng, span, max_den) for _ in range(n))


def free_two_step(r: int) -> NilAlgebra:
    """The free 2-step nilpotent algebra on r generators: [e_i, e_j] is a new
    central e_k for every i < j, in lexicographic order."""
    brackets, k = {}, r
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            k += 1
            brackets[(i, j)] = {k: 1}
    return NilAlgebra.from_brackets(k, 2, brackets)


def series_leads(algebra: NilAlgebra):
    """(leads, class) recomputed from the algebra's own lower central series:
    the least column of any row of each nonzero term."""
    chain, cls = lower_central_series(algebra)
    return tuple(min(c for row in term for c in row) for term in chain if term), cls


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def child_env():
    """Return a factory for the environment of a child `nilflat` process.

    The absolute directory holding the `nilflat` package this session
    imported goes first on PYTHONPATH, so the child runs the code under test
    from any cwd; an inherited PYTHONPATH (possibly relative, e.g. `src`) is
    kept after it.  Keyword arguments override variables, e.g.
    `child_env(OMP_NUM_THREADS="1")`.
    """
    package_root = str(Path(nilflat.__file__).resolve().parents[1])

    def make(**overrides):
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root + os.pathsep + inherited
                             if inherited else package_root)
        env.update(overrides)
        return env

    return make
