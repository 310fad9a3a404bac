"""BCH products by Varadarajan's recursion: frozen values, group laws,
closed forms at every class, truncation exactness.

Oracle key: [DERIVED] against the degree-4 closed form of the Hausdorff
series, the Bernoulli closed form on filiform algebras, exp/log of
nilpotent rational matrices (all independent of the recursion) and
group-law properties; [TRIVIAL] identity/inverse laws; frozen literals are
hand-computed.
"""

from fractions import Fraction
from math import factorial

from nilflat import bch, catalog
from nilflat.algebra import (NilAlgebra, basis_vec, validate_algebra, vec,
                             vec_add, vec_scale, vec_zero)
from nilflat.bch import bch_product
from conftest import random_vec

H3 = catalog.heisenberg3()
N4 = catalog.n4()
F5 = catalog.filiform(5)


# [TRIVIAL] class-2 closed form: x ∘ y = x + y + ½[x,y].
def test_h3_frozen():
    assert bch_product(H3, vec([1, 0, 0]), vec([0, 1, 0])) == vec([1, 1, Fraction(1, 2)])
    assert bch_product(H3, vec([0, 1, 0]), vec([1, 0, 0])) == vec([1, 1, Fraction(-1, 2)])


# [DERIVED] n4 degree-3 term: e1 ∘ e2 = (1, 1, 1/2, 1/12) — the 1/12 e4 comes
# from the [x,[x,y]] Hausdorff coefficient.
def test_n4_frozen():
    e1, e2 = basis_vec(4, 0), basis_vec(4, 1)
    assert bch_product(N4, e1, e2) == vec([1, 1, Fraction(1, 2), Fraction(1, 12)])


# [TRIVIAL] identity and inverse laws on random rational points.
def test_identity_and_inverse(rng):
    for algebra in (H3, N4, F5, catalog.filiform(6)):
        n = algebra.dim
        zero = vec_zero(n)
        for _ in range(15):
            x = random_vec(rng, n)
            assert bch_product(algebra, x, zero) == x
            assert bch_product(algebra, zero, x) == x
            assert bch_product(algebra, x, vec_scale(-1, x)) == zero


# [DERIVED] class-2 algebras: product equals x + y + ½[x,y] exactly.
def test_class2_closed_form(rng):
    for algebra in (H3, catalog.heisenberg5(), catalog.h3_times_z()):
        n = algebra.dim
        for _ in range(25):
            x, y = random_vec(rng, n), random_vec(rng, n)
            expected = vec_add(vec_add(x, y),
                               vec_scale(Fraction(1, 2), algebra.bracket(x, y)))
            assert bch_product(algebra, x, y) == expected


# [DERIVED] independent oracle: degree-4 Hausdorff closed form
#   x + y + ½[x,y] + 1/12 [x,[x,y]] − 1/12 [y,[x,y]] − 1/24 [y,[x,[x,y]]]
# exact on algebras of class ≤ 4 (filiform(5) has class exactly 4).
def test_degree4_closed_form(rng):
    for algebra in (H3, N4, F5, catalog.heisenberg5()):
        n = algebra.dim
        br = algebra.bracket
        for _ in range(25):
            x, y = random_vec(rng, n, span=4, max_den=3), random_vec(rng, n, span=4, max_den=3)
            xy = br(x, y)
            expected = vec_add(vec_add(x, y), vec_scale(Fraction(1, 2), xy))
            expected = vec_add(expected, vec_scale(Fraction(1, 12), br(x, xy)))
            expected = vec_add(expected, vec_scale(Fraction(-1, 12), br(y, xy)))
            expected = vec_add(expected, vec_scale(Fraction(-1, 24), br(y, br(x, xy))))
            assert bch_product(algebra, x, y) == expected


# [DERIVED] associativity is exact — the sharpest global test of the
# recursion; filiform(8) and filiform(11) reach class 7 and 10.
def test_associativity(rng):
    cases = [(H3, 30), (N4, 30), (F5, 30), (catalog.filiform(6), 8),
             (catalog.filiform(7), 4), (catalog.filiform(8), 3),
             (catalog.filiform(11), 2)]
    for algebra, rounds in cases:
        n = algebra.dim
        for _ in range(rounds):
            x = random_vec(rng, n, span=3, max_den=3)
            y = random_vec(rng, n, span=3, max_den=3)
            z = random_vec(rng, n, span=3, max_den=3)
            left = bch_product(algebra, bch_product(algebra, x, y), z)
            right = bch_product(algebra, x, bch_product(algebra, y, z))
            assert left == right


# [DERIVED] truncation exactness: declaring class c + 1 on the same brackets
# adds the degree-(c+1) part of the series, which vanishes in the algebra,
# so every product is unchanged.
def test_truncation_exact(rng):
    for algebra in (H3, N4, F5, catalog.filiform(8)):
        n = algebra.dim
        looser = NilAlgebra(dim=n, declared_class=algebra.declared_class + 1,
                            brackets=algebra.brackets)
        for _ in range(5):
            x, y = random_vec(rng, n), random_vec(rng, n)
            assert bch_product(algebra, x, y) == bch_product(looser, x, y)


# Bernoulli numbers B_0..B_14 with B_1 = +1/2 (the standard table).
BERNOULLI = [Fraction(1), Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30),
             0, Fraction(1, 42), 0, Fraction(-1, 30), 0, Fraction(5, 66), 0,
             Fraction(-691, 2730), 0, Fraction(7, 6)]


# [DERIVED] closed form at every class: span(e2, ..., en) is an abelian
# ideal of filiform(n) that ad_{e1} shifts (e_k -> e_{k+1}), so
# log(exp e1 · exp e2) = e1 + (ad/(1 − e^{−ad})) e2
#                      = e1 + Σ_{k=0}^{n−2} (B_k/k!)·e_{k+2}.
def test_filiform_bernoulli_closed_form():
    assert [BERNOULLI[k] / factorial(k) for k in range(7)] == [
        1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0,
        Fraction(1, 30240)]
    for n in (4, 8, 12, 16):
        algebra = catalog.filiform(n)
        expected = vec([1] + [BERNOULLI[k] / factorial(k) for k in range(n - 1)])
        assert bch_product(algebra, basis_vec(n, 0), basis_vec(n, 1)) == expected


def strictly_upper(m):
    """Strictly upper-triangular m×m matrices, basis E_ij ordered by height
    j − i (an adapted basis), [A, B] = AB − BA; class m − 1."""
    basis = [(i, i + h) for h in range(1, m) for i in range(m - h)]
    where = {pair: k for k, pair in enumerate(basis)}
    brackets = {}
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis[a + 1:], start=a + 1):
            terms = {}
            if j == k:
                terms[where[i, l]] = 1
            if l == i:
                terms[where[k, j]] = -1
            if terms:
                brackets[a, b] = terms
    algebra = NilAlgebra(dim=len(basis), declared_class=m - 1, brackets=brackets)
    return algebra, basis


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_series(x, coeffs):
    """Σ_k coeffs[k]·x^k for a nilpotent matrix x."""
    m = len(x)
    power = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    out = [[Fraction(0)] * m for _ in range(m)]
    for c in coeffs:
        out = [[o + c * p for o, p in zip(ro, rp)] for ro, rp in zip(out, power)]
        power = mat_mul(power, x)
    return out


# [DERIVED] matrix oracle at class 4 and 7: in strictly upper-triangular
# matrices exp and log are finite sums, so log(exp X · exp Y) is computed
# exactly without any BCH formula.
def test_matrix_exp_log_oracle(rng):
    for m in (5, 8):
        algebra, basis = strictly_upper(m)
        validate_algebra(algebra)  # raises if not a valid adapted algebra
        exp = [Fraction(1, factorial(k)) for k in range(m)]
        log = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, m)]

        def matrix(v):
            out = [[Fraction(0)] * m for _ in range(m)]
            for (i, j), c in zip(basis, v):
                out[i][j] = c
            return out

        for _ in range(4):
            x = random_vec(rng, algebra.dim, span=3, max_den=3)
            y = random_vec(rng, algebra.dim, span=3, max_den=3)
            g = mat_mul(mat_series(matrix(x), exp), mat_series(matrix(y), exp))
            for i in range(m):
                g[i][i] -= 1
            z = mat_series(g, log)
            assert bch_product(algebra, x, y) == tuple(z[i][j] for i, j in basis)


# [DERIVED] commuting x and y: every term of degree >= 2 is an iterated
# bracket with [x, y] innermost, so the product is exactly x + y, returned
# without running the recursion (no `_combine` call). Pairs in the abelian
# ideal span(e2, ..., e10) of filiform(10), a central x on h5, a zero x.
def test_commuting_pairs_add(rng, monkeypatch):
    combined = []
    real_combine = bch._combine
    monkeypatch.setattr(bch, "_combine",
                        lambda terms: combined.append(1) or real_combine(terms))
    f10, h5 = catalog.filiform(10), catalog.heisenberg5()
    cases = []
    for _ in range(10):
        x, y = random_vec(rng, 10), random_vec(rng, 10)
        cases.append((f10, (Fraction(0),) + x[1:], (Fraction(0),) + y[1:]))
        cases.append((h5, vec_scale(random_vec(rng, 1)[0], basis_vec(5, 4)),
                      random_vec(rng, 5)))
        cases.append((f10, vec_zero(10), x))
    for algebra, x, y in cases:
        assert bch_product(algebra, x, y) == vec_add(x, y)
        assert bch_product(algebra, y, x) == vec_add(y, x)
    assert not combined
    # a non-commuting pair still runs the recursion
    assert bch_product(h5, basis_vec(5, 0), basis_vec(5, 1)) == vec([1, 1, 0, 0, Fraction(1, 2)])
    assert combined


# [TRIVIAL] degenerate dim-0 algebra: the empty product.
def test_point_product():
    p = catalog.point()
    assert bch_product(p, (), ()) == ()
