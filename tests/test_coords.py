"""First-kind ↔ second-kind coordinate conversion and lattice closure.

Oracle key: frozen literals are [DERIVED] by hand from the class-2 closed
form exp(a e1)exp(b e2)exp(c e3) = exp(a e1 + b e2 + (c + ab/2) e3).
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilflat import catalog, coords, fileio
from nilflat.algebra import (NilAlgebra, basis_vec, check_adapted,
                             check_jacobi, lower_central_series, vec,
                             vec_scale, vec_zero)
from nilflat.bch import bch_product
from nilflat.coords import (
    MalcevWord,
    _conjugated_word,
    first_to_second,
    lattice_closed,
    second_to_first,
    word_multiply,
)
from nilflat.errors import BasisNotAdapted, ValidationReport
from conftest import free_two_step, random_vec

H3 = catalog.heisenberg3()
N4 = catalog.n4()
DATA = Path(__file__).resolve().parent.parent / "data"


# [DERIVED] h3 frozen conversions.
def test_h3_frozen():
    word = first_to_second(H3, vec([1, 1, 0]))
    assert word.exponents == vec([1, 1, Fraction(-1, 2)])
    v = second_to_first(H3, MalcevWord(vec([1, 1, 1])))
    assert v == vec([1, 1, Fraction(3, 2)])


# [TRIVIAL] zero maps to zero both ways.
def test_zero():
    for algebra in (H3, N4, catalog.point()):
        n = algebra.dim
        assert first_to_second(algebra, vec_zero(n)).exponents == vec_zero(n)
        assert second_to_first(algebra, MalcevWord(vec_zero(n))) == vec_zero(n)


# [DERIVED] round-trip identity on random rational points, both directions.
def test_round_trip(rng):
    for algebra in (H3, N4, catalog.filiform(5), catalog.heisenberg5(),
                    catalog.h3_times_z()):
        n = algebra.dim
        for _ in range(20):
            v = random_vec(rng, n)
            assert second_to_first(algebra, first_to_second(algebra, v)) == v
            word = MalcevWord(random_vec(rng, n))
            assert first_to_second(algebra, second_to_first(algebra, word)) == word


# [DERIVED] central elements have identical coordinates of both kinds.
def test_central_coords_agree():
    for a in (Fraction(3), Fraction(-5, 7)):
        v = vec_scale(a, basis_vec(3, 2))
        assert first_to_second(H3, v).exponents == v


# [TRIVIAL] conversion demands an adapted basis.
def test_requires_adapted():
    bad = NilAlgebra.from_brackets(3, 2, {(1, 2): {1: 1}})
    with pytest.raises(BasisNotAdapted):
        first_to_second(bad, vec_zero(3))
    with pytest.raises(BasisNotAdapted):
        second_to_first(bad, MalcevWord(vec_zero(3)))


# [DERIVED] closure verdicts for class <= 2: integer structure constants
# close; the half-integral Heisenberg fails with a 1/2-denominator exponent
# at the descending product e2·e1.
def test_lattice_closed():
    for algebra in (H3, catalog.heisenberg5(), catalog.h3_times_z(),
                    catalog.abelian(3), catalog.point()):
        assert lattice_closed(algebra).ok
    report = lattice_closed(catalog.heisenberg3_scaled())
    assert not report.ok
    assert report.witness == (2, 1)
    assert any(a.denominator == 2 for a in report.defect)


# [DERIVED] class >= 3 reality check: collection denominators appear even
# with integer structure constants — exp(e2)exp(e1) in the filiform algebra
# has top second-kind exponent 1/2 (verified independently against a matrix
# representation), so the certificate reports exactly that product.
def test_lattice_closed_filiform_denominators():
    v = bch_product(N4, basis_vec(4, 1), basis_vec(4, 0))
    word = first_to_second(N4, v)
    assert word.exponents == vec([1, 1, -1, Fraction(1, 2)])
    report = lattice_closed(N4)
    assert not report.ok
    assert report.witness == (2, 1)


def integer_word_products(algebra, count=150):
    """How many of ``count`` products of random integer words (exponents in
    [−3, 3], drawn from a fixed seed) leave the integer points."""
    rng = random.Random(0)

    def word():
        return MalcevWord(tuple(Fraction(rng.randint(-3, 3)) for _ in range(algebra.dim)))

    return sum(not word_multiply(algebra, word(), word()).is_lattice
               for _ in range(count))


# [DERIVED] the certificate decides whether the integer second-kind points
# form a group, at class 3 and 4 too (see `lattice_closed`): filiform(4)
# with [e1, e3] = 2e4 passes and 150 products of random integer words stay
# integral; n4 and filiform(5) fail and some of those products leave the
# integers. In n4 the group the exp(e_i) generate contains exp(½e4) =
# g3·g2⁻¹·g1⁻¹·g2·g1.
def test_lattice_closed_decides_closure_beyond_class_two():
    doubled = NilAlgebra.from_brackets(4, 3, {(1, 2): {3: 1}, (1, 3): {4: 2}})
    assert lattice_closed(doubled).ok
    assert integer_word_products(doubled) == 0
    for algebra in (N4, catalog.filiform(5)):
        assert not lattice_closed(algebra).ok
        assert integer_word_products(algebra) > 0

    def g(k, s=1):
        return MalcevWord(tuple(Fraction(s * (i == k)) for i in range(4)))

    word = g(2)
    for factor in (g(1, -1), g(0, -1), g(1), g(0)):
        word = word_multiply(N4, word, factor)
    assert word.exponents == vec([0, 0, 0, Fraction(1, 2)])


# [DERIVED] at class 11 the certificate reports the same first descending
# product as in n4, in well under a second.
def test_lattice_closed_filiform12():
    start = time.perf_counter()
    report = lattice_closed(catalog.filiform(12))
    elapsed = time.perf_counter() - start
    assert not report.ok
    assert report.witness == (2, 1)
    assert elapsed < 0.5


def lattice_closed_full(algebra):
    """Reference: every generator inverse and every signed product
    g_i^{±1} g_j^{±1} with i != j, in that order, with the same report."""
    n = algebra.dim
    report = check_adapted(algebra)
    if not report:
        return report
    gens = [basis_vec(n, i) for i in range(n)]

    def offending(word):
        return next((idx for idx, a in enumerate(word.exponents)
                     if a.denominator != 1), None)

    for i, g in enumerate(gens):
        word = first_to_second(algebra, vec_scale(-1, g))
        bad = offending(word)
        if bad is not None:
            return ValidationReport(
                ok=False, check="lattice_closed",
                message=(f"e{i + 1}^-1 has non-integral exponent "
                         f"{word.exponents[bad]} at position {bad + 1}"),
                witness=(i + 1,), defect=word.exponents)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                word = first_to_second(algebra, bch_product(
                    algebra, vec_scale(si, gens[i]), vec_scale(sj, gens[j])))
                bad = offending(word)
                if bad is not None:
                    pow_i = "" if si == 1 else "^-1"
                    pow_j = "" if sj == 1 else "^-1"
                    return ValidationReport(
                        ok=False, check="lattice_closed",
                        message=(f"e{i + 1}{pow_i}·e{j + 1}{pow_j} has non-integral "
                                 f"exponent {word.exponents[bad]} at position {bad + 1}"),
                        witness=(i + 1, j + 1), defect=word.exponents)
    return ValidationReport(ok=True, check="lattice_closed")


def scaled(algebra, factor):
    return NilAlgebra(dim=algebra.dim, declared_class=algebra.declared_class,
                      brackets={p: {k: factor * c for k, c in terms.items()}
                                for p, terms in algebra.brackets.items()})


def closure_inputs():
    data = [(stem, fileio.load_algebra(DATA / f"{stem}.json"))
            for stem in ("h3", "h3_scaled", "h3_times_z", "h5", "n4", "z2", "z3")]
    families = ([(f"filiform{n}", catalog.filiform(n)) for n in range(3, 8)]
                + [(f"free{r}", free_two_step(r)) for r in (3, 4)])
    variants = [(f"{name}*{factor}", scaled(algebra, factor))
                for name, algebra in families
                for factor in (Fraction(1, 2), Fraction(3))]
    return data + families + variants


CLOSURE_INPUTS = closure_inputs()


# [DERIVED] on these inputs the one-product certificate gives the same report
# (verdict, message, witness and defect) as the full check of every inverse
# and every signed pair; on the random tables below it need not (see there).
@pytest.mark.parametrize("name,algebra", CLOSURE_INPUTS,
                         ids=[name for name, _ in CLOSURE_INPUTS])
def test_lattice_closed_matches_full_check(name, algebra):
    assert lattice_closed(algebra) == lattice_closed_full(algebra)


def random_adapted_tables(count, seed):
    """``count`` random adapted tables that satisfy Jacobi, drawn from a fixed
    seed: dim 3–6, one to five brackets [e_{i+1}, e_{j+1}] (i < j < n − 1),
    each with one or two components above e_{j+1}, coefficients from ±1, ±2
    and ±½, and the class their own lower central series gives."""
    rng = random.Random(seed)
    coeffs = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-1, 2)]
    tables = []
    while len(tables) < count:
        n = rng.randint(3, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n - 1)]
        brackets = {}
        for i, j in rng.sample(pairs, rng.randint(1, min(5, len(pairs)))):
            above = rng.sample(range(j + 1, n), rng.randint(1, min(2, n - 1 - j)))
            brackets[(i, j)] = {k: rng.choice(coeffs) for k in above}
        algebra = NilAlgebra(dim=n, declared_class=1, brackets=brackets)
        if check_jacobi(algebra):
            tables.append(NilAlgebra(dim=n, brackets=brackets,
                                     declared_class=lower_central_series(algebra)[1]))
    return tables


RANDOM_TABLES = random_adapted_tables(1000, seed=0)


# [DERIVED] one product per pair decides what every signed product decides
# (the collection argument in `lattice_closed`): on 1000 random adapted
# Jacobi tables with rational coefficients (514 failing) the verdict is the
# full check's. Where the full check first fails at some g_i·g_j, the
# reports are identical. Where it first fails at a signed product
# g_i^{±1}·g_j^{±1} whose g_i·g_j passes (4 tables here, e.g. e2·e1^-1 when
# [e1, e2] = −e3 − 2e4, [e1, e3] = −½e4, [e2, e3] = ½e4), the certificate
# names a later pair's g_i·g_j (there e3·e1).
def test_lattice_closed_verdict_on_random_tables():
    failing = signed = 0
    for algebra in RANDOM_TABLES:
        report, full = lattice_closed(algebra), lattice_closed_full(algebra)
        assert report.ok == full.ok, algebra
        failing += not full.ok
        if "^-1" in full.message:
            signed += 1
            assert "^-1" not in report.message
            assert report.witness > full.witness, algebra
        else:
            assert report == full, algebra
    assert failing > len(RANDOM_TABLES) // 4
    assert 0 < signed < failing // 20


def lattice_closed_by_products(algebra):
    """Reference: `lattice_closed` with each descending pair converted from
    the BCH product, first_to_second(bch_product(e_i, e_j))."""
    n = algebra.dim
    report = check_adapted(algebra)
    if not report:
        return report
    for j, i in sorted(algebra.brackets, key=lambda pair: (pair[1], pair[0])):
        word = first_to_second(
            algebra, bch_product(algebra, basis_vec(n, i), basis_vec(n, j)))
        bad = next((idx for idx, a in enumerate(word.exponents)
                    if a.denominator != 1), None)
        if bad is not None:
            return ValidationReport(
                ok=False, check="lattice_closed",
                message=(f"e{i + 1}·e{j + 1} has non-integral exponent "
                         f"{word.exponents[bad]} at position {bad + 1}"),
                witness=(i + 1, j + 1), defect=word.exponents)
    return ValidationReport(ok=True, check="lattice_closed")


CONJUGATION_INPUTS = ([(f"filiform{n}", catalog.filiform(n)) for n in range(3, 17)]
                      + [(f"free{r}", free_two_step(r)) for r in (3, 4)]
                      + [("n4", N4), ("h5", catalog.heisenberg5())]
                      + [(f"random{k}", algebra) for k, algebra in enumerate(RANDOM_TABLES)])


# [DERIVED] g_i·g_j collected as g_j·exp(e^{−ad e_j} e_i) is the word of the
# BCH product e_i ∘ e_j (second-kind coordinates are unique), for every
# descending non-commuting pair; so `lattice_closed` gives the report of the
# product path, message, witness and defect included. Filiform(3…16), free
# 2-step(3, 4), n4, h5 and the 1000 random adapted Jacobi tables above.
def test_conjugated_word_matches_product():
    for name, algebra in CONJUGATION_INPUTS:
        n = algebra.dim
        for j, i in algebra.brackets:
            product = bch_product(algebra, basis_vec(n, i), basis_vec(n, j))
            assert _conjugated_word(algebra, i, j) == first_to_second(algebra, product), \
                (name, i, j)
        assert lattice_closed(algebra) == lattice_closed_by_products(algebra), name


# [TRIVIAL] the series e^{−ad e_j} e_i stops after `declared_class` terms also
# where no term vanishes: on the adapted, non-nilpotent [e1, e2] = e2 declared
# class 1 (e^{−ad e1} e2 = e^{−1}·e2), `lattice_closed` returns the product
# path's ok. A series without the cap fails on the call count, not by hanging.
def test_lattice_closed_series_capped(monkeypatch):
    algebra = NilAlgebra.from_brackets(2, 1, {(1, 2): {2: 1}})
    calls = []
    real_bracket = coords._bracket

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 10, "series of e^{-ad e_j} e_i does not stop"
        return real_bracket(*args, **kwargs)

    monkeypatch.setattr(coords, "_bracket", counted)
    report = lattice_closed(algebra)
    assert report == lattice_closed_by_products(algebra)
    assert report.ok
    assert not calls
    # declared class 3: three terms, two applications of ad_{e1}
    lattice_closed(NilAlgebra.from_brackets(2, 3, {(1, 2): {2: 1}}))
    assert len(calls) == 2


# [DERIVED] the peel multiplies once per nonzero exponent: `lattice_closed`
# makes 3 sparse products on n4, 4 on h5 and 7 on filiform(8), the figures
# README states. n4 and filiform(8) stop at their first pair, e2·e1, whose
# word after g_1 has 3 and 7 nonzero exponents; h5 passes, with 2 on each
# of its 2 pairs.
def test_lattice_closed_product_count(monkeypatch):
    calls = []
    real_product = coords._product
    monkeypatch.setattr(coords, "_product",
                        lambda *args: calls.append(1) or real_product(*args))
    counts = []
    for algebra in (N4, catalog.heisenberg5(), catalog.filiform(8)):
        calls.clear()
        lattice_closed(algebra)
        counts.append(len(calls))
    assert counts == [3, 4, 7]


def first_to_second_unskipped(algebra, v):
    """Reference: the triangular peel with every factor exp(−a_k e_k)
    multiplied away, also the identity factors where a_k = 0."""
    n = algebra.dim
    exponents = []
    w = v
    for k in range(n):
        exponents.append(w[k])
        w = bch_product(algebra, vec_scale(-w[k], basis_vec(n, k)), w)
    assert w == vec_zero(n)
    return MalcevWord(exponents=tuple(exponents))


# [DERIVED] skipping the identity factors (a_k = 0) leaves every conversion
# unchanged: on each closure input, the descending generator products
# g_i^{±1}·g_j and random first-kind vectors, half their coordinates zero.
@pytest.mark.parametrize("name,algebra", CLOSURE_INPUTS,
                         ids=[name for name, _ in CLOSURE_INPUTS])
def test_first_to_second_matches_unskipped(name, algebra):
    n = algebra.dim
    rng = random.Random(name)
    gens = [basis_vec(n, i) for i in range(n)]
    inputs = [bch_product(algebra, vec_scale(si, gens[i]), vec_scale(sj, gens[j]))
              for i in range(n) for j in range(i)
              for si, sj in ((1, 1), (-1, 1))]
    for _ in range(8):
        v = random_vec(rng, n)
        inputs.append(tuple(a if rng.random() < 0.5 else Fraction(0) for a in v))
    for v in inputs:
        assert first_to_second(algebra, v) == first_to_second_unskipped(algebra, v)


# [DERIVED] fuzz: products of random generator words stay integral for
# class <= 2 (closure beyond the pairwise certificate).
def test_lattice_fuzz():
    rng = random.Random(7)
    for algebra in (H3, catalog.heisenberg5(), catalog.h3_times_z()):
        n = algebra.dim
        for _ in range(25):
            v = vec_zero(n)
            for _ in range(rng.randint(1, 6)):
                g = vec_scale(rng.choice([1, -1]), basis_vec(n, rng.randrange(n)))
                v = bch_product(algebra, v, g)
            assert first_to_second(algebra, v).is_lattice


# [DERIVED] group law in second-kind coordinates agrees with BCH.
def test_word_multiply(rng):
    for _ in range(10):
        a = MalcevWord(random_vec(rng, 3))
        b = MalcevWord(random_vec(rng, 3))
        va, vb = second_to_first(H3, a), second_to_first(H3, b)
        prod = word_multiply(H3, a, b)
        assert second_to_first(H3, prod) == bch_product(H3, va, vb)
