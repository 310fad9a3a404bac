"""Mal'cev coordinates of the first and second kind.

First-kind coordinates write an element of N = exp(n) as exp(v); second-kind
as the product exp(a_1 e_1) ··· exp(a_n e_n). On an adapted basis the
conversion is a triangular peel: a_1 is read off directly and the factor
exp(-a_1 e_1) is multiplied away, leaving an element of the subgroup
exp(span(e_2, ..., e_n)), and so on. Every product is an exact BCH
product on sparse rows (`bch._product`), so the conversions work at any
nilpotency class. Dense n-tuples are built only for the public arguments,
results and `MalcevWord` exponents.

`lattice_closed` forms no product for a pair of non-commuting generators
g_i = exp(e_i), j < i: it collects g_i·g_j = g_j·exp(e^{−ad e_j} e_i)
directly. The series e^{−ad e_j} e_i is summed until a term vanishes, over
at most the declared class of terms, and only its exponential is peeled.
Where the certificate passes, the group Γ the g_i generate is exactly the
set of elements with integer second-kind coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (NilAlgebra, SparseRow, VecQ, _bracket, _dense, _sparse,
                      check_adapted)
from .bch import _combine, _product, bch_product
from .errors import DimensionMismatch, ValidationReport, _Record


class MalcevWord(_Record):
    """Second-kind coordinates: exponents (a_1, ..., a_n)."""

    _fields = ("exponents",)

    def __init__(self, exponents: VecQ):
        self.__dict__.update(exponents=exponents)

    @property
    def is_lattice(self) -> bool:
        return all(a.denominator == 1 for a in self.exponents)


def first_to_second(algebra: NilAlgebra, v: VecQ) -> MalcevWord:
    """exp(v) = exp(a_1 e_1) ··· exp(a_n e_n); returns the a_i."""
    n = algebra.dim
    if len(v) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(v)}")
    check_adapted(algebra).require()
    return MalcevWord(exponents=_dense(_peel(algebra, _sparse(v)), n))


def _peel(algebra: NilAlgebra, w: SparseRow) -> SparseRow:
    """The nonzero second-kind exponents {k: a_k} of exp(w), for w a sparse
    row with no zero entries, on a basis already known to be adapted."""
    exponents: SparseRow = {}
    for k in range(algebra.dim):
        a_k = w.get(k)
        if a_k:  # exp(0·e_k) is the identity
            exponents[k] = a_k
            w = _product(algebra, {k: -a_k}, w)
    assert not w, "triangular peel left a nonzero remainder"
    return exponents


def second_to_first(algebra: NilAlgebra, word: MalcevWord) -> VecQ:
    """Multiply out exp(a_1 e_1) ··· exp(a_n e_n) into exp(v); returns v."""
    n = algebra.dim
    if len(word.exponents) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(word.exponents)}")
    check_adapted(algebra).require()
    v: SparseRow = {}
    for k, a in reversed(_sparse(word.exponents).items()):
        v = _product(algebra, {k: a}, v)
    return _dense(v, n)


def _conjugated_word(algebra: NilAlgebra, i: int, j: int) -> MalcevWord:
    """Second-kind word of g_i·g_j = g_j·exp(u), u = e^{−ad e_j} e_i, for the
    0-based positions j < i, on a basis already known to be adapted
    (`lattice_closed` checks it once).

    u = Σ_m (−1)^m/m!·ad_{e_j}^m e_i, summed until a term vanishes and over
    at most `declared_class` terms: ad_{e_j}^c e_i is a bracket of depth
    c + 1, zero at class c, and the cap ends the series also on an adapted
    table that is not nilpotent. On an adapted basis u has no component at
    positions <= j, so the word is u's with exponent 1 at position j.
    """
    one = Fraction(1)
    terms = [{i: one}]
    for m in range(1, algebra.declared_class):
        term = _bracket(algebra, {j: Fraction(-1, m)}, terms[-1])
        if not term:
            break
        terms.append(term)
    u = _combine((1, term) for term in terms)
    return MalcevWord(exponents=_dense({j: one, **_peel(algebra, u)}, algebra.dim))


def lattice_closed(algebra: NilAlgebra) -> ValidationReport:
    """Decide whether the integer second-kind points form a group.

    Converts g_i·g_j, g_i = exp(e_i), for each descending pair j < i of
    non-commuting generators, collected directly as g_j·exp(e^{−ad e_j} e_i)
    with the series capped at the declared class (`_conjugated_word`); the
    first pair in (i, j) order with a non-integral second-kind coordinate
    is the witness. Inverses, ascending products exp(±e_i) exp(±e_j)
    (i < j) and descending ones of commuting generators,
    exp(±e_i) exp(±e_j) = exp(±e_j) exp(±e_i), are already in second-kind
    form, with exponents ±1.

    The verdict is exact at every class, by collection. Let Γ_k be the
    integer points exp(a_k e_k) ··· exp(a_n e_n), so Γ = Γ_1, and
    φ_k(x) = g_k⁻¹·x·g_k, which keeps each N_m = exp(span(e_m, ..., e_n)),
    m > k. For j > k, g_j g_k = g_k φ_k(g_j), so the pair passes iff
    φ_k(g_j) ∈ Γ_{k+1}. If every pair passes, descend on k: Γ_n = g_n^Z is
    a group; if Γ_{k+1} is one, the g_j (j > k) generate it, so φ_k maps it
    into itself, keeping each Γ_m = Γ_{k+1} ∩ N_m and acting as the
    identity on Γ_m/Γ_{m+1} ≅ ℤ (the e_m-coordinate of exp(e^{−ad e_k} e_m)
    is 1). So φ_k maps Γ_{k+1} onto itself, every signed product
    g_j^{±1} g_k^{±1} passes too, and Γ_k = g_k^Z Γ_{k+1} is a group. Where
    the lattice fails, a signed product of an earlier pair may fail before
    the first g_j·g_k does. A failure means the group the g_i generate is
    larger than Γ. At class <= 2 the certificate passes iff the structure
    constants are integers. At class >= 3 that does not suffice: in n4,
    exp(e2)exp(e1) has top exponent 1/2 and the g_i generate exp(½e4). The
    tower machinery gates on integer structure constants alone; see
    `tower.NilLattice`.
    """
    report = check_adapted(algebra)
    if not report:
        return report
    # the stored pairs (j, i), j < i, are the non-commuting ones
    for j, i in sorted(algebra.brackets, key=lambda pair: (pair[1], pair[0])):
        word = _conjugated_word(algebra, i, j)
        bad = next((idx for idx, a in enumerate(word.exponents)
                    if a.denominator != 1), None)
        if bad is not None:
            return ValidationReport(
                ok=False, check="lattice_closed",
                message=(f"e{i + 1}·e{j + 1} has non-integral exponent "
                         f"{word.exponents[bad]} at position {bad + 1}"),
                witness=(i + 1, j + 1), defect=word.exponents)
    return ValidationReport(ok=True, check="lattice_closed")


def word_multiply(algebra: NilAlgebra, a: MalcevWord, b: MalcevWord) -> MalcevWord:
    """Group law in second-kind coordinates (collection via BCH round-trip)."""
    va = second_to_first(algebra, a)
    vb = second_to_first(algebra, b)
    return first_to_second(algebra, bch_product(algebra, va, vb))
