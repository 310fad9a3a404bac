"""Mal'cev coordinates of the first and second kind.

First-kind coordinates write an element of N = exp(n) as exp(v); second-kind
as the product exp(a_1 e_1) ··· exp(a_n e_n). On an adapted basis the
conversion is a triangular peel: a_1 is read off directly and the factor
exp(-a_1 e_1) is multiplied away, leaving an element of the subgroup
exp(span(e_2, ..., e_n)), and so on. Every product is an exact
`bch.bch_product`, so the conversions and `lattice_closed` work at any
nilpotency class. The lattice Γ is exactly the set of elements with integer
second-kind coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import NilAlgebra, VecQ, check_adapted, is_zero, vec_zero
from .bch import bch_product
from .errors import BasisNotAdapted, DimensionMismatch, ValidationReport


@dataclass(frozen=True)
class MalcevWord:
    """Second-kind coordinates: exponents (a_1, ..., a_n)."""

    exponents: VecQ

    @property
    def is_lattice(self) -> bool:
        return all(a.denominator == 1 for a in self.exponents)


def _axis(n: int, k: int, c: Fraction | int) -> VecQ:
    """c·e_{k+1} in dimension n."""
    v = list(vec_zero(n))
    v[k] = Fraction(c)
    return tuple(v)


def _require_adapted(algebra: NilAlgebra) -> None:
    report = check_adapted(algebra)
    if not report:
        raise BasisNotAdapted(report.message)


def first_to_second(algebra: NilAlgebra, v: VecQ) -> MalcevWord:
    """exp(v) = exp(a_1 e_1) ··· exp(a_n e_n); returns the a_i."""
    n = algebra.dim
    if len(v) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(v)}")
    _require_adapted(algebra)
    exponents = []
    w = v
    for k in range(n):
        a_k = w[k]
        exponents.append(a_k)
        if a_k:  # exp(0·e_k) is the identity
            w = bch_product(algebra, _axis(n, k, -a_k), w)
    assert is_zero(w), "triangular peel left a nonzero remainder"
    return MalcevWord(exponents=tuple(exponents))


def second_to_first(algebra: NilAlgebra, word: MalcevWord) -> VecQ:
    """Multiply out exp(a_1 e_1) ··· exp(a_n e_n) into exp(v); returns v."""
    n = algebra.dim
    if len(word.exponents) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(word.exponents)}")
    _require_adapted(algebra)
    v = vec_zero(n)
    for k in range(n - 1, -1, -1):
        v = bch_product(algebra, _axis(n, k, word.exponents[k]), v)
    return v


def lattice_closed(algebra: NilAlgebra) -> ValidationReport:
    """Certify that the integer second-kind points form a group.

    Checks every signed pairwise generator product g_i^{±1} g_j^{±1} for
    integral second-kind coordinates. On an adapted basis only the
    descending products (j < i) of non-commuting generators are converted.
    An inverse exp(−e_i) and an ascending product exp(±e_i) exp(±e_j) with
    i < j are already in second-kind form, with exponents ±1. So is a
    descending product of commuting generators: there
    exp(±e_i) exp(±e_j) = exp(±e_j ± e_i) = exp(±e_j) exp(±e_i), so it can
    never be the first failure. For class <= 2 this certificate is
    exact: it passes iff the structure constants are integers, and full
    closure follows (the test suite fuzzes longer words as well). For
    class >= 3 the certificate is honest but strict — collection of a
    descending product picks up the Baker–Campbell–Hausdorff denominators,
    so e.g. the standard filiform basis fails here (exp(e2)exp(e1) has a
    half-integral top exponent) even though a lattice generated by the basis
    one-parameter subgroups still exists. The tower machinery therefore
    gates on integer structure constants instead; see `tower.NilLattice`.
    """
    n = algebra.dim
    report = check_adapted(algebra)
    if not report:
        return report
    table = algebra.brackets
    for i in range(n):
        for j in range(i):
            if (j, i) not in table:  # e_i, e_j commute: already second kind
                continue
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                prod = bch_product(algebra, _axis(n, i, si), _axis(n, j, sj))
                word = first_to_second(algebra, prod)
                bad = next((idx for idx, a in enumerate(word.exponents)
                            if a.denominator != 1), None)
                if bad is not None:
                    pow_i = "" if si == 1 else "^-1"
                    pow_j = "" if sj == 1 else "^-1"
                    return ValidationReport(
                        ok=False, check="lattice_closed",
                        message=(f"e{i + 1}{pow_i}·e{j + 1}{pow_j} has non-integral "
                                 f"exponent {word.exponents[bad]} at position {bad + 1}"),
                        witness=(i + 1, j + 1), defect=word.exponents)
    return ValidationReport(ok=True, check="lattice_closed")


def word_multiply(algebra: NilAlgebra, a: MalcevWord, b: MalcevWord) -> MalcevWord:
    """Group law in second-kind coordinates (collection via BCH round-trip)."""
    va = second_to_first(algebra, a)
    vb = second_to_first(algebra, b)
    return first_to_second(algebra, bch_product(algebra, va, vb))
