"""Truncated Baker–Campbell–Hausdorff products via the Dynkin expansion.

For a nilpotent algebra of class c the series log(exp x · exp y) is a
polynomial: every bracket of depth > c vanishes. We precompute, once per
truncation bound, the rational coefficient of each right-nested bracket word

    [w_1, [w_2, [... [w_{d-1}, w_d] ...]]],   w_i in {x, y},

by summing the Dynkin formula

    log(e^x e^y) = sum_{m>=1} (-1)^{m-1}/m
                   sum_{blocks} [x^{r_1} y^{s_1} ... x^{r_m} y^{s_m}]
                                / (deg * prod_i r_i! s_i!)

over all block sequences (r_i + s_i >= 1) of total degree <= the bound.
Words whose last two letters agree are dropped ([u, u] = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple

from .algebra import NilAlgebra, VecQ, vec_zero
from .errors import ClassExceeded, DimensionMismatch

DEFAULT_CLASS_BOUND = 6

Word = Tuple[int, ...]  # letters 0 = x, 1 = y


@dataclass(frozen=True)
class BchTable:
    """Dynkin coefficients of all contributing bracket words up to a degree."""

    class_bound: int
    terms: Tuple[Tuple[Word, Fraction], ...]


def _dynkin_words(bound: int) -> Dict[Word, Fraction]:
    coeffs: Dict[Word, Fraction] = {}

    def visit(word: Word, n_blocks: int, factor: int) -> None:
        degree = len(word)
        if degree:
            sign = Fraction(-1) ** (n_blocks - 1)
            contribution = sign / n_blocks / (degree * factor)
            coeffs[word] = coeffs.get(word, Fraction(0)) + contribution
        if degree == bound:
            return
        room = bound - degree
        for r in range(room + 1):
            for s in range(room - r + 1):
                if r + s == 0:
                    continue
                visit(word + (0,) * r + (1,) * s,
                      n_blocks + 1,
                      factor * factorial(r) * factorial(s))

    visit((), 0, 1)
    return {w: c for w, c in coeffs.items()
            if c != 0 and not (len(w) >= 2 and w[-1] == w[-2])}


@lru_cache(maxsize=None)
def bch_table(class_bound: int = DEFAULT_CLASS_BOUND) -> BchTable:
    """The truncated Dynkin table; cached per bound."""
    if class_bound < 1:
        raise ClassExceeded(f"class bound must be >= 1, got {class_bound}")
    words = _dynkin_words(class_bound)
    ordered = tuple(sorted(words.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return BchTable(class_bound=class_bound, terms=ordered)


def evaluate_word(algebra: NilAlgebra, word: Word, x: VecQ, y: VecQ) -> VecQ:
    """Value of the right-nested bracket word at (x, y)."""
    args = (x, y)
    value = args[word[-1]]
    for letter in reversed(word[:-1]):
        value = algebra.bracket(args[letter], value)
    return value


def bch_product(algebra: NilAlgebra, x: VecQ, y: VecQ,
                table: BchTable | None = None) -> VecQ:
    """z with exp(z) = exp(x) exp(y), exact for class <= table bound."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch(
            f"bch arguments must have length {n}, got {len(x)} and {len(y)}")
    if table is None:
        table = bch_table(max(DEFAULT_CLASS_BOUND, algebra.declared_class))
    if algebra.declared_class > table.class_bound:
        raise ClassExceeded(
            f"algebra class {algebra.declared_class} exceeds table bound {table.class_bound}")
    out: List[Fraction] = list(vec_zero(n))
    for word, coeff in table.terms:
        if len(word) > algebra.declared_class:
            break  # terms are sorted by degree; deeper brackets vanish
        value = evaluate_word(algebra, word, x, y)
        for k in range(n):
            if value[k]:
                out[k] += coeff * value[k]
    return tuple(out)
