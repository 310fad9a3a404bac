"""Truncated Baker–Campbell–Hausdorff products by Varadarajan's recursion.

For a nilpotent algebra of class c the series log(exp x · exp y) is a
polynomial: it is Z_1 + ... + Z_c, where Z_d is its part of total degree d
in (x, y), because every bracket of depth > c vanishes. The homogeneous
parts obey (Varadarajan, *Lie Groups, Lie Algebras, and Their
Representations*, §2.15)

    Z_1 = x + y,
    (d+1)·Z_{d+1} = ½[x − y, Z_d] + Σ_{p>=1} (B_{2p}/(2p)!)·S(2p, d),

where S(0, 0) = x + y, S(0, m) = 0 for m > 0, and

    S(q, m) = Σ_{k>=1} [Z_k, S(q−1, m−k)]

is the sum of [Z_{k_1}, [... [Z_{k_q}, x + y] ...]] over k_1 + ... + k_q = m.
Every bracket is evaluated in the algebra through its sparse table, so the
product is exact at any class and costs O(c³) brackets.

The recursion starts from Z_2 = ½[x, y]. Every term of degree >= 2 is an
iterated bracket with [x, y] innermost, so when x and y commute the product
is x + y exactly, in any Lie algebra, and costs that one bracket.

The recursion runs on sparse rows {k: c}, zeros dropped (`_product`, which
`coords` calls); only `bch_product` builds dense n-tuples, at entry and exit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, Tuple

from .algebra import NilAlgebra, SparseRow, VecQ, _bracket, _dense, _sparse
from .errors import DimensionMismatch


@lru_cache(maxsize=None)
def _bernoulli_weight(m: int) -> Fraction:
    """B_m/m!, the coefficient of t^m in t/(e^t − 1)."""
    if m == 0:
        return Fraction(1)
    return -sum(_bernoulli_weight(k) / factorial(m - k + 1) for k in range(m))


def _combine(terms: Iterable[Tuple[Fraction, SparseRow]]) -> SparseRow:
    """Σ c·v over the (c, v) pairs."""
    out: SparseRow = {}
    for c, v in terms:
        for k, a in v.items():
            if c != 1:
                a = c * a
            out[k] = out[k] + a if k in out else a
    return {k: a for k, a in out.items() if a}


def _product(algebra: NilAlgebra, xs: SparseRow, ys: SparseRow) -> SparseRow:
    """z with exp(z) = exp(x) exp(y), on sparse rows with no zero entries,
    exact at the algebra's declared class."""
    top = algebra.declared_class
    xy = _bracket(algebra, xs, ys)
    z1 = dict(xs)  # x + y, adding only where both coordinates are nonzero
    for k, b in ys.items():
        z1[k] = z1[k] + b if k in z1 else b
    z = [{k: a for k, a in z1.items() if a}]  # z[d - 1] = Z_d
    if not xy:
        return z[0]
    half_diff = _combine(((Fraction(1, 2), xs), (Fraction(-1, 2), ys)))
    if top > 1:
        z.append(_combine([(Fraction(1, 2), xy)]))
    s: Dict[Tuple[int, int], SparseRow] = {(0, 0): z[0]}  # S(q, m); absent = 0
    for d in range(2, top):
        # S(q, d) for q <= d; Z_top needs only the even q.
        for q in range(1, d + 1):
            if d == top - 1 and q % 2:
                continue
            value = _combine((1, _bracket(algebra, z[k - 1], s[q - 1, d - k]))
                             for k in range(1, d - q + 2) if (q - 1, d - k) in s)
            if value:
                s[q, d] = value
        weight = Fraction(1, d + 1)
        z.append(_combine(
            [(weight, _bracket(algebra, half_diff, z[d - 1]))]
            + [(weight * _bernoulli_weight(p), s[p, d])
               for p in range(2, d + 1, 2) if (p, d) in s]))
    return _combine((1, zd) for zd in z)


def bch_product(algebra: NilAlgebra, x: VecQ, y: VecQ) -> VecQ:
    """z with exp(z) = exp(x) exp(y), exact at the algebra's declared class."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch(
            f"bch arguments must have length {n}, got {len(x)} and {len(y)}")
    return _dense(_product(algebra, _sparse(x), _sparse(y)), n)
