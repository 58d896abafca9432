"""Polynomial terms as arrays: the arithmetic under ``Polynomial``.

A term list is an int64 array of exponent vectors, a row each, and their
``Coefficients``.  A coefficient keeps the type Python arithmetic gives it:
a float, or an int or a Fraction held as an integer numerator over one
denominator, so that exact sums and products form no Fraction per term.
``product_groups`` groups products of monomials by their value and numbers
the groups in graded-lex order (one packing of their total degree and
exponents, or a lexsort when it does not fit in an int64), and gives each
group's exponent vector.  ``outer`` multiplies two term lists as the loop
over their pairs does, and ``fold`` sums the terms of each group in the
order they come, with the types and the float sums of that loop, bit for
bit, and gives the groups in group order: so a result's terms come in
graded-lex order.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# a total degree must stay below this bound, so that the sum of an int64 row does not wrap
DEGREE_BOUND = 2**63
DEGREE_ERROR = "a monomial has total degree 2^63 or more"


def _check_degrees(rows: np.ndarray) -> None:
    """ValueError unless every row's total degree is below 2^63; the rows
    are summed exactly only when their largest exponent allows a wrap."""
    if len(rows) and int(rows.max()) >= DEGREE_BOUND // rows.shape[1] and \
            max(map(sum, rows.tolist())) >= DEGREE_BOUND:
        raise ValueError(DEGREE_ERROR)


def exponent_rows(monos: Sequence[tuple[int, ...]], num_vars: int) -> np.ndarray:
    """The exponent vectors of checked monomials as one int64 array, a row
    each.  Raises ValueError for an exponent or a total degree of 2^63 or
    more."""
    try:
        flat = np.fromiter(itertools.chain.from_iterable(monos), np.int64, count=len(monos) * num_vars)
    except OverflowError:
        raise ValueError("an exponent reaches 2^63") from None
    rows = flat.reshape(len(monos), num_vars)
    _check_degrees(rows)
    return rows


def product_groups(factors: Sequence[tuple[np.ndarray, np.ndarray]],
                   num_vars: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The products of monomials grouped by their value: for each pair (a, b)
    of exponent-vector arrays, the group of each product a[i] + b[j],
    row-major, and the exponent vector of each group, a row each.  Groups
    are shared across the pairs and numbered in graded-lex order (total
    degree first, then descending x1, x2, ...: ``polynomial.grlex_key``).
    A product's key is its total degree times 2^(n w) minus its exponents
    packed as digits of w bits, x1 most significant (w the bit length of
    the largest product exponent), when (n + 1) w + bits(n) <= 62: packing
    is linear without carries, so the key of a product is the sum of its
    factors' keys, the keys sort in graded-lex order, and a group's
    exponents are the low digits of minus its key.  Else the products are
    grouped by a lexsort with the total degree as first key.  Raises
    ValueError for a product of total degree 2^63 or more."""
    # Python ints: a sum of two int64 maxima may overflow; a product whose
    # factors' maxima sum to 2^63 has a total degree of 2^63 or more
    largest = max((int(a.max()) + int(b.max()) for a, b in factors if len(a) and len(b)), default=0)
    if largest >= DEGREE_BOUND:
        raise ValueError(DEGREE_ERROR)
    ends = list(itertools.accumulate(len(a) * len(b) for a, b in factors))
    width = largest.bit_length()
    packed = (num_vars + 1) * width + num_vars.bit_length() <= 62
    if packed:
        shifts = np.arange(num_vars - 1, -1, -1, dtype=np.int64) * width
        weights = (1 << num_vars * width) - (1 << shifts)  # the key of each variable
        keys = np.concatenate([np.zeros(0, np.int64),
                               *(((a @ weights)[:, None] + b @ weights).reshape(-1) for a, b in factors)])
        order = keys.argsort()
        ordered = keys[order]
        change = ordered[1:] != ordered[:-1]
    else:
        products = np.concatenate([np.zeros((0, num_vars), np.int64),
                                   *((a[:, None, :] + b[None, :, :]).reshape(-1, num_vars) for a, b in factors)])
        # a total degree that wraps groups equal vectors still, and is refused below
        order = np.lexsort([*-products[:, ::-1].T, products.sum(axis=1)])
        ordered = products[order]
        change = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = change
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    rows = ordered[starts]
    if packed:  # minus a key is its digits modulo 2^(n w)
        rows = (-rows[:, None] >> shifts) & ((1 << width) - 1)
    _check_degrees(rows)
    return [group[end - len(a) * len(b):end] for (a, b), end in zip(factors, ends)], rows


# the type of a coefficient, ordered so that an exact sum or product has the
# larger kind of its operands
INT, FRACTION, FLOAT = 0, 1, 2


@dataclass(frozen=True)
class Coefficients:
    """Coefficients as Python arithmetic types them: the kind of each (int,
    Fraction or float), the value of each float one in ``fl``, and the value
    of each exact one as an integer numerator in ``num`` over one
    denominator ``den``.  ``num`` is None when none is exact; the other
    array holds 0 where it does not apply."""

    kind: np.ndarray  # int8
    fl: np.ndarray
    num: np.ndarray | None = None  # object array of Python ints
    den: int = 1

    @classmethod
    def of(cls, values: Sequence[int | float | Fraction]) -> "Coefficients":
        """The coefficients of Python numbers: a float (of any float type)
        stays a float, a Fraction a Fraction, and any other value is read as
        an integer (``operator.index``), which raises TypeError for a value
        that is none of the three."""
        if set(map(type, values)) <= {float}:
            return cls(np.full(len(values), FLOAT, dtype=np.int8), np.array(values, dtype=float))
        kind = [FLOAT if isinstance(v, float) else FRACTION if isinstance(v, Fraction) else INT
                for v in values]
        values = [v if k else operator.index(v) for v, k in zip(values, kind)]
        den = math.lcm(*(v.denominator for v, k in zip(values, kind) if k == FRACTION))
        return cls(np.array(kind, dtype=np.int8),
                   np.array([v if k == FLOAT else 0.0 for v, k in zip(values, kind)], dtype=float),
                   np.array([0 if k == FLOAT else v.numerator * (den // v.denominator)
                             for v, k in zip(values, kind)], dtype=object),
                   den)

    def take(self, index: np.ndarray) -> "Coefficients":
        """The coefficients at ``index``, in that order."""
        kind = self.kind[index]
        exact = self.num is not None and (kind != FLOAT).any()
        return Coefficients(kind, self.fl[index], self.num[index] if exact else None, self.den)

    def values(self) -> list[int | float | Fraction]:
        """The coefficients as Python numbers: floats, ints and Fractions."""
        out = self.fl.tolist()
        if self.num is not None:
            den = self.den
            for i, (k, n) in enumerate(zip(self.kind.tolist(), self.num.tolist())):
                if k != FLOAT:
                    out[i] = Fraction(n, den) if k == FRACTION else n // den
        return out

    def floats(self) -> np.ndarray:
        """Each coefficient as a float: an exact one as num / den, which int
        true division rounds correctly, as float() of its int or Fraction does."""
        if self.num is None:
            return self.fl
        exact = self.kind != FLOAT
        out = self.fl.copy()
        out[exact] = self.num[exact] / self.den
        return out

    def numerators(self, den: int) -> np.ndarray:
        """The numerators over a multiple ``den`` of this denominator; 0 for a float."""
        if self.num is None:
            return np.zeros(len(self.kind), dtype=object)
        return self.num if den == self.den else self.num * (den // self.den)

    def __neg__(self) -> "Coefficients":
        return Coefficients(self.kind, -self.fl, None if self.num is None else -self.num, self.den)


def concat(*parts: Coefficients) -> Coefficients:
    """The coefficients of ``parts``, one after another, exact ones over the
    least common denominator."""
    kind, fl = np.concatenate([c.kind for c in parts]), np.concatenate([c.fl for c in parts])
    if all(c.num is None for c in parts):
        return Coefficients(kind, fl)
    den = math.lcm(*(c.den for c in parts))
    return Coefficients(kind, fl, np.concatenate([c.numerators(den) for c in parts]), den)


def outer(a: Coefficients, b: Coefficients) -> Coefficients:
    """The products a[i] * b[j], row-major, as Python multiplies them: exact
    when both are, else the float product of their floats."""
    kind = np.maximum.outer(a.kind, b.kind).reshape(-1)
    fl = np.zeros(len(kind))
    if (kind == FLOAT).any():
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as Python floats give them
            fl = np.multiply.outer(a.floats(), b.floats()).reshape(-1)
    if a.num is None or b.num is None:  # a float meets every product
        return Coefficients(kind, fl)
    return Coefficients(kind, fl, np.multiply.outer(a.num, b.num).reshape(-1), a.den * b.den)


def fold(group: np.ndarray, c: Coefficients, size: int) -> tuple[np.ndarray, Coefficients]:
    """The terms of each group (of ``size``) summed in the order they come,
    as ``d[m] = c if m not in d else d[m] + c`` sums them term after term:
    the groups that hold a nonzero sum, in group order.  A sum is exact
    while its terms are; at its first float term, the exact sum so far
    becomes a float once, and each later exact term becomes one when it is
    added.  ``np.bincount`` adds in that order from 0.0, which changes no
    nonzero sum, so a float sum is that of the loop, bit for bit."""
    if c.num is None:
        fl = np.bincount(group, weights=c.fl, minlength=size)
        present = fl.nonzero()[0]  # NaN is kept, as its truth value keeps it
        return present, Coefficients(np.full(len(present), FLOAT, dtype=np.int8), fl[present])
    m = len(group)
    position = np.arange(m)
    is_float = c.kind == FLOAT
    first_float = np.full(size, m)
    np.minimum.at(first_float, group[is_float], position[is_float])
    lead = ~is_float & (position < first_float[group])  # the exact terms before a sum's first float
    exact = np.zeros(size, dtype=object)
    np.add.at(exact, group[lead], c.num[lead])
    kind = np.zeros(size, dtype=np.int8)  # INT, but FRACTION where a Fraction leads the sum
    kind[group[lead & (c.kind == FRACTION)]] = FRACTION
    floated = first_float < m
    fl = np.zeros(size)
    if floated.any():
        w = np.where(is_float, c.fl, 0.0)
        late = ~is_float & ~lead
        w[late] = c.num[late] / c.den
        # an exact part that leads a sum enters as one float, at the place of
        # one of its terms: all of them come before the first float
        at = np.full(size, -1)
        at[group[lead]] = position[lead]
        carried = (floated & (at >= 0)).nonzero()[0]
        w[at[carried]] = exact[carried] / c.den
        fl = np.bincount(group, weights=w, minlength=size)
        kind[floated], exact[floated] = FLOAT, 0
    present = np.where(kind == FLOAT, fl != 0, exact != 0).nonzero()[0]
    kind = kind[present]
    num = exact[present] if (kind != FLOAT).any() else None
    return present, Coefficients(kind, fl[present], num, c.den)
