"""Sparse multivariate polynomials on exponent arrays.

A polynomial holds its terms as two arrays: the exponent vector of each
term, a row of one read-only int64 array, and their coefficients
(``termarrays.Coefficients``).  A coefficient is an ``int``, a ``float`` or
a ``fractions.Fraction``, and arithmetic gives it the type Python arithmetic
would, so identity checks can be run exactly with rationals while
solver-facing code works in floats.  The rows come in one order, strictly
ascending in graded-lex order (``grlex_key``): the constructors sort them,
and a sum or product groups the terms of its operands by monomial in that
order (``termarrays.product_groups``) and sums each group term after term
(``termarrays.fold``), the zeros dropped.  So every sum, product, norm and
point value is a function of the polynomial, not of how its terms were
written.  ``Polynomial.sum`` adds many polynomials with one grouping and
one fold.  ``terms`` is the dict view of the same terms, built on first
use.  Values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .termarrays import FLOAT, INT, Coefficients, concat, exponent_rows, fold, outer, product_groups

Monomial = tuple[int, ...]
Coeff = Union[int, float, Fraction]


# a decimal literal; a number is a signed literal, or p/q of a signed literal by a literal
LITERAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(rf"\s*([-+]?{LITERAL})\s*(?:/\s*({LITERAL})\s*)?")
_ZERO_RE = re.compile(r"[-+]?[0.]*(?:[eE].*)?")  # a literal whose value is 0
# the magnitudes that round to 0 and to infinity as a float; the float range lies between
_TINY, _HUGE = Fraction(1, 2 ** 1075), Fraction(2 ** 1024 - 2 ** 970)


class NumberError(ValueError):
    """A number ``read_number`` refuses; ``at`` is the offset of the part at fault."""

    def __init__(self, message: str, at: int = 0):
        super().__init__(message)
        self.at = at


def read_number(text: str, exact: bool) -> Coeff:
    """The value of a decimal literal such as "-1.25e-3", or of p/q of two
    (only p signed; blanks around either): as ``float()`` reads each literal
    (p/q is their float quotient), or exactly as a Fraction.  In both modes
    each literal and quotient that is not 0 must read as a finite nonzero
    float, 4.9e-324 to 1.8e308 in magnitude, or NumberError is raised."""
    num, slash, den = text.partition("/")
    # At once, a literal or p/q by an integer q: without "_", int() and float() read no text the
    # grammar refuses but inf and nan (out of range); p/q of integers of <= 308 digits is in range
    if "_" not in num and (not slash or den.isdecimal()):
        try:
            if exact and len(text) <= 308:
                return Fraction(int(num), int(den) if slash else 1)
            value = float(num) / float(den) if slash else float(num)
            if not exact and 0 < abs(value) < math.inf:
                return value
        except (ValueError, ZeroDivisionError):  # not of these forms, or q = 0: read below
            pass
    m = _NUMBER_RE.fullmatch(text)
    if m is None:
        raise NumberError(f"malformed number {text!r}")
    num = _literal(m[1], exact, m.start(1))
    if m[2] is None:
        return num
    den = _literal(m[2], exact, m.start(2))
    if not den:
        raise NumberError(f"division by zero in {text.strip()!r}", m.start(2))
    return _in_range(num / den, not num, text.strip(), m.start(1))


def _literal(text: str, exact: bool, at: int) -> Coeff:
    zero = _ZERO_RE.fullmatch(text)
    value = _in_range(float(text), zero, text, at)  # float() builds no 10^e
    if not exact:
        return value
    return Fraction(0) if zero else Fraction(Decimal(text))  # a zero's exponent may exceed Decimal's


def _in_range(value: Coeff, zero, text: str, at: int) -> Coeff:
    """value, if it is ``zero`` or reads as a finite nonzero float: a float
    itself, a Fraction by the magnitudes that round to 0 and to infinity."""
    if zero or (0 < abs(value) < math.inf if isinstance(value, float) else _TINY < abs(value) < _HUGE):
        return value
    shown = text if len(text) <= 40 else f"{text[:12]}... ({len(text)} characters)"
    raise NumberError(f"{shown} lies beyond the float range", at)


def write_number(v: Coeff) -> str | float:
    """A Fraction as the string "p/q", which ``read_number`` reads back exactly, else a float."""
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else float(v)


def check_monomial(mono: Monomial, num_vars: int) -> None:
    """ValueError unless mono is a vector of num_vars non-negative integers."""
    if len(mono) != num_vars:
        raise ValueError(f"exponent vector {mono} has length {len(mono)}, expected {num_vars}")
    if any((not isinstance(e, int)) or e < 0 for e in mono):
        raise ValueError(f"exponents must be non-negative integers: {mono}")


def grlex_key(mono: Monomial):
    """Graded-lexicographic sort key: total degree first, then x1 > x2 > ...

    Gives the canonical ordering 1, x1, x2, x1^2, x1*x2, x2^2, ...
    """
    return (sum(mono), tuple(-e for e in mono))


class Polynomial:
    """Immutable sparse polynomial in a fixed number of variables.

    ``rows`` holds the exponent vector of each term, strictly ascending in
    graded-lex order, ``coeffs`` their coefficients, none of them zero.  The
    zero polynomial has no terms and, by convention, degree 0.  The
    constructor checks every exponent vector and refuses a total degree of
    2^63 or more, as a product does; it reads a coefficient of another float
    type as a float and one of another integer type as an int.  Arithmetic builds its results through
    ``from_arrays``, which does not check them again.
    """

    __slots__ = ("num_vars", "rows", "coeffs", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[Monomial, Coeff] | None = None):
        if num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {num_vars}")
        clean: dict[Monomial, Coeff] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                check_monomial(mono, num_vars)
                if coeff == 0:
                    continue
                if mono in clean:
                    s = clean[mono] + coeff
                    if s == 0:
                        del clean[mono]
                    else:
                        clean[mono] = s
                else:
                    clean[mono] = coeff
        self._init(num_vars, *_grlex_arrays(clean, num_vars))

    def _init(self, num_vars: int, rows: np.ndarray, coeffs: Coefficients) -> None:
        rows.flags.writeable = False
        for name, value in (("num_vars", num_vars), ("rows", rows), ("coeffs", coeffs), ("_terms", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_arrays(cls, num_vars: int, rows: np.ndarray, coeffs: Coefficients) -> "Polynomial":
        """The polynomial of distinct checked exponent rows, strictly
        ascending in graded-lex order (it makes them read-only), and of their
        nonzero coefficients."""
        p = object.__new__(cls)
        p._init(num_vars, rows, coeffs)
        return p

    @classmethod
    def _from_checked(cls, num_vars: int, terms: Mapping[Monomial, Coeff]) -> "Polynomial":
        """The polynomial of ``terms``, whose exponent vectors are already
        checked tuples; zero coefficients are dropped.  The truth value keeps
        what ``c != 0`` keeps, NaN included, without a ``Fraction.__eq__``
        call per term."""
        return cls.from_arrays(num_vars, *_grlex_arrays({m: c for m, c in terms.items() if c}, num_vars))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: Coeff) -> "Polynomial":
        return cls(num_vars, {tuple([0] * num_vars): value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        mono = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, {mono: 1})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """The terms as a dict from exponent tuples to coefficients, in graded-lex order."""
        if self._terms is None:
            object.__setattr__(self, "_terms", dict(zip(map(tuple, self.rows.tolist()), self.coeffs.values())))
        return self._terms

    def is_zero(self) -> bool:
        return not len(self.rows)

    def degree(self) -> int:
        return int(self.rows.sum(axis=1).max()) if len(self.rows) else 0

    def coefficient(self, mono: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(mono), 0)

    def l1_norm(self) -> Coeff:
        """Sum of absolute coefficient values: of exact ones, one integer sum
        over their denominator (an int when all are ints, else a Fraction);
        else the builtin sum, term after term in graded-lex order."""
        c = self.coeffs
        if c.num is None or (c.kind == FLOAT).any():
            return sum(map(abs, c.values()), 0)
        total = sum(map(abs, c.num.tolist()))
        return total // c.den if (c.kind == INT).all() else Fraction(total, c.den)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"dimension mismatch: {self.num_vars} vs {other.num_vars} variables"
            )

    def _sum(self, factors: list[tuple[np.ndarray, np.ndarray]], coeffs: Coefficients) -> "Polynomial":
        """The polynomial of the terms whose monomials are the products of
        ``factors`` (``product_groups``), with ``coeffs``, each monomial's
        terms summed in the order they come (``fold``)."""
        groups, rows = product_groups(factors, self.num_vars)
        present, sums = fold(np.concatenate(groups), coeffs, len(rows))
        return Polynomial.from_arrays(self.num_vars, rows[present], sums)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        return Polynomial.sum([self, other], self.num_vars)

    @classmethod
    def sum(cls, polys: Sequence["Polynomial"], num_vars: int) -> "Polynomial":
        """The sum of polynomials in ``num_vars`` variables, by one grouping
        of all their terms and one fold: each monomial's terms summed in the
        order of the polynomials, with the values and types of adding them
        one after another.  One exception: a monomial whose sum cancels to
        exactly 0 part way, and which a later polynomial brings back, keeps
        the type of its first terms' sum (a Fraction 1 where adding one
        after another drops the 0 and gives the int 1 of the later term)."""
        for p in polys:
            if p.num_vars != num_vars:
                raise ValueError(f"dimension mismatch: {p.num_vars} vs {num_vars} variables")
        polys = [p for p in polys if not p.is_zero()]  # adding the zero polynomial changes nothing
        if len(polys) < 2:
            return polys[0] if polys else cls.zero(num_vars)
        one = np.zeros((1, num_vars), dtype=np.int64)
        return polys[0]._sum([(p.rows, one) for p in polys], concat(*(p.coeffs for p in polys)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_arrays(self.num_vars, self.rows, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return self._sum([(self.rows, other.rows)], outer(self.coeffs, other.coeffs))
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Coeff) -> "Polynomial":
        m = len(self.rows)
        present, products = fold(np.arange(m), outer(self.coeffs, Coefficients.of([factor])), m)
        return Polynomial.from_arrays(self.num_vars, self.rows[present], products)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.num_vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- structural operations ----------------------------------------------

    def evaluate(self, point: Sequence[Coeff]) -> Coeff:
        """Evaluate at a point; exact when coefficients and point are exact."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: point has length {len(point)}, expected {self.num_vars}"
            )
        total: Coeff = 0
        for mono, coeff in self.terms.items():
            term = coeff
            for xi, e in zip(point, mono):
                if e:
                    term = term * xi**e
            total = total + term
        return total

    def top_component(self) -> "Polynomial":
        """Highest-degree homogeneous part; undefined (error) for the zero polynomial."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no highest-degree component")
        degrees = self.rows.sum(axis=1)
        top = np.flatnonzero(degrees == degrees.max())
        return Polynomial.from_arrays(self.num_vars, self.rows[top], self.coeffs.take(top))

    def __repr__(self) -> str:
        from .problem_io import format_polynomial

        return f"Polynomial({self.num_vars}, {format_polynomial(self)!r})"


def _grlex_arrays(terms: Mapping[Monomial, Coeff], num_vars: int) -> tuple[np.ndarray, Coefficients]:
    """The exponent rows and coefficients of ``terms`` (checked tuples) in
    ascending graded-lex order: the tuples in descending order, then a
    stable sort by total degree."""
    monos = sorted(terms, reverse=True)
    monos.sort(key=sum)
    return exponent_rows(monos, num_vars), Coefficients.of([terms[m] for m in monos])


def sum_of_squared_variables(num_vars: int) -> Polynomial:
    """x1^2 + ... + xn^2."""
    terms = {}
    for i in range(num_vars):
        mono = tuple(2 if j == i else 0 for j in range(num_vars))
        terms[mono] = 1
    return Polynomial(num_vars, terms)
