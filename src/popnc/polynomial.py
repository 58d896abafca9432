"""Sparse multivariate polynomial arithmetic.

Polynomials are stored as maps from exponent vectors to coefficients.
Coefficients may be ``int``, ``float`` or ``fractions.Fraction``; arithmetic
preserves whatever type the operands carry, so identity checks can be run
exactly with rationals while solver-facing code works in floats.  Values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Monomial = tuple[int, ...]
Coeff = Union[int, float, Fraction]


def exact_decimal(text: str) -> Fraction:
    """The exact value of a decimal literal such as "-1.25e-3".  A malformed
    or infinite one, and one beyond the float range (1.8e308 to 4.9e-324),
    raise ValueError; the last before 10^exponent is built, which can take seconds."""
    try:
        d = Decimal(text)
    except InvalidOperation:  # also an exponent beyond Decimal's own range
        raise ValueError(f"malformed number {text!r}") from None
    if not d.is_finite():
        raise ValueError(f"{text} is not a finite number")
    if d and abs(d.adjusted()) > 400:
        raise ValueError(f"{text} lies beyond the float range")
    return Fraction(d)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


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

    ``terms`` never stores zero coefficients and every exponent vector has
    length ``num_vars``.  The zero polynomial has an empty term map and, by
    convention, degree 0.  The constructor checks every exponent vector;
    arithmetic builds its results through ``_from_checked``, which does not
    check them again.
    """

    __slots__ = ("num_vars", "_terms")

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
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _from_checked(cls, num_vars: int, terms: Mapping[Monomial, Coeff]) -> "Polynomial":
        """The polynomial of ``terms``, whose exponent vectors are already
        checked tuples; zero coefficients are dropped, the order is kept."""
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "_terms", {m: c for m, c in terms.items() if c != 0})
        return p

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
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in ascending graded-lex order (deterministic iteration)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coefficient(self, mono: Sequence[int]) -> Coeff:
        return self._terms.get(tuple(mono), 0)

    def l1_norm(self) -> Coeff:
        """Sum of absolute coefficient values."""
        return sum((abs(c) for c in self._terms.values()), 0)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"dimension mismatch: {self.num_vars} vs {other.num_vars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return Polynomial._from_checked(self.num_vars, merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_checked(self.num_vars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            prod: dict[Monomial, Coeff] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = monomial_mul(m1, m2)
                    prod[mono] = prod.get(mono, 0) + c1 * c2
            return Polynomial._from_checked(self.num_vars, prod)
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Coeff) -> "Polynomial":
        return Polynomial._from_checked(self.num_vars, {m: c * factor for m, c in self._terms.items()})

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
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.num_vars, frozenset(self._terms.items())))

    # -- structural operations ----------------------------------------------

    def evaluate(self, point: Sequence[Coeff]) -> Coeff:
        """Evaluate at a point; exact when coefficients and point are exact."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: point has length {len(point)}, expected {self.num_vars}"
            )
        total: Coeff = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for xi, e in zip(point, mono):
                if e:
                    term = term * xi**e
            total = total + term
        return total

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split into homogeneous parts, keyed by degree; zero parts omitted."""
        buckets: dict[int, dict[Monomial, Coeff]] = {}
        for mono, coeff in self._terms.items():
            buckets.setdefault(sum(mono), {})[mono] = coeff
        return {
            d: Polynomial(self.num_vars, terms) for d, terms in sorted(buckets.items())
        }

    def top_component(self) -> "Polynomial":
        """Highest-degree homogeneous part; undefined (error) for the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no highest-degree component")
        d = self.degree()
        return Polynomial(
            self.num_vars, {m: c for m, c in self._terms.items() if sum(m) == d}
        )

    def __repr__(self) -> str:
        from .problem_io import format_polynomial

        return f"Polynomial({self.num_vars}, {format_polynomial(self)!r})"


def sum_of_squared_variables(num_vars: int) -> Polynomial:
    """x1^2 + ... + xn^2."""
    terms = {}
    for i in range(num_vars):
        mono = tuple(2 if j == i else 0 for j in range(num_vars))
        terms[mono] = 1
    return Polynomial(num_vars, terms)
