"""The dict arithmetic of polynomials that ``popnc.polynomial`` ran before
it held its terms as exponent arrays, kept as the reference for a
differential test (``tests/test_polynomial_reference.py``) and for the
references of ``gram_reference`` and ``builder_reference``.

``DictPolynomial`` stores a dict from exponent tuples to coefficients (int,
float or Fraction) and computes every result term by term with Python
arithmetic: a sum copies the first operand's dict and adds the second's
terms into it, a product loops over the pairs of terms, and each result
drops its zero coefficients and keeps the dict's order.  It shares no code
with ``popnc.polynomial`` or ``popnc.termarrays``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Monomial = tuple[int, ...]
Coeff = Union[int, float, Fraction]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def check_monomial(mono: Monomial, num_vars: int) -> None:
    """ValueError unless mono is a vector of num_vars non-negative integers."""
    if len(mono) != num_vars:
        raise ValueError(f"exponent vector {mono} has length {len(mono)}, expected {num_vars}")
    if any((not isinstance(e, int)) or e < 0 for e in mono):
        raise ValueError(f"exponents must be non-negative integers: {mono}")


def grlex_key(mono: Monomial):
    """Graded-lexicographic sort key: total degree first, then x1 > x2 > ..."""
    return (sum(mono), tuple(-e for e in mono))


class DictPolynomial:
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
        raise AttributeError("DictPolynomial is immutable")

    @classmethod
    def _from_checked(cls, num_vars: int, terms: Mapping[Monomial, Coeff]) -> "DictPolynomial":
        """The polynomial of ``terms``, whose exponent vectors are already
        checked tuples; zero coefficients are dropped, the order is kept.
        The truth value keeps what ``c != 0`` keeps, NaN included, without a
        ``Fraction.__eq__`` call per term."""
        p = object.__new__(cls)
        object.__setattr__(p, "num_vars", num_vars)
        object.__setattr__(p, "_terms", {m: c for m, c in terms.items() if c})
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "DictPolynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: Coeff) -> "DictPolynomial":
        return cls(num_vars, {tuple([0] * num_vars): value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "DictPolynomial":
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
        """Terms in ascending graded-lex order (deterministic iteration): the
        order of ``grlex_key``, by a descending sort of the exponent vectors and
        a stable sort by total degree, both with keys compared in C."""
        monos = sorted(self._terms, reverse=True)
        monos.sort(key=sum)
        return [(m, self._terms[m]) for m in monos]

    def coefficient(self, mono: Sequence[int]) -> Coeff:
        return self._terms.get(tuple(mono), 0)

    def l1_norm(self) -> Coeff:
        """Sum of absolute coefficient values."""
        return sum((abs(c) for c in self._terms.values()), 0)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "DictPolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"dimension mismatch: {self.num_vars} vs {other.num_vars} variables"
            )

    def __add__(self, other: "DictPolynomial") -> "DictPolynomial":
        if not isinstance(other, DictPolynomial):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        # a new monomial takes its coefficient as is: 0 + a Fraction is an addition
        for mono, coeff in other._terms.items():
            old = merged.get(mono)
            merged[mono] = coeff if old is None else old + coeff
        return DictPolynomial._from_checked(self.num_vars, merged)

    def __sub__(self, other: "DictPolynomial") -> "DictPolynomial":
        if not isinstance(other, DictPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DictPolynomial":
        return DictPolynomial._from_checked(self.num_vars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, DictPolynomial):
            self._check_compatible(other)
            prod: dict[Monomial, Coeff] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = monomial_mul(m1, m2)
                    old = prod.get(mono)
                    prod[mono] = c1 * c2 if old is None else old + c1 * c2
            return DictPolynomial._from_checked(self.num_vars, prod)
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Coeff) -> "DictPolynomial":
        return DictPolynomial._from_checked(self.num_vars, {m: c * factor for m, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "DictPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = DictPolynomial.constant(self.num_vars, 1)
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
            isinstance(other, DictPolynomial)
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

    def top_component(self) -> "DictPolynomial":
        """Highest-degree homogeneous part; undefined (error) for the zero polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no highest-degree component")
        d = self.degree()
        return DictPolynomial(
            self.num_vars, {m: c for m, c in self._terms.items() if sum(m) == d}
        )

    def __repr__(self) -> str:
        return f"DictPolynomial({self.num_vars}, {self._terms!r})"


def dict_polynomial(p) -> DictPolynomial:
    """The DictPolynomial of the terms of p, any polynomial with ``num_vars`` and ``terms``."""
    return DictPolynomial(p.num_vars, dict(p.terms))
