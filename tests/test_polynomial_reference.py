"""``Polynomial`` against the dict arithmetic it replaced
(``polynomial_reference.DictPolynomial``), on seeded random polynomials
drawn with ``random`` (no hypothesis): coefficients that mix ints,
Fractions, floats, -0.0, NaN and floats whose products overflow or
underflow, at n = 1..4 and at n = 40, where products do not pack into one
int64 and are grouped by a lexsort.

Every result must have the same terms in the same order, and each
coefficient the same type and repr; a number the same type and repr; an
operation the reference refuses must raise the same exception type.  ``==``
and ``hash`` are compared only between NaN-free polynomials: a dict compares
NaN equal to itself by identity alone, and a NaN hashes by identity.
"""

import math
import random
from fractions import Fraction

import pytest

from polynomial_reference import DictPolynomial
from popnc.polynomial import Polynomial

SPECIAL = [-0.0, math.nan, 1e200, -1e200, 1e-200, 0.1, 0.2, 0.3]


def coefficient(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if kind == "special":
        return rng.choice(SPECIAL)
    return rng.choice([rng.uniform(-2, 2), float(rng.randint(-3, 3)), rng.randint(-3, 3) / 4])


def draw(rng, n, monomials):
    """One polynomial's terms: a few monomials of a small shared pool, so that
    sums and products collide, with coefficients of one or of mixed kinds."""
    kinds = rng.choice([["int"], ["fraction"], ["float"], ["int", "fraction"],
                        ["int", "fraction", "float"], ["float", "special"],
                        ["int", "fraction", "float", "special"]])
    return {rng.choice(monomials): coefficient(rng, kinds) for _ in range(rng.randint(0, 6))}


def pool(rng, n):
    top = 3 if n > 4 else 2
    return [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(8)]


def shown(v):
    return type(v), repr(v)


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raises", type(exc)


def assert_same(got: Polynomial, want: DictPolynomial):
    assert got.num_vars == want.num_vars
    assert list(got.terms) == list(want.terms)
    assert list(map(shown, got.terms.values())) == list(map(shown, want.terms.values()))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1] is want[1]
    elif isinstance(want[1], DictPolynomial):
        assert_same(got[1], want[1])
    else:
        assert shown(got[1]) == shown(want[1])


def nan_free(p: DictPolynomial) -> bool:
    return not any(isinstance(c, float) and math.isnan(c) for c in p.terms.values())


def check_pair(rng, n, a_terms, b_terms):
    a, b = Polynomial(n, a_terms), Polynomial(n, b_terms)
    ra, rb = DictPolynomial(n, a_terms), DictPolynomial(n, b_terms)
    assert_same(a, ra)
    assert_same(b, rb)
    for op in ("__add__", "__sub__", "__mul__"):
        assert_same_outcome(outcome(getattr(a, op), b), outcome(getattr(ra, op), rb))
    assert_same(-a, -ra)
    factor = coefficient(rng, ["int", "fraction", "float", "special"])
    assert_same_outcome(outcome(a.scale, factor), outcome(ra.scale, factor))
    assert_same_outcome(outcome(a.__mul__, factor), outcome(ra.__mul__, factor))
    e = rng.randint(0, 3)
    assert_same_outcome(outcome(a.__pow__, e), outcome(ra.__pow__, e))
    for p, rp in ((a, ra), (b, rb), (a * b, ra * rb), (a + b, ra + rb)):
        assert shown(p.l1_norm()) == shown(rp.l1_norm())
        assert p.degree() == rp.degree()
        assert_same_outcome(outcome(p.top_component), outcome(rp.top_component))
        assert [(m, *shown(c)) for m, c in p.sorted_terms()] == \
               [(m, *shown(c)) for m, c in rp.sorted_terms()]
        for mono in [*rp.terms, tuple([1] * n)]:
            assert shown(p.coefficient(mono)) == shown(rp.coefficient(mono))
        point = [rng.choice([rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2), rng.uniform(-1, 1)])
                 for _ in range(n)]
        assert_same_outcome(outcome(p.evaluate, point), outcome(rp.evaluate, point))
    pairs = [(a, b, ra, rb), (a + b, b + a, ra + rb, rb + ra), (a - a, Polynomial.zero(n), ra - ra, rb - rb)]
    for p, q, rp, rq in pairs:
        if nan_free(rp) and nan_free(rq):
            assert (p == q) is (rp == rq)
            assert hash(p) == hash(rp) and hash(q) == hash(rq)


@pytest.mark.parametrize("seed", range(80))
def test_small_polynomials(seed):
    rng = random.Random(seed)
    n = 1 + seed % 4
    monomials = pool(rng, n)
    for _ in range(4):
        check_pair(rng, n, draw(rng, n, monomials), draw(rng, n, monomials))


@pytest.mark.parametrize("seed", range(4))
def test_forty_variables(seed):
    # every exponent up to 3: the digits of a product do not fit in 2^62
    rng = random.Random(1000 + seed)
    monomials = pool(rng, 40)
    for _ in range(3):
        check_pair(rng, 40, draw(rng, 40, monomials), draw(rng, 40, monomials))
