"""The ``popnc verify`` path against the code it replaced (``verify_reference``),
on seeded random inputs drawn with ``random`` (no hypothesis):

- ``format_polynomial`` against the per-term printer, string for string, on
  int, Fraction, float, NaN, infinite and +-1 coefficients, constant-only
  polynomials, n = 1..6 and 40, exponents of two or more digits and custom
  variable names;
- ``Polynomial.sum`` against the polynomials added one after another, and
  ``identity_residual`` against the parts summed one after another: the same
  terms in the same order, and the same type and repr of every coefficient
  and of the residual, on float and rational certificates, including
  partial sums that cancel to exactly 0 before a later part brings their
  monomial back.
"""

import functools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from verify_reference import chained_identity, chained_residual, reference_format_polynomial
from popnc.certificates import (
    GeneratorSet,
    ModuleCertificate,
    SosWeight,
    Statement,
    identity_residual,
    verify_certificate,
)
from popnc.polynomial import Polynomial, sum_of_squared_variables
from popnc.problem_io import format_polynomial, parse_polynomial

F = Fraction
ONES = [1, -1, F(1), F(-1), 1.0, -1.0]
SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 1e300, -5e-324, 0.1]


def shown(v):
    return type(v), repr(v)


def terms_shown(p: Polynomial):
    return [(m, *shown(c)) for m, c in p.terms.items()]


def coefficient(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "one":
        return rng.choice(ONES)
    if kind == "int":
        return rng.choice([rng.randint(-9, 9) or 2, rng.randint(-10**30, 10**30) or 3])
    if kind == "fraction":
        return F(rng.randint(-9, 9) or 1, rng.randint(1, 12))
    if kind == "special":
        return rng.choice(SPECIAL)
    return rng.choice([rng.uniform(-3, 3), float(rng.randint(-3, 3) or 2), rng.randint(-7, 7) / 8 or 0.5])


# ---------------------------------------------------------------------------
# the echo
# ---------------------------------------------------------------------------

KINDS = [["one"], ["int", "one"], ["fraction", "one"], ["float", "one"], ["float", "special"],
         ["int", "fraction", "float", "one", "special"]]


def check_echo(p, names=None):
    assert format_polynomial(p, names) == reference_format_polynomial(p, names)


@pytest.mark.parametrize("seed", range(70))
def test_echo(seed):
    rng = random.Random(seed)
    n = [1, 2, 3, 4, 5, 6, 40][seed % 7]
    exponents = [0, 0, 0, 1, 1, 2, 3, 10, 12, 123]
    kinds = rng.choice(KINDS)
    for _ in range(4):
        terms = {tuple(rng.choice(exponents) for _ in range(n)): coefficient(rng, kinds)
                 for _ in range(rng.randint(1, 15))}
        p = Polynomial(n, terms)
        check_echo(p)
        check_echo(p, [f"{rng.choice(['y', 'z_', 'Long_Name'])}{i}" for i in range(n)])


@pytest.mark.parametrize("n", [1, 2, 6, 40])
@pytest.mark.parametrize("value", [*ONES, 7, -12, F(3, 2), F(-10**20, 3), 2.5, -1e-300, *SPECIAL])
def test_echo_of_constants(n, value):
    check_echo(Polynomial.constant(n, value))
    check_echo(Polynomial(n, {(0,) * n: value, (1,) + (0,) * (n - 1): -value}))


@pytest.mark.parametrize("n", [1, 3, 40])
def test_echo_of_zero_and_single_variables(n):
    check_echo(Polynomial.zero(n))
    for i in range(n):
        for value in ONES:
            check_echo(Polynomial.variable(n, i) * value)
            check_echo(Polynomial.variable(n, i) ** 11 * value + Polynomial.constant(n, 1))


def test_echo_of_a_dense_sextic():
    # every monomial of degree <= 6 in six variables, parsed back to itself
    rng = random.Random(6)
    names = ["a", "b", "c", "d", "e", "f"]
    monos = [m for m in np.ndindex(*[7] * 6) if sum(m) <= 6]
    for kinds in (["float", "one"], ["fraction", "int", "one"]):
        p = Polynomial(6, {m: coefficient(rng, kinds) for m in monos})
        check_echo(p, names)
        assert parse_polynomial(format_polynomial(p, names), names, rational="fraction" in kinds) == p


# ---------------------------------------------------------------------------
# the identity, summed at once
# ---------------------------------------------------------------------------


def assert_same_polynomial(got: Polynomial, want: Polynomial):
    assert got.num_vars == want.num_vars
    assert terms_shown(got) == terms_shown(want)


def chained_sum(polys, n):
    return functools.reduce(operator.add, polys, Polynomial.zero(n))


def cancelling_parts(rng, n, count, kinds):
    """``count`` polynomials over a small pool of monomials; at random, a
    term cancels the partial sum of its monomial so far, to exactly 0."""
    pool = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(6)]
    polys = []
    for _ in range(count):
        terms = {rng.choice(pool): coefficient(rng, kinds) for _ in range(rng.randint(0, 5))}
        partial = chained_sum(polys, n)
        for mono in rng.sample(pool, 2):
            c = partial.coefficient(mono)
            if c and rng.random() < 0.6:
                terms[mono] = -c
        polys.append(Polynomial(n, terms))
    return polys


@pytest.mark.parametrize("seed", range(80))
def test_sum_of_polynomials(seed):
    rng = random.Random(seed)
    n = 1 + seed % 3
    kinds = rng.choice([["int"], ["fraction", "int"], ["float"], ["float", "fraction"],
                        ["int", "fraction", "float", "one"], ["float", "special"]])
    polys = cancelling_parts(rng, n, rng.randint(0, 6), kinds)
    assert_same_polynomial(Polynomial.sum(polys, n), chained_sum(polys, n))


def test_sum_that_cancels_and_comes_back():
    # x cancels after the second polynomial and comes back in the third: added
    # one after another, it is appended after x^2, with a sum that starts afresh
    x, x2 = (1,), (2,)
    cases = [
        ([{x: 0.5}, {x: -0.5, x2: 1.0}, {x: 2.0}], [(x2, float, "1.0"), (x, float, "2.0")]),
        ([{x: F(1, 2)}, {x: F(-1, 2), x2: 1}, {x: 2}], [(x2, int, "1"), (x, int, "2")]),
        ([{x: 0.5}, {x: -0.5, x2: 1}, {x: 2}], [(x2, int, "1"), (x, int, "2")]),
        # 1/10 + 2/10 - 3/10 is 0, where the sum of their floats is 2^-54
        ([{x: F(1, 10)}, {x: F(2, 10)}, {x: F(-3, 10), x2: 1}, {x: 2}], [(x2, int, "1"), (x, int, "2")]),
    ]
    for terms, want in cases:
        polys = [Polynomial(1, t) for t in terms]
        got = Polynomial.sum(polys, 1)
        assert terms_shown(got) == want
        assert_same_polynomial(got, chained_sum(polys, 1))


def test_sum_of_forty_variables():
    # the products do not pack into one int64: grouped by a lexsort
    rng = random.Random(40)
    for _ in range(4):
        polys = cancelling_parts(rng, 40, 4, ["int", "fraction", "float"])
        assert_same_polynomial(Polynomial.sum(polys, 40), chained_sum(polys, 40))


def test_sum_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.sum([Polynomial.variable(2, 0), Polynomial.variable(3, 0)], 2)


def random_gram(rng, s, exact):
    """A random symmetric s x s Gram, float or rational."""
    entries = [[None] * s for _ in range(s)]
    for i in range(s):
        for j in range(i, s):
            v = F(rng.randint(-6, 6), rng.randint(1, 6)) if exact else rng.uniform(-1, 1)
            entries[i][j] = entries[j][i] = v + (s if i == j else 0)
    return entries


def random_case(rng, exact_gram, rational_problem):
    n = rng.randint(1, 3)
    names = [f"x{i + 1}" for i in range(n)]
    f = parse_polynomial(" + ".join(f"{rng.randint(1, 5)}/{rng.randint(1, 3)}*{v}^{rng.randint(0, 4)}"
                                    for v in names), names, rational=rational_problem)
    g = parse_polynomial(f"1 - {' - '.join(v + '^2' for v in names)}", names, rational=rational_problem)
    h = parse_polynomial(f"{names[0]} - 1/3", names, rational=rational_problem)
    basis = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    weights = [SosWeight("sigma0", None, basis, random_gram(rng, len(basis), exact_gram)),
               SosWeight("ineq", 0, basis[:2], random_gram(rng, 2, exact_gram))]
    phi = Polynomial(n, {basis[-1]: coefficient(rng, ["fraction", "float"]), basis[0]: F(1, 3)})
    lam = rng.choice([F(rng.randint(-5, 5), 4), rng.uniform(-1, 1), 0])
    cert = ModuleCertificate(num_vars=n, order=1, lam=lam, lam_sign=1, sos_weights=weights,
                             eq_multipliers=[(0, phi)])
    return cert, Statement("hierarchy", f, GeneratorSet(n, (g,), (h,)), 1)


@pytest.mark.parametrize("seed", range(30))
def test_residual_of_random_certificates(seed):
    rng = random.Random(seed)
    cert, claim = random_case(rng, exact_gram=seed % 2 == 0, rational_problem=seed % 3 == 0)
    assert shown(identity_residual(cert, claim)) == shown(chained_residual(cert, claim))
    assert shown(verify_certificate(cert, claim).residual) == shown(chained_residual(cert, claim))


@pytest.mark.parametrize("exact", [False, True], ids=["float gram", "rational gram"])
def test_residual_whose_partial_sum_cancels_and_comes_back(exact):
    # the archimedean target -x1^2 - x2^2 has int coefficients; sigma_0 +
    # sigma_1 g cancels x1^2 to exactly 0 and leaves -x2^2, which the target
    # cancels in turn, so that x1^2 alone comes back, as the int 1 of the target
    half = F(1, 2) if exact else 0.5
    g = Polynomial(2, {(2, 0): -1, (0, 2): -3})
    claim = Statement("archimedean", -sum_of_squared_variables(2), GeneratorSet(2, (g,)), -1)
    cert = ModuleCertificate(num_vars=2, order=1, lam=0, lam_sign=-1, sos_weights=[
        SosWeight("sigma0", None, [(1, 0), (0, 1)], [[half, 0], [0, half]]),
        SosWeight("ineq", 0, [(0, 0)], [[half]])])
    assert terms_shown(chained_identity(cert, claim)) == [((2, 0), int, "1")]
    assert shown(identity_residual(cert, claim)) == shown(chained_residual(cert, claim)) == (int, "1")
