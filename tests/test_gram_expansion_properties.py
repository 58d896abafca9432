"""Random Grams and certificates against the per-pair loop (``gram_reference``):
float, int, rational, int-and-rational and mixed entries, bases with repeated
monomials, and the empty basis.  ``verify_certificate`` must give the
residual that the old expansion and arithmetic give, of the same type and,
for floats, bit for bit: with Grams of every kind, psi weights, the
int-coefficient sphere among the generators, every lambda sign and
multipliers that mix floats and Fractions.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gram_reference import check_expansion, reference_residual, same  # noqa: E402
from popnc.certificates import (  # noqa: E402
    DEFAULT_EIG_TOL,
    DEFAULT_RESIDUAL_TOL,
    GeneratorSet,
    ModuleCertificate,
    SosWeight,
    Statement,
    verify_certificate,
)
from popnc.polynomial import Polynomial, sum_of_squared_variables  # noqa: E402

FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False))
INTS = st.integers(-6, 6)
RATIONALS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
ENTRIES = {"float": FLOATS, "int": INTS, "rational": RATIONALS,
           "int and rational": st.one_of(INTS, RATIONALS), "mixed": st.one_of(FLOATS, INTS, RATIONALS)}
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)


def bases(n, max_size):
    return st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=max_size)


@st.composite
def grams(draw, s, kind):
    flat = draw(st.lists(ENTRIES[kind], min_size=s * s, max_size=s * s))
    rows = [flat[i * s:(i + 1) * s] for i in range(s)]
    return np.array(flat, dtype=float).reshape(s, s) if kind == "float" else rows


@pytest.mark.parametrize("kind", list(ENTRIES))
@SETTINGS
@given(data=st.data())
def test_random_expansions_match_the_pair_loop(kind, data):
    n = data.draw(st.integers(1, 3))
    basis = data.draw(bases(n, 7))
    check_expansion(data.draw(grams(len(basis), kind)), basis, n)


def polynomials(n, coeffs):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeffs, max_size=4).map(
        lambda terms: Polynomial(n, terms))


# a generator, target, multiplier or lambda of any kind: each Gram's kind is
# drawn on its own, a psi weight (part of the target, no module term) may
# come last, the coercivity sphere |x|^2 - 1 (int coefficients) may join the
# generators, and multipliers may mix floats and Fractions, as a payload of
# JSON numbers and "p/q" strings reads
GRAM_KINDS = st.sampled_from(["float", "int", "rational", "mixed"])
MULTIPLIER_COEFFS = st.one_of(FLOATS, RATIONALS)


@pytest.mark.parametrize("kind", ["float", "rational", "mixed"])
@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_random_certificates_verify_as_before(kind, data):
    n = data.draw(st.integers(1, 3))
    coeffs = ENTRIES[kind]
    ineq = data.draw(st.lists(polynomials(n, coeffs), max_size=2))
    if data.draw(st.booleans()):
        ineq.append(sum_of_squared_variables(n) - Polynomial.constant(n, 1))
    ineq = tuple(ineq)
    eq = tuple(data.draw(st.lists(polynomials(n, coeffs), max_size=1)))
    sign = data.draw(st.sampled_from([-1, 0, 1]))
    claim = Statement("hierarchy", data.draw(polynomials(n, coeffs)), GeneratorSet(n, ineq, eq), sign)
    weights = []
    slots = [("sigma0", None, 6)] + [("ineq", j, 3) for j in range(len(ineq))]
    if data.draw(st.booleans()):
        slots.append(("psi", None, 3))
    for tag, index, size in slots:
        basis = data.draw(bases(n, size))
        weights.append(SosWeight(tag, index, basis, data.draw(grams(len(basis), data.draw(GRAM_KINDS)))))
    mults = [(l, data.draw(polynomials(n, data.draw(st.sampled_from([coeffs, MULTIPLIER_COEFFS])))))
             for l in range(len(eq))]
    lam = data.draw(st.one_of(coeffs, FLOATS, RATIONALS))
    cert = ModuleCertificate(num_vars=n, order=2, lam=lam, lam_sign=sign,
                             sos_weights=weights, eq_multipliers=mults)
    want = reference_residual(cert, claim)
    result = verify_certificate(cert, claim)
    assert same(result.residual, want), (result.residual, want)
    assert result.passed == (float(want) <= DEFAULT_RESIDUAL_TOL * float(1 + claim.target.l1_norm())
                             and result.min_gram_eig >= -DEFAULT_EIG_TOL)
