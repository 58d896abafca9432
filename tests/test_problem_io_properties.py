"""Parse -> format -> parse round trips at the edges of the number and
exponent ranges: float magnitudes from the smallest subnormal (5e-324) to
the largest finite float, exponents up to 60, and rationals whose numerators
and denominators run to 40 digits.  (The random test of criterion 7c draws
coefficients in [-20, 20] and exponents up to 4.)
"""

import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from popnc.polynomial import Polynomial  # noqa: E402
from popnc.problem_io import format_polynomial, parse_polynomial  # noqa: E402

NAMES = ["x1", "x2", "x3", "x4"]
BIG = 10 ** 40
FLOATS = st.builds(lambda mag, neg: -mag if neg else mag,
                   st.floats(min_value=5e-324, max_value=sys.float_info.max), st.booleans())
RATIONALS = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))


@st.composite
def polynomials(draw, coeffs):
    n = draw(st.integers(1, len(NAMES)))
    monos = st.tuples(*[st.integers(0, 60)] * n)
    return Polynomial(n, draw(st.dictionaries(monos, coeffs, max_size=8)))


@pytest.mark.parametrize("rational", [False, True])
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_parse_format_round_trip(rational, data):
    p = data.draw(polynomials(RATIONALS if rational else FLOATS))
    names = NAMES[:p.num_vars]
    assert parse_polynomial(format_polynomial(p, names), names, rational=rational) == p
