"""Parse -> format -> parse round trips at the edges of the number and
exponent ranges: float magnitudes from the smallest subnormal (5e-324) to
the largest finite float, exponents up to 60, and rationals whose numerators
and denominators run to 40 digits.  (The random test of criterion 7c draws
coefficients in [-20, 20] and exponents up to 4.)  And one number reader
everywhere: a literal over the same magnitudes reads as ``float()`` and as
its exact decimal value, and is accepted or refused alike in an expression,
a ``c:`` line and a certificate payload.
"""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from popnc.certificates import certificate_from_payload  # noqa: E402
from popnc.polynomial import NumberError, Polynomial, read_number  # noqa: E402
from popnc.problem_io import (  # noqa: E402
    ParseError, ProblemFormatError, format_polynomial, parse_polynomial, parse_problem,
)

NAMES = ["x1", "x2", "x3", "x4"]
BIG = 10 ** 40
FLOATS = st.builds(lambda mag, neg: -mag if neg else mag,
                   st.floats(min_value=5e-324, max_value=sys.float_info.max), st.booleans())
RATIONALS = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
# the floats above as literals of 1 to 26 significant digits, and mantissa-exponent
# literals on both sides of either end of the float range
LITERALS = st.one_of(
    FLOATS.map(repr),
    st.builds(lambda x, digits: f"{x:.{digits}e}", FLOATS, st.integers(0, 25)),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(0, 10 ** 25), st.integers(-360, 330)),
)


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


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(text=LITERALS)
def test_one_reader_for_every_literal(text):
    try:
        value = read_number(text, False)
    except NumberError:
        value = None
    if value is not None:
        assert value.hex() == float(text).hex()
        exact = read_number(text, True)
        assert type(exact) is Fraction and exact == Fraction(Decimal(text))
    else:
        with pytest.raises(NumberError):
            read_number(text, True)
    payload = {"num_vars": 1, "order": 1, "lambda": text, "lambda_sign": 1, "sos_weights": []}
    for rational in (False, True):
        expected = None if value is None else exact if rational else value
        readers = [
            (lambda: parse_polynomial(f"{text}*x", ["x"], rational=rational).coefficient((1,)), ParseError),
            (lambda: parse_problem(f"vars: x\nobj: x^2\nc: {text}\n", rational=rational).c,
             ProblemFormatError),
        ]
        if rational:
            readers.append((lambda: certificate_from_payload(payload).lam, ValueError))
        for read, error in readers:
            if expected is None:
                with pytest.raises(error, match="lies beyond the float range"):
                    read()
            else:
                got = read()
                assert got == expected and (got == 0 or type(got) is type(expected))
