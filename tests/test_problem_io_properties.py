"""Parse -> format -> parse round trips at the edges of the number and
exponent ranges: float magnitudes from the smallest subnormal (5e-324) to
the largest finite float, exponents up to 60, and rationals whose numerators
and denominators run to 40 digits.  (The random test of criterion 7c draws
coefficients in [-20, 20] and exponents up to 4.)  And one number reader
everywhere: a literal over the same magnitudes reads as ``float()`` and as
its exact decimal value, and is accepted or refused alike in an expression,
a ``c:`` line and a certificate payload.  And the two readers of an
expression agree: the term reader gives the token walk's polynomial, or
leaves the expression to the token walk, which refuses it.
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
    ParseError, ProblemFormatError, _read_terms, _walk_tokens, format_polynomial, parse_polynomial,
    parse_problem,
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


# pieces of expressions: variables (e5 and e also read as a literal's
# exponent part), literals of every form, and in TOKENS also an unknown
# variable, literals beyond the float range, operators, blanks and characters
# no token starts with
VARIABLES = ["x1", "x2", "e5", "e", "_a1"]
LITERALS_OF_TERMS = ["0", "7", "12", "3.", ".5", "2.5e-3", "1e5", "1E+5", "0e99999999999999999999", "\u0663"]
TOKENS = [*VARIABLES, *LITERALS_OF_TERMS, "y", "1e-400", "1e400", "9" * 400,
          "+", "-", "*", "/", "^", " ", "  ", "\t", ".", "(", "#"]
BLANKS = st.sampled_from(["", " ", "\t"])
_LITERAL = st.sampled_from(LITERALS_OF_TERMS)
COEFFS = st.one_of(st.just(""), _LITERAL, st.builds("{} / {}".format, _LITERAL, _LITERAL))
FACTORS = st.lists(st.builds(str.__add__, st.sampled_from(VARIABLES),
                             st.sampled_from(["", "^2", " ^ 3", "^0", "^12"])), max_size=3)
STARS = st.sampled_from(["*", " * ", " ", ""])
FIRST_SIGNS, SIGNS = st.sampled_from(["", "+", "-"]), st.sampled_from(["+", "-"])


@st.composite
def expressions(draw):
    """Terms of the grammar, each a sign, a coefficient (a literal or p/q) and
    factors with exponents, joined by blanks; half of them with one token
    inserted somewhere."""
    terms = []
    for i in range(draw(st.integers(1, 4))):
        sign, coeff, factors = draw(SIGNS if i else FIRST_SIGNS), draw(COEFFS), draw(FACTORS)
        star = draw(STARS) if coeff else ""  # without factors, a '*' makes the term malformed
        terms.append(sign + draw(BLANKS) + coeff + star + "*".join(factors))
    text = draw(BLANKS).join(terms)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    return text


@pytest.mark.parametrize("rational", [False, True])
@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(text=st.one_of(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join), expressions()))
def test_term_reader_agrees_with_the_token_walk(rational, text):
    index = {name: i for i, name in enumerate(VARIABLES)}
    fast = _read_terms(text, index, len(VARIABLES), rational)
    if fast is None:
        with pytest.raises(ParseError):
            _walk_tokens(text, index, len(VARIABLES), rational, 1)
    else:
        slow = _walk_tokens(text, index, len(VARIABLES), rational, 1)
        assert list(fast.terms.items()) == list(slow.terms.items())
        assert [type(c) for c in fast.terms.values()] == [type(c) for c in slow.terms.values()]
