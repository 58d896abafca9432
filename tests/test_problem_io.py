import json
import math
import random
import re
import string
from fractions import Fraction

import pytest

from popnc.polynomial import Polynomial
from popnc.problem_io import (
    ParseError,
    PopProblem,
    ProblemFormatError,
    emit_report,
    format_polynomial,
    parse_polynomial,
    parse_problem,
)

V2 = ["x1", "x2"]


class TestParsePolynomial:
    def test_example31_objective(self):
        p = parse_polynomial("x1^2 + 1", V2)
        assert p.terms == {(2, 0): 1.0, (0, 0): 1.0}

    def test_rational_coefficient(self):
        p = parse_polynomial("x2^2 - 1/4", V2, rational=True)
        assert p.coefficient((0, 2)) == 1
        assert p.coefficient((0, 0)) == Fraction(-1, 4)

    def test_zero(self):
        assert parse_polynomial("0", V2).is_zero()

    def test_decimal_rational_mode_is_exact(self):
        p = parse_polynomial("0.125*x1", V2, rational=True)
        assert p.coefficient((1, 0)) == Fraction(1, 8)

    @pytest.mark.parametrize("rational", [False, True])
    def test_literals_read_as_in_a_c_line(self, rational):
        # one literal grammar: ".5e3" was split into ".5" and a variable "e3"
        p = parse_polynomial(".5e3*x1 + 1./4*x2 + 3 / 2", V2, rational=rational)
        c = parse_problem("vars: x1 x2\nobj: x1^2\nc: .5e3\n", rational=rational).c
        assert p.terms == {(1, 0): 500, (0, 1): Fraction(1, 4), (0, 0): Fraction(3, 2)} and c == 500
        assert {type(v) for v in [*p.terms.values(), c]} == {Fraction if rational else float}

    @pytest.mark.parametrize("rational", [False, True])
    def test_zero_with_an_exponent_beyond_decimal(self, rational):
        # exactly, a zero with an exponent of 20 digits was read through Decimal,
        # which raised InvalidOperation
        zero = "0.0e99999999999999999999"
        p = parse_polynomial(f"{zero}*x1 + 1", V2, rational=rational)
        assert p.terms == {(0, 0): 1} and type(p.terms[(0, 0)]) is (Fraction if rational else float)
        assert parse_problem(f"vars: x1\nobj: x1^2\nc: {zero}\n", rational=rational).c == 0

    def test_explicit_star_required_between_factors(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 x2", V2)

    def test_coefficient_star_optional(self):
        assert parse_polynomial("2*x1", V2) == parse_polynomial("2 x1", V2)

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + y", V2)
        assert "unknown variable" in str(err.value)

    def test_negative_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1^-2", V2)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1^1.5", V2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + ?", V2)
        assert err.value.line == 1
        assert err.value.col == 6

    @pytest.mark.parametrize("text, rational, message, col", [
        ("x1 + 2 ) - x2", False, "unexpected character ')'", 8),
        ("   ", False, "empty expression", 4),
        ("2 ^ 3", False, "expected '+' or '-', got '^'", 3),
        ("2 3", False, "expected '+' or '-', got '3'", 3),
        ("x1 + * x2", False, "expected a number or variable, got '*'", 6),
        ("x1 -", False, "expected a number or variable, got ''", 5),
        ("x1*x2 x1", False, "implicit multiplication is not allowed; use '*' between factors", 7),
        ("x1 3", False, "implicit multiplication is not allowed; use '*' between factors", 4),
        ("2 * + x1", False, "expected a variable name, got '+'", 5),
        ("x1 *", False, "expected a variable name, got ''", 5),
        ("x1 + 3*y", False, "unknown variable 'y'", 8),
        ("x1^-2", False, "negative exponents are not allowed", 4),
        ("x1^1.5", False, "exponent must be a non-negative integer, got '1.5'", 4),
        ("x2^x1", False, "exponent must be a non-negative integer, got 'x1'", 4),
        ("x1^", False, "exponent must be a non-negative integer, got ''", 4),
        ("1/x1", False, "expected a number after '/'", 3),
        ("1 /", False, "expected a number after '/'", 4),
        ("3/0*x1", False, "division by zero in '3/0'", 3),
        ("1/1e-400", False, "1e-400 lies beyond the float range", 3),
        ("x1 + 1e99999999999999999999", True, "1e99999999999999999999 lies beyond the float range", 6),
        ("x1 + 1e4000000", True, "1e4000000 lies beyond the float range", 6),
        ("x1 + 2.5e-4000000", True, "2.5e-4000000 lies beyond the float range", 6),
        pytest.param("x1^" + "9" * 5000, False, "exponent of 5000 digits is too large", 4,
                     id="5000-digit exponent"),
        # each literal and each literal quotient must be 0 or a finite nonzero float, in both modes
        ("x1 + 1e-400*x2", False, "1e-400 lies beyond the float range", 6),
        ("x1 + 1e-400*x2", True, "1e-400 lies beyond the float range", 6),
        ("x1 + 1e309", True, "1e309 lies beyond the float range", 6),
        pytest.param("x1 + 1/" + "9" * 400 + "*x2", False,
                     "999999999999... (400 characters) lies beyond the float range", 8, id="400-digit denominator"),
        ("x1 + 1e-200/1e200*x2", False, "1e-200/1e200 lies beyond the float range", 6),
        ("x1 + 1e-200/1e200*x2", True, "1e-200/1e200 lies beyond the float range", 6),
        ("x1 - 1e300 / 1e-300", False, "1e300 / 1e-300 lies beyond the float range", 6),
        ("x1 + 1 / 0.0", True, "division by zero in '1 / 0.0'", 10),
        # exponent rows are int64: an exponent or a total degree of 2^63 is refused
        ("x1 + x2^9223372036854775808", False, "an exponent reaches 2^63", 1),
        ("x1^9223372036854775807*x2", True, "a monomial has total degree 2^63 or more", 1),
        ("x1^4611686018427387904*x1^4611686018427387904", False, "an exponent reaches 2^63", 1),
    ])
    def test_error_messages_and_positions(self, text, rational, message, col):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, V2, rational=rational, line=3)
        assert (err.value.reason, err.value.line, err.value.col) == (message, 3, col)
        assert str(err.value) == f"line 3, col {col}: {message}"

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("number, in_float, in_exact", [
        ("5e-324", 5e-324, Fraction(5, 10**324)),  # the least subnormal
        ("2e-324", None, None),  # rounds to 0
        ("2.4703282292062328e-324", 5e-324, Fraction(24703282292062328, 10**340)),  # just above 2^-1075
        ("2.4703282292062327e-324", None, None),  # just below it
        ("1.7976931348623157e308", 1.7976931348623157e308, 17976931348623157 * 10**292),  # the largest float
        ("1.7976931348623158e308", 1.7976931348623157e308, 17976931348623158 * 10**292),  # rounds down to it
        ("1.8e308", None, None),  # rounds to infinity
        # a quotient is checked as one number: a float quotient in float mode, a Fraction in exact mode
        ("1e-323/2", 5e-324, Fraction(1, 2 * 10**323)),
        ("1e-323/4", None, Fraction(1, 4 * 10**323)),
        ("3e-162/1e162", 5e-324, Fraction(3, 10**324)),
        ("9/5e-324", None, None),
        ("179769313486231570000/1e-288", 1.7976931348623155e308, 17976931348623157 * 10**292),
        ("1e308/0.5", None, None),
    ])
    def test_number_range_boundaries(self, number, in_float, in_exact, rational):
        want = in_exact if rational else in_float
        if want is None:
            with pytest.raises(ParseError, match=re.escape(f"{number} lies beyond the float range")):
                parse_polynomial(f"x1 + {number}*x2", V2, rational=rational)
            return
        got = parse_polynomial(f"x1 + {number}*x2", V2, rational=rational).terms[(0, 1)]
        assert type(got) is (Fraction if rational else float) and got == want

    def test_repeated_variable_collects(self):
        p = parse_polynomial("x1^2*x1", V2)
        assert p.terms == {(3, 0): 1.0}

    def test_term_collection(self):
        p = parse_polynomial("x1 + x1", V2)
        assert p.terms == {(1, 0): 2.0}


def random_poly(rng, n, rational):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        mono = tuple(rng.randint(0, 3) for _ in range(n))
        if rational:
            coeff = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        else:
            coeff = rng.uniform(-10, 10)
        if coeff:
            terms[mono] = coeff
    return Polynomial(n, terms)


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("rational", [True, False])
    def test_round_trip(self, rational):
        rng = random.Random(101 if rational else 103)
        names4 = ["x1", "x2", "x3", "x4"]
        for _ in range(250):
            n = rng.randint(1, 4)
            p = random_poly(rng, n, rational)
            text = format_polynomial(p, names4[:n])
            back = parse_polynomial(text, names4[:n], rational=rational)
            assert back == p

    def test_zero_prints_as_zero(self):
        assert format_polynomial(Polynomial.zero(2)) == "0"


class TestParseProblem:
    def test_example31(self, example31):
        p = example31
        assert p.variables == ["x1", "x2"]
        assert len(p.inequalities) == 2
        assert len(p.equalities) == 0
        assert p.resolved_c() == 2

    def test_derived_c_from_x0(self):
        doc = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nx0: 0 -1\n"
        p = parse_problem(doc)
        assert p.resolved_c() == 2.0

    def test_unconstrained(self):
        p = parse_problem("vars: x\nobj: x^2\nx0: 0\n")
        assert p.inequalities == [] and p.equalities == []
        assert p.resolved_c() == 1.0

    def test_leq_normalization(self):
        p = parse_problem("vars: x\nobj: x\nineq: x - 1 <= 0\nc: 5\n")
        assert p.inequalities[0] == parse_polynomial("1 - x", ["x"])

    def test_missing_objective(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x\nc: 1\n")

    def test_infeasible_x0(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x\nobj: x\nineq: x - 1\nx0: 0\n")

    def test_neither_bound_datum(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x\nobj: x^2\n")

    def test_both_bound_data(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x\nobj: x^2\nc: 1\nx0: 0\n")

    def test_margin_must_be_positive(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x\nobj: x^2\nx0: 0\nmargin: 0\n")

    def test_comments_and_blank_lines(self):
        doc = "# header\n\nvars: x\n# mid\nobj: x^2  # trailing\nc: 1\n"
        p = parse_problem(doc)
        assert p.objective == parse_polynomial("x^2", ["x"])

    def test_vars_must_come_first(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("obj: x\nvars: x\nc: 1\n")

    @pytest.mark.parametrize("doc, line, col", [
        ("vars: x1\nobj: x1 + ?\nc: 1\n", 2, 11),
        ("vars: x1\nineq:    1 - x1 >= 1\nobj: x1\nc: 1\n", 2, 17),
        ("vars: x1\n  eq:\tx1^-1  # comment\nobj: x1\nc: 1\n", 2, 10),
        ("vars: x1 x2\nobj: x1\nineq: x2*y <= 0\nc: 1\n", 3, 10),
    ])
    def test_error_columns_count_from_the_file_line(self, doc, line, col):
        with pytest.raises(ParseError) as err:
            parse_problem(doc)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("key, value", [
        ("vars", "x"), ("obj", "x"), ("c", "1"), ("x0", "0"), ("margin", "2"),
    ])
    def test_single_valued_directive_repeated(self, key, value):
        doc = "vars: x\nobj: x^2\nc: 1\nx0: 0\nmargin: 1\n" + f"{key}: {value}\n"
        with pytest.raises(ProblemFormatError, match=f"^line 6: duplicate '{key}:' directive$"):
            parse_problem(doc)

    @pytest.mark.parametrize("key, value", [("c", "1/"), ("x0", "0 1/"), ("margin", "2/")])
    @pytest.mark.parametrize("rational", [False, True])
    def test_denominator_longer_than_int_converts(self, key, value, rational):
        doc = f"vars: x y\nobj: x^2\n{key}: {value}{'9' * 5000}\n"
        if key == "margin":
            doc += "x0: 0 0\n"
        with pytest.raises(ProblemFormatError,
                           match=re.escape("line 3: 999999999999... (5000 characters) lies beyond the float range")):
            parse_problem(doc, rational=rational)

    @pytest.mark.parametrize("key, value", [("c", "1/"), ("x0", "0 1/"), ("margin", "2/")])
    @pytest.mark.parametrize("rational", [False, True])
    def test_denominator_beyond_the_float_range(self, key, value, rational):
        # 400 digits convert to an int but not to a float; float mode divided by float(den)
        doc = f"vars: x y\nobj: x^2\n{key}: {value}{'9' * 400}\n"
        if key == "margin":
            doc += "x0: 0 0\n"
        with pytest.raises(ProblemFormatError,
                           match=re.escape("line 3: 999999999999... (400 characters) lies beyond the float range")):
            parse_problem(doc, rational=rational)

    @pytest.mark.parametrize("rational", [False, True])
    def test_long_denominator_within_the_float_range(self, rational):
        p = parse_problem(f"vars: x\nobj: x^2\nc: 3/1{'0' * 300}\n", rational=rational)
        assert p.c == (Fraction(3, 10 ** 300) if rational else 3 / 1e300)

    def test_equality_directive(self):
        p = parse_problem("vars: x y\nobj: x\neq: x^2 + y^2 - 1\nx0: 1 0\n")
        assert len(p.equalities) == 1

    def test_x0_feasibility_tolerance_on_equalities(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("vars: x y\nobj: x\neq: x^2 + y^2 - 1\nx0: 0.5 0\n")

    @pytest.mark.parametrize("doc, rational, message", [
        ("vars: x\nobj: 1e999*x^2\nc: 1\n", False, "line 2, col 6: 1e999 lies beyond the float range"),
        ("vars: x\nobj: 1e999*x - 1e999*x + x^2\nc: 1\n", False,
         "line 2, col 6: 1e999 lies beyond the float range"),
        ("vars: x\nobj: x^2\nineq: 1e999 - x\nc: 1\n", False, "line 3, col 7: 1e999 lies beyond the float range"),
        ("vars: x\nobj: x^2\neq: x\neq: x - 1e999\nc: 1\n", False,
         "line 4, col 9: 1e999 lies beyond the float range"),
        ("vars: x\nobj: x^2\nc: 1e999\n", False, "line 3: 1e999 lies beyond the float range"),
        ("vars: x y\nobj: x^2\nx0: 0 1e999\n", False, "line 3: 1e999 lies beyond the float range"),
        ("vars: x\nobj: x^2\nx0: 0\nmargin: 1e999\n", False, "line 4: 1e999 lies beyond the float range"),
        ("vars: x\nobj: 1e400*x^2\nc: 1\n", True, "line 2, col 6: 1e400 lies beyond the float range"),
        ("vars: x\nobj: x^2\nc: 1e400\n", True, "line 3: 1e400 lies beyond the float range"),
        ("vars: x\nobj: x^2\nx0: 1e400/3\n", True, "line 3: 1e400 lies beyond the float range"),
        # every literal lies in the range, their sum does not
        ("vars: x\nobj: 1e308*x + 1e308*x\nc: 1\n", False, "objective holds a number that is not finite"),
        ("vars: x\nobj: 9e307*x + 9e307*x\nc: 1\n", True, "objective holds a number that is not finite"),
    ])
    def test_non_finite_number_rejected(self, doc, rational, message):
        with pytest.raises((ParseError, ProblemFormatError), match=f"^{re.escape(message)}$"):
            parse_problem(doc, rational=rational)

    @pytest.mark.parametrize("term, col", [
        ("1e-400*x", 12), ("1/" + "9" * 400 + "*x", 14), ("1e-200/1e200*x", 12),
    ], ids=["tiny literal", "400-digit denominator", "tiny quotient"])
    def test_objective_term_beyond_the_float_range(self, term, col):
        # each term once read as 0.0 and dropped without a word
        with pytest.raises(ParseError) as err:
            parse_problem(f"vars: x\nobj: x^2 + {term}\nc: 1\n")
        assert (err.value.line, err.value.col) == (2, col)
        assert err.value.reason.endswith("lies beyond the float range")

    @pytest.mark.parametrize("doc, rational, name", [
        ("vars: x\nobj: x^2\nx0: 1e300\n", False, "the objective"),  # x0**2 raises OverflowError
        ("vars: x\nobj: 1e300*x\nx0: 1e10\n", False, "the objective"),  # the product is inf
        ("vars: x\nobj: x^2\nx0: 1e300\n", True, "the objective"),
        ("vars: x\nobj: x\nineq: x^400 - 1\nx0: 1000\n", True, "inequality 1"),
        ("vars: x\nobj: x\neq: x - 1000\neq: x^400 - 1\nx0: 1000\n", True, "equality 2"),
    ])
    def test_value_at_x0_beyond_float_range_rejected(self, doc, rational, name):
        with pytest.raises(ProblemFormatError,
                           match=f"^x0 is out of range: {name} at x0 does not fit in a float"):
            parse_problem(doc, rational=rational)

    def test_resolved_c_beyond_float_range_rejected(self):
        p = PopProblem(["x"], parse_polynomial("x^2", ["x"]), x0=[1e300])
        with pytest.raises(ProblemFormatError, match="^x0 is out of range: the objective"):
            p.resolved_c()

    @pytest.mark.parametrize("field", ["objective", "inequality 1", "equality 1"])
    @pytest.mark.parametrize("value", [Fraction(10**400, 3), -(10**400), math.nan, math.inf],
                             ids=["fraction", "int", "nan", "inf"])
    def test_coefficient_that_is_not_finite_refused(self, field, value):
        # an exact coefficient is tested as num / den over the polynomial's
        # common denominator; a float one by np.isfinite
        x = ["x"]
        bad = Polynomial(1, {(1,): Fraction(1, 7), (2,): value})
        fine = parse_polynomial("x^2 + 1/3", x, rational=True)
        problem = PopProblem(x, bad if field == "objective" else fine, c=1,
                             inequalities=[bad if field == "inequality 1" else fine],
                             equalities=[bad if field == "equality 1" else fine])
        with pytest.raises(ProblemFormatError, match=f"^{field} holds a number that is not finite$"):
            problem.validate()
        problem.objective = problem.inequalities[0] = problem.equalities[0] = fine
        problem.validate()

    def test_large_finite_numbers_accepted(self):
        p = parse_problem("vars: x\nobj: 1e300*x^2\nc: 1e300\n")
        assert p.c == 1e300
        p = parse_problem("vars: x\nobj: x^2\nc: 1e300\n", rational=True)
        assert p.c == Fraction(10) ** 300


class TestParserTotality:
    def test_fuzz_never_crashes(self):
        rng = random.Random(2024)
        alphabet = string.ascii_letters + string.digits + "+-*/^ .()<>=:#\n\t_"
        for _ in range(400):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            try:
                parse_polynomial(text, V2)
            except (ParseError, ProblemFormatError):
                pass
        for _ in range(400):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            try:
                parse_problem(text)
            except (ParseError, ProblemFormatError):
                pass

    def test_near_grammar_mutations(self):
        base = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nc: 2\n"
        rng = random.Random(5)
        for _ in range(300):
            chars = list(base)
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(chars))
                chars[i] = rng.choice("+-*/^xyz09 :\n")
            try:
                parse_problem("".join(chars))
            except (ParseError, ProblemFormatError):
                pass


class TestEmitReport:
    def test_deterministic_and_json(self):
        payload = {"verdict": "inconclusive", "bounds": [0.999999], "frac": Fraction(1, 3)}
        a = emit_report(payload)
        b = emit_report(payload)
        assert a == b
        tree = json.loads(a)
        assert tree["bounds"] == [0.999999]
        assert tree["frac"] == "1/3"

    def test_refuses_values_outside_a_payload_tree(self):
        with pytest.raises(TypeError):
            emit_report({"problem": object()})

    def test_bounds_substring(self):
        out = emit_report({"bounds": [0.999999]})
        assert '"bounds"' in out and "0.999999" in out

    def test_problem_payload(self, example31):
        tree = json.loads(emit_report({"problem": example31.to_payload()}))
        assert tree["problem"]["variables"] == ["x1", "x2"]
        assert tree["problem"]["resolved_c"] == 2.0
