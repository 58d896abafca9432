import math
import random
import re
from fractions import Fraction

import pytest

from popnc.polynomial import Polynomial, grlex_key, sum_of_squared_variables


def P(text, names=("x1", "x2"), rational=False):
    from popnc.problem_io import parse_polynomial

    return parse_polynomial(text, list(names), rational=rational)


def random_poly(rng, n, max_deg, rational=False, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg // max(1, n)) for _ in range(n))
        if rational:
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            coeff = rng.uniform(-5, 5)
        terms[mono] = coeff
    return Polynomial(n, terms)


class TestEvaluate:
    def test_example31_objective(self):
        f = P("x1^2 + 1")
        assert f.evaluate([0.0, -1.0]) == 1.0

    def test_zero_polynomial(self):
        assert Polynomial.zero(3).evaluate([4.0, 5.0, -1.0]) == 0

    def test_sextic_top_at_ones(self):
        f = P("x1^6 + x2^6 - x1^3*x2^3")
        assert f.evaluate([1.0, 1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            P("x1 + x2").evaluate([1.0])

    def test_product_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = random_poly(rng, n, 4)
            q = random_poly(rng, n, 4)
            v = [rng.uniform(-1.5, 1.5) for _ in range(n)]
            lhs = (p * q).evaluate(v)
            rhs = p.evaluate(v) * q.evaluate(v)
            assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))


class TestTopComponent:
    def test_highest_degree_terms_in_order(self):
        f = P("x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1")
        top = f.top_component()
        assert list(top.terms.items()) == [((6, 0), 1.0), ((3, 3), -1.0), ((0, 6), 1.0)]
        assert Polynomial.constant(2, 5).top_component() == Polynomial.constant(2, 5)

    def test_top_component_of_zero_errors(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).top_component()

    def test_zero_degree_convention(self):
        assert Polynomial.zero(2).degree() == 0


class TestL1Norm:
    def test_unit_coefficients(self):
        assert P("x1^2 + 1").l1_norm() == 2

    def test_zero(self):
        assert Polynomial.zero(1).l1_norm() == 0

    def test_mixed_signs(self):
        assert P("2*x1 - 3*x2").l1_norm() == 5

    def test_norm_axioms(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = random_poly(rng, n, 4, rational=True)
            q = random_poly(rng, n, 4, rational=True)
            assert (p + q).l1_norm() <= p.l1_norm() + q.l1_norm()
            a = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            assert p.scale(a).l1_norm() == abs(a) * p.l1_norm()


class TestArithmetic:
    def test_example31_generator_sum(self):
        g1 = P("1 - x2^2", rational=True)
        g2 = P("x2^2 - 1/4", rational=True)
        assert g1 + g2 == Polynomial.constant(2, Fraction(3, 4))

    def test_multiply_by_zero(self):
        p = P("x1^3 - 2*x2")
        assert (p * Polynomial.zero(2)).is_zero()

    def test_difference_of_squares(self):
        one = Polynomial.constant(1, 1)
        x = Polynomial.variable(1, 0)
        assert (x + one) * (x - one) == x * x - one

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)

    def test_no_zero_coefficients_stored(self):
        p = P("x1 + x2") - P("x2")
        assert set(p.terms) == {(1, 0)}

    def test_results_drop_every_zero_and_keep_nan(self):
        x = Polynomial.variable(1, 0)
        nan = float("nan")
        for zero in (0, 0.0, Fraction(0)):
            one = Polynomial.constant(1, 1 + zero)
            assert (x * one - x).terms == {}
        # 1e-200 * -1e-200 underflows to -0.0, which is a zero too
        tiny = Polynomial(1, {(1,): 1e-200}) * Polynomial(1, {(0,): -1e-200, (1,): 1.0})
        assert list(tiny.terms) == [(2,)]
        kept = Polynomial(1, {(1,): nan}) + x
        assert list(kept.terms) == [(1,)] and math.isnan(kept.terms[(1,)])

    def test_product_degree_additivity_exact(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = random_poly(rng, n, 5, rational=True)
            q = random_poly(rng, n, 5, rational=True)
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).degree() == p.degree() + q.degree()

    def test_power(self):
        x = Polynomial.variable(1, 0)
        assert (x + Polynomial.constant(1, 1)) ** 2 == P("x1^2 + 2*x1 + 1", names=("x1",))
        assert x**0 == Polynomial.constant(1, 1)
        with pytest.raises(ValueError):
            x ** (-1)


    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_float_and_fraction_arithmetic_is_the_pairwise_one(self, seed):
        # a float operand turns the other's Fractions into floats once; Fraction
        # computes each mixed pair from that same float, so the floats agree bit
        # for bit; the operands' terms and the result's come in graded-lex order
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        a = random_poly(rng, n, 4, rational=True, max_terms=8)
        b = random_poly(rng, n, 4, max_terms=8)
        if seed % 4 == 0:  # ints beside the Fractions stay ints
            a = a + Polynomial(n, {(0,) * n: rng.randint(1, 5), (1,) + (0,) * (n - 1): 2})
        for x, y in ((a, b), (b, a)):
            want_sum = dict(x.terms)
            for mono, coeff in y.terms.items():
                want_sum[mono] = want_sum.get(mono, 0) + coeff
            want_prod = {}
            for m1, c1 in x.terms.items():
                for m2, c2 in y.terms.items():
                    mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                    want_prod[mono] = want_prod.get(mono, 0) + c1 * c2
            for got, want in ((x + y, want_sum), (x * y, want_prod)):
                want = {m: want[m] for m in sorted(want, key=grlex_key) if want[m] != 0}
                assert list(got.terms) == list(want)
                assert [(type(c), repr(c)) for c in got.terms.values()] == \
                       [(type(c), repr(c)) for c in want.values()]


class TestStructure:
    def test_grlex_order(self):
        monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert sorted(monos, key=grlex_key) == monos

    @pytest.mark.parametrize("seed", range(20))
    def test_terms_are_in_grlex_order(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        p = random_poly(rng, n, 8, rational=seed % 2 == 0, max_terms=30)
        assert list(p.terms) == sorted(p.terms, key=grlex_key)

    def test_sum_of_squared_variables(self):
        assert sum_of_squared_variables(2) == P("x1^2 + x2^2")

    def test_immutability(self):
        p = P("x1")
        with pytest.raises(AttributeError):
            p.num_vars = 3

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(-1, 0): 1.0})
        with pytest.raises(ValueError):
            Polynomial(2, {(1,): 1.0})

    def test_rows_are_read_only(self):
        p = P("x1^2 + x2")
        with pytest.raises(ValueError):
            p.rows[0, 0] = 5
        assert p.rows.dtype == "int64" and p.rows.tolist() == [[0, 1], [2, 0]]

    @pytest.mark.parametrize("mono, message", [
        ((2**63, 0), "an exponent reaches 2^63"),
        ((2**63 - 1, 1), "a monomial has total degree 2^63 or more"),
        ((2**62, 2**62), "a monomial has total degree 2^63 or more"),
    ])
    def test_total_degree_beyond_int64_is_refused(self, mono, message):
        # exponent rows are int64, and degree() sums a row: it must not wrap
        with pytest.raises(ValueError, match=re.escape(message)):
            Polynomial(2, {mono: 1, (0, 0): 1})

    def test_product_beyond_int64_is_refused(self):
        x, y = Polynomial(2, {(2**62, 0): 1}), Polynomial(2, {(0, 2**62 - 1): 1, (2**62 - 1, 0): 1})
        assert (x * y).degree() == 2**63 - 1
        with pytest.raises(ValueError, match="total degree 2\\^63"):
            x * Polynomial(2, {(0, 2**62): 1})
        with pytest.raises(ValueError, match="total degree 2\\^63"):
            x * x
        assert Polynomial(2, {(2**63 - 1, 0): 2.0}).degree() == 2**63 - 1
