"""The Gram expansion against the per-pair loop it replaced
(``gram_reference``): the same terms in the same order, the same coefficient
types, floats equal bit for bit and Fractions equal.  Random Grams and
certificates are in test_gram_expansion_properties.py.  Also the one rule
that makes every Gram a float ndarray or a ``RationalGram``.
"""

from fractions import Fraction

import numpy as np
import pytest

from gram_reference import check_expansion
from popnc.certificates import RationalGram, _as_gram, gram_to_polynomial

F = Fraction
BASIS2 = [(0, 0), (1, 0), (0, 1), (2, 0)]


@pytest.mark.parametrize("gram, basis", [
    (np.array([[1.0, 0.5, -0.25, 1e16], [0.5, 2.0, 0.0, 1.0], [-0.25, 0.0, 3.0, -1e16],
               [1e16, 1.0, -1e16, 0.1]]), BASIS2),
    ([[F(1, 3), F(1, 2), 0, F(-5, 7)], [F(1, 2), F(2), F(0), 1], [0, F(0), F(9, 4), F(1, 6)],
      [F(-5, 7), 1, F(1, 6), F(7, 11)]], BASIS2),
    ([[1.5, F(1, 3), 2, 0.0], [F(1, 3), 0, F(1, 2), 0.25], [2, F(1, 2), -0.0, 1], [0.0, 0.25, 1, 3]], BASIS2),
    ([[1, 2, 0, -3], [2, 5, 1, 0], [0, 1, 4, 2], [-3, 0, 2, 6]], BASIS2),
    ([[1, F(1, 2), 0, 0], [F(1, 2), 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]], BASIS2),
    (np.zeros((0, 0)), []),
    ([], []),
    (np.zeros((4, 4)), BASIS2),
    ([[F(0)] * 4 for _ in range(4)], BASIS2),
    # x1 and x1^2 cancel exactly; x1 first appears at (0, 1), not at its zero (1, 0)
    (np.array([[0.0, 1.0, 0.0, 0.5], [-1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 0.0, 1.0]]), BASIS2),
    ([[0, F(1), 0, F(1, 2)], [F(-1), 2, 0, 0], [0, 0, 0, 0], [F(-1, 2), 0, 0, 1]], BASIS2),
    ([[0, 1, 0, 1], [-1, 2, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]], BASIS2),
    # a repeated basis monomial, an int ndarray and a float32 ndarray
    (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]), [(1, 0), (0, 1), (1, 0)]),
    (np.array([[1, 2], [2, 3]]), [(0, 0), (1, 1)]),
    (np.array([[0.1, 0.2], [0.2, 0.3]], dtype=np.float32), [(0, 0), (1, 1)]),
    # numerators over one denominator: 7/12, -1/4, 10^40/3, ...; x1 and x1^2 cancel
    (RationalGram(np.array([[7, -3, 0, 4 * 10**40], [3, 24, 0, 0], [0, 0, 0, 5],
                            [-4 * 10**40, 0, 5, 12]], dtype=object), 12), BASIS2),
    (RationalGram(np.array([[0] * 4] * 4, dtype=object), 1), BASIS2),
    (RationalGram(np.zeros((0, 0), dtype=object), 1), []),
], ids=["float", "rational", "mixed", "int", "int and rational", "empty array", "empty list",
        "zero float", "zero rational", "cancel float", "cancel rational", "cancel int",
        "repeated monomial", "int array", "float32 array", "numerators over a denominator",
        "zero numerators", "empty numerators"])
def test_expansion_matches_the_pair_loop(gram, basis):
    check_expansion(gram, basis, 2)


def test_int_gram_expands_to_fractions():
    # an int Gram is a RationalGram over 1, so its coefficients are Fractions
    p = gram_to_polynomial([[1, 2], [2, 3]], [(0,), (1,)], 1)
    assert [(m, type(c), c) for m, c in p.terms.items()] == [
        ((0,), F, 1), ((1,), F, 4), ((2,), F, 3)]


F32 = np.array([[0.1, 0.2], [0.2, 0.3]], dtype=np.float32)


@pytest.mark.parametrize("gram, den, entries", [
    (np.array([[2, -4], [-4, 6]]), 1, [[2, -4], [-4, 6]]),
    (F32, None, F32.tolist()),
    ([[1, 2], [2, 3]], 1, [[1, 2], [2, 3]]),
    ([[F(1, 2), F(-1, 6)], [F(-1, 6), F(4, 6)]], 6, [[3, -1], [-1, 4]]),
    ([[1, F(1, 4)], [F(1, 4), F(-3, 10)]], 20, [[20, 5], [5, -6]]),
    ([[F(1, 3), 0.5], [0.5, 2]], None, [[1 / 3, 0.5], [0.5, 2.0]]),
    ([[0]], 1, [[0]]),
    ([], 1, []),
], ids=["int array", "float32 array", "ints", "Fractions", "ints and Fractions",
        "floats and Fractions", "zero", "empty"])
def test_a_gram_is_a_float_array_or_numerators_over_the_least_denominator(gram, den, entries):
    got = _as_gram(gram, len(entries))
    if den is None:  # a float anywhere: a float Gram, each Fraction rounded once
        assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (len(entries),) * 2
        assert got.tolist() == entries
    else:
        assert isinstance(got, RationalGram) and got.den == den and got.num.shape == (len(entries),) * 2
        assert got.num.tolist() == entries and all(type(a) is int for row in got.num.tolist() for a in row)
    assert _as_gram(got, len(entries)) is got  # either type is returned as is


@pytest.mark.parametrize("gram, basis, message", [
    ([[1.0, 0.0]], [(0,), (1,)], "not 2 x 2"),
    (np.eye(3), [(0,), (1,)], "not 2 x 2"),
    ([[1, 2], [3]], [(0,), (1,)], "not 2 x 2"),
    (np.ones(2), [(0,), (1,)], "not 2 x 2"),
    ([[1.0]], [(0, 1)], "has length 2, expected 1"),
    ([[1.0]], [(-1,)], "non-negative integers"),
    ([[1.0]], [(2**62,)], "beyond 2\\^62"),
    (RationalGram(np.eye(3, dtype=object), 2), [(0,), (1,)], "not 2 x 2"),
])
def test_malformed_expansions_are_refused(gram, basis, message):
    with pytest.raises(ValueError, match=message):
        gram_to_polynomial(gram, basis, 1)
