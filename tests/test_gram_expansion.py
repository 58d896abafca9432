"""The Gram expansion against the per-pair loop it replaced
(``gram_reference``): the same terms in the same order, the same coefficient
types, floats equal bit for bit and Fractions equal.  Random Grams and
certificates are in test_gram_expansion_properties.py.
"""

from fractions import Fraction

import numpy as np
import pytest

from gram_reference import check_expansion
from popnc.certificates import gram_to_polynomial

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
], ids=["float", "rational", "mixed", "int", "int and rational", "empty array", "empty list",
        "zero float", "zero rational", "cancel float", "cancel rational", "cancel int",
        "repeated monomial", "int array", "float32 array"])
def test_expansion_matches_the_pair_loop(gram, basis):
    check_expansion(gram, basis, 2)


def test_int_gram_keeps_int_coefficients():
    p = gram_to_polynomial([[1, 2], [2, 3]], [(0,), (1,)], 1)
    assert [(m, type(c)) for m, c in p.terms.items()] == [((0,), int), ((1,), int), ((2,), int)]


@pytest.mark.parametrize("gram, basis, message", [
    ([[1.0, 0.0]], [(0,), (1,)], "not 2 x 2"),
    (np.eye(3), [(0,), (1,)], "not 2 x 2"),
    ([[1.0]], [(0, 1)], "has length 2, expected 1"),
    ([[1.0]], [(-1,)], "non-negative integers"),
    ([[1.0]], [(2**62,)], "beyond 2\\^62"),
])
def test_malformed_expansions_are_refused(gram, basis, message):
    with pytest.raises(ValueError, match=message):
        gram_to_polynomial(gram, basis, 1)
