"""The payload Gram reader against the number-by-number reader it replaced
(``gram_reference.reference_gram_from_payload``): each kind of Gram a
payload can hold, read to the same entries, float view, smallest eigenvalue,
expansion and written payload, or refused with the same message.  Random
Grams are in test_payload_gram_properties.py.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gram_reference import check_payload_gram, reference_pair_groups
from popnc.certificates import RationalGram, _pair_groups, certificate_from_payload
from popnc.termarrays import product_groups

BASIS = [[0, 0], [1, 0], [0, 1]]
BIG = "9" * 308  # the most digits a numerator within the float range has


def square(a, b, c):
    """The symmetric 3 x 3 Gram with diagonal a, b, c and off-diagonal entries
    b, c and a."""
    return [[a, b, c], [b, b, a], [c, a, c]]


@pytest.mark.parametrize("rows", [
    square(1.5, -0.25, 1e-300),
    square(1, 2, -3),
    square(2**60 + 1, 10**300, -(2**64 + 3)),
    square(0.0, -0.0, 0),
    square("1/3", "-2/7", "5/1"),
    square("2/4", "-6/9", "0/5"),
    square("0/1", "0/7", "-0/3"),
    square("0/1", "0/1", "0/1"),
    square(f"{BIG[:300]}/7", f"-{BIG[:300]}/3", "1/" + BIG[:300]),
    square(f"{BIG}/100", f"-{BIG}/900", "1/2"),
    square("1", "0.5", "-1.25e-3"),
    square(" 1/2", "+3/4", "1 / 8"),
    square("1/2", 0.5, 1),
    square("1/2", "1/3", 0.25),
    [["1/2", "1/3", "1/4"], ["1/3", "1/5"], ["1/4", "1/5", "1/6"]],
    [[1.0, 2.0, 3.0], [2.0, 1.0], [3.0, 1.0, 1.0]],
    [[1.0, 2.0, 3.0], [2.0, 1.0, 1.0]],
    [[1.0, 2.0, 3.0], [2.0, 1.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    square(float("nan"), 1.0, 1.0),
    square(1.0, float("inf"), 1.0),
    square(1.0, 1.0, float("-inf")),
    square(1.0, True, 1.0),
    square(False, 1.0, 1.0),
    square("1/2", True, "1/3"),
    square(10**400, 1.0, 1.0),
    square(1.0, 2**1024, 1.0),
    square("1/0", "1/2", "1/3"),
    square("1_0/3", "1/2", "1/3"),
    square("1/2/3", "1/2", "1/3"),
    square("1/2,3/4", "1/2", "1/3"),
    [["1/2,3/4", "1/5"], ["1/6", "1/7"], ["1/8", "1/9"]],
    square("", "1/2", "1/3"),
    square("1e350", "1/2", "1/3"),
    square("1/" + "9" * 400, "1/2", "1/3"),
    square(None, 1.0, 1.0),
    square([1.0], 1.0, 1.0),
    "123",
    {"7": 1},
    ["12", "34", "56"],
    [[1.0, 2.0, 3.0], "456", [3.0, 1.0, 1.0]],
    [],
    [[], [], []],
], ids=["floats", "JSON ints", "ints beyond 2^53", "zeros", "p/q", "unnormalized p/q", "zero p/q",
        "all zero p/q", "300-digit p/q", "308-digit numerators", "decimal strings", "blanks and signs",
        "mixed string, float and int", "mixed strings and a float", "ragged strings",
        "ragged floats", "too few rows", "too many rows", "NaN", "Infinity", "-Infinity", "true",
        "false", "true among strings", "int beyond the float range", "2^1024", "division by zero",
        "underscore", "two slashes", "a comma", "a comma, rows of two", "empty string", "1e350",
        "400-digit denominator", "null", "list entry", "string gram", "object gram",
        "a string per row", "a string row", "no rows", "empty rows"])
def test_payload_gram_reads_as_the_entry_reader(rows):
    check_payload_gram(rows, BASIS)


def test_a_string_gram_is_numerators_over_the_least_common_denominator():
    payload = {"family": "hierarchy", "num_vars": 2, "order": 1, "lambda": 0.0, "lambda_sign": 1,
               "sos_weights": [{"tag": "sigma0", "index": None, "basis": BASIS,
                                "gram": square("2/4", "-1/6", "3/9")}]}
    gram = certificate_from_payload(payload).sos_weights[0].gram
    assert isinstance(gram, RationalGram) and gram.den == 6
    assert gram.num.tolist() == square(3, -1, 2)
    assert all(type(a) is int for row in gram.num.tolist() for a in row)
    assert gram.tolist() == square(Fraction(1, 2), Fraction(-1, 6), Fraction(1, 3))


def test_an_empty_basis_has_a_0_x_0_gram():
    # [] once read as an array of shape (0,), which the expansion refused
    payload = {"family": "hierarchy", "num_vars": 2, "order": 1, "lambda": 0.0, "lambda_sign": 1,
               "sos_weights": [{"tag": "sigma0", "index": None, "basis": [], "gram": []}]}
    weight = certificate_from_payload(payload).sos_weights[0]
    assert weight.gram.shape == (0, 0) and weight.polynomial(2).is_zero()


@pytest.mark.parametrize("basis, packed", [
    # a digit of 2 * 2^21 + 1 per variable: (2^22 + 1)^3 > 2^62, so the lexsort groups
    ([(2**21, 0, 1), (0, 2**21, 0), (1, 1, 2**21), (2**21, 2**21, 2**21), (0, 0, 0), (2**21, 0, 1)], False),
    # one exponent of 2^61 alone does not fit either
    ([(2**61, 0), (0, 1), (1, 0), (2**61, 1)], False),
    # (2^31 - 1)^2 just fits
    ([(2**30 - 1, 0), (0, 2**30 - 1), (5, 7), (0, 0)], True),
    ([(3, 0, 1, 2), (0, 0, 0, 0), (1, 2, 3, 0), (3, 0, 1, 2), (2, 2, 2, 2)], True),
    ([], True),
], ids=["three 2^21 exponents", "one 2^61 exponent", "packed near 2^62", "packed", "empty"])
def test_pair_groups_match_the_lexsort(basis, packed):
    num_vars = len(basis[0]) if basis else 2
    digits = [2 * max((m[i] for m in basis), default=0) + 1 for i in range(num_vars)]
    assert (math.prod(digits) <= 2**62) == packed
    group, monos = _pair_groups(basis, num_vars)
    want_group, want_monos = reference_pair_groups(basis, num_vars)
    assert group.tolist() == want_group.tolist()
    assert [tuple(m) for m in monos.tolist()] == want_monos


@pytest.mark.parametrize("num_vars, top, packed", [(3, 4, True), (40, 1, False)], ids=["packed", "lexsort"])
def test_product_groups_give_each_group_its_row(num_vars, top, packed):
    # exponents up to 1 in 40 variables: a digit of 3 per variable, 3^40 > 2^62
    rng = np.random.default_rng(7)
    a, b, c = (rng.integers(0, top + 1, size=(m, num_vars), dtype=np.int64) for m in (5, 3, 2))
    # (b, a) meets the products of (a, b) again: groups are shared across the pairs
    factors = [(a, b), (np.zeros((0, num_vars), np.int64), b), (b, a), (c, c[:1])]
    products = [(x[:, None, :] + y[None, :, :]).reshape(-1, num_vars) for x, y in factors]
    assert (math.prod((np.concatenate(products).max(axis=0) + 1).tolist()) <= 2**62) == packed
    groups, rows = product_groups(factors, num_vars)
    for group, product in zip(groups, products):
        assert group.shape == (len(product),) and (rows[group] == product).all()
    assert sorted(set(np.concatenate(groups).tolist())) == list(range(len(rows)))
    keys = [tuple(reversed(row)) for row in rows.tolist()]
    assert keys == sorted(set(keys))  # distinct, and in the order of the reversed vectors
