"""Replaced code kept as references for differential tests: the per-pair
Gram expansion, the certificate residual computed from it, the lexsort
grouping of basis pairs, the entry-by-entry payload Gram reader, and the
certificate identity in ``Polynomial`` arithmetic (``reconstruct`` and
``expected``).

``reference_gram_to_polynomial`` builds one product monomial and makes one
dict update per Gram entry, in row-major order, zero entries skipped.
``reference_residual`` recomputes a certificate's identity residual from it
with the dict arithmetic of ``polynomial_reference``.
``reference_pair_groups`` groups the pairs of a basis by a lexsort of their
product exponent vectors.  ``reference_gram_from_payload`` reads a payload
Gram one number at a time, by the payload number rule.

The references are fed the Gram as ``SosWeight`` holds it (``_as_gram``: a
float ndarray or a ``RationalGram``), so an int Gram is compared as
Fractions and a Gram of floats and Fractions as floats.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from polynomial_reference import DictPolynomial, dict_polynomial
from popnc.certificates import (
    GeneratorSet,
    ModuleCertificate,
    RationalGram,
    SosWeight,
    Statement,
    _as_gram,
    _generator,
    _gram_float,
    _num_from_payload,
    certificate_from_payload,
    certificate_to_payload,
    gram_to_polynomial,
)
from popnc.polynomial import Polynomial


def reference_gram_to_polynomial(gram, basis, num_vars):
    rows = gram.tolist() if hasattr(gram, "tolist") else gram
    s = len(basis)
    terms = {}
    for i in range(s):
        row = rows[i]
        for j in range(s):
            q = row[j]
            if q == 0:
                continue
            mono = tuple(x + y for x, y in zip(basis[i], basis[j]))
            terms[mono] = terms.get(mono, 0) + q
    return DictPolynomial(num_vars, terms)


def reference_pair_groups(basis, num_vars):
    """The group of each pair (i, j), in row-major order, and the monomial of
    each group, numbered by a lexsort of the product exponent vectors."""
    s = len(basis)
    exps = np.array(basis, dtype=np.int64).reshape(s, num_vars)
    sums = (exps[:, None, :] + exps[None, :, :]).reshape(s * s, num_vars)
    order = np.lexsort(sums.T)
    ordered = sums[order]
    starts = np.ones(s * s, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(s * s, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return group, [tuple(m) for m in ordered[starts].tolist()]


def reference_gram_from_payload(rows, s):
    """A payload Gram read number by number: nested lists when some entry is
    a Fraction, else a float ndarray.  Raises ValueError for a Gram that is
    not a list of lists, then what the number rule raises, then ValueError
    for a Gram that is not s x s."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("not a list of rows")
    rows = [[_num_from_payload(v) for v in row] for row in rows]
    if len(rows) != s or any(len(row) != s for row in rows):
        raise ValueError(f"not {s} x {s}, the size of its basis")
    exact = any(isinstance(v, Fraction) for row in rows for v in row)
    return rows if exact else np.array(rows, dtype=float)


def reference_residual(cert: ModuleCertificate, claim: Statement):
    """The l1 residual of the identity in the dict arithmetic:
    sigma_0 + sum sigma_j g_j + sum phi_l h_l - (target - s lambda), each
    sigma expanded from the Gram its weight holds."""
    n = cert.num_vars
    total = DictPolynomial.zero(n)
    for w in cert.sos_weights:
        if w.tag == "psi":
            continue
        sigma = reference_gram_to_polynomial(w.gram, w.basis, n)
        total = total + (sigma if w.tag == "sigma0" else sigma * dict_polynomial(claim.gens.ineq[w.index]))
    for l, phi in cert.eq_multipliers:
        total = total + dict_polynomial(phi) * dict_polynomial(claim.gens.eq[l])
    expected = dict_polynomial(claim.target)
    if claim.lambda_sign != 0 and cert.lam != 0:
        expected = expected - DictPolynomial.constant(n, claim.lambda_sign * cert.lam)
    return (total - expected).l1_norm()


def reconstruct(cert: ModuleCertificate, gens: GeneratorSet) -> Polynomial:
    """sigma_0 + sum sigma_j g_j + sum phi_l h_l from the stored weights, in
    ``Polynomial`` arithmetic; a psi weight is part of the target, not a
    module term.  Raises ValueError for a weight or multiplier index that
    names no generator."""
    total = Polynomial.zero(cert.num_vars)
    for i, w in enumerate(cert.sos_weights):
        if w.tag == "psi":
            continue
        sigma = w.polynomial(cert.num_vars)
        if w.tag == "sigma0":
            total = total + sigma
        else:
            total = total + sigma * _generator(gens.ineq, w.index, f"sos weight {i} ({w.tag})")
    for i, (l, phi) in enumerate(cert.eq_multipliers):
        total = total + phi * _generator(gens.eq, l, f"eq multiplier {i}")
    return total


def expected(claim: Statement, lam) -> Polynomial:
    """target - s * lambda, what the weights of a certificate of ``claim`` sum to."""
    if claim.lambda_sign == 0 or lam == 0:
        return claim.target
    return claim.target - Polynomial.constant(claim.target.num_vars, claim.lambda_sign * lam)


def same(a, b) -> bool:
    """Equal values of one type; floats bit for bit (NaN equal to NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    return a == b


def assert_same_polynomial(got: Polynomial, want: Polynomial):
    assert got.num_vars == want.num_vars
    assert list(got.terms) == list(want.terms)
    for mono, coeff in want.terms.items():
        assert same(got.terms[mono], coeff), (mono, got.terms[mono], coeff)


def check_expansion(gram, basis, num_vars):
    assert_same_polynomial(gram_to_polynomial(gram, basis, num_vars),
                           reference_gram_to_polynomial(_as_gram(gram, len(basis)), basis, num_vars))


def check_payload_gram(rows, basis):
    """``certificate_from_payload`` reads the Gram ``rows`` over ``basis`` (of
    two variables) as ``reference_gram_from_payload`` does, once normalized:
    the same entries (floats bit for bit, numerators and denominator equal),
    the same float view and smallest eigenvalue, the same expansion and the
    same written payload, or the same error message."""
    payload = json.loads(json.dumps({
        "family": "hierarchy", "num_vars": 2, "order": 1, "lambda": 0.0, "lambda_sign": 1,
        "sos_weights": [{"tag": "sigma0", "index": None, "basis": basis, "gram": rows}]}))
    rows = payload["sos_weights"][0]["gram"]
    try:
        want = _as_gram(reference_gram_from_payload(rows, len(basis)), len(basis))
    except (TypeError, ValueError, OverflowError) as exc:
        with pytest.raises(ValueError) as info:
            certificate_from_payload(payload)
        assert str(info.value) == f"sos weight 0 (sigma0), its gram: {exc}"
        return
    cert = certificate_from_payload(payload)
    got = cert.sos_weights[0]
    ref = SosWeight("sigma0", None, got.basis, want)
    if isinstance(want, np.ndarray):
        assert isinstance(got.gram, np.ndarray) and got.gram.dtype == float
        assert got.gram.shape == want.shape and got.gram.tobytes() == want.tobytes()
    else:
        assert isinstance(got.gram, RationalGram) and got.gram.den == want.den
        assert got.gram.num.tolist() == want.num.tolist()
    assert _gram_float(got.gram).tobytes() == _gram_float(want).tobytes()
    assert_same_polynomial(got.polynomial(2), reference_gram_to_polynomial(want, got.basis, 2))
    assert same(got.min_eigenvalue(), ref.min_eigenvalue())
    written = certificate_to_payload(cert)["sos_weights"][0]["gram"]
    cert.sos_weights[0] = ref
    assert written == certificate_to_payload(cert)["sos_weights"][0]["gram"]
