"""The per-pair loop that ``gram_to_polynomial`` replaced, and the
certificate residual computed from it, as references for differential tests.

``reference_gram_to_polynomial`` builds one product monomial and makes one
dict update per Gram entry, in row-major order, zero entries skipped.
``reference_residual`` recomputes a certificate's identity residual from it
with the dict arithmetic ``Polynomial`` used before its results skipped the
exponent check.
"""

from __future__ import annotations

import math

import numpy as np

from popnc.certificates import ModuleCertificate, Statement, gram_to_polynomial
from popnc.polynomial import Polynomial


def reference_gram_to_polynomial(gram, basis, num_vars):
    rows = gram.tolist() if isinstance(gram, np.ndarray) else gram
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
    return Polynomial(num_vars, terms)


def _add(a: dict, b: dict) -> dict:
    merged = dict(a)
    for mono, coeff in b.items():
        merged[mono] = merged.get(mono, 0) + coeff
    return {m: c for m, c in merged.items() if c != 0}


def _mul(a: dict, b: dict) -> dict:
    prod = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            prod[mono] = prod.get(mono, 0) + c1 * c2
    return {m: c for m, c in prod.items() if c != 0}


def reference_residual(cert: ModuleCertificate, claim: Statement):
    """The l1 residual of the identity, summed as verify_certificate summed it
    before: sigma_0 + sum sigma_j g_j + sum phi_l h_l - (target - s lambda)."""
    total = {}
    for w in cert.sos_weights:
        if w.tag == "psi":
            continue
        sigma = dict(reference_gram_to_polynomial(w.gram, w.basis, cert.num_vars).terms)
        total = _add(total, sigma if w.tag == "sigma0" else _mul(sigma, dict(claim.gens.ineq[w.index].terms)))
    for l, phi in cert.eq_multipliers:
        total = _add(total, _mul(dict(phi.terms), dict(claim.gens.eq[l].terms)))
    expected = dict(claim.target.terms)
    if claim.lambda_sign != 0 and cert.lam != 0:
        expected = _add(expected, {(0,) * cert.num_vars: -(claim.lambda_sign * cert.lam)})
    mismatch = _add(total, {m: -c for m, c in expected.items()})
    return sum((abs(c) for c in mismatch.values()), 0)


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
                           reference_gram_to_polynomial(gram, basis, num_vars))
