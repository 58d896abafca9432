"""Replaced code of the ``popnc verify`` path kept as references for
differential tests: the per-term printer of ``format_polynomial`` and the
certificate identity summed part after part.

``reference_format_polynomial`` sorts the terms by ``grlex_key`` and walks
them one at a time, writing each with ``_format_coeff``.
``chained_residual`` sums sigma_0, each sigma_j g_j and each phi_l h_l, then
subtracts target - s lambda, one ``Polynomial`` addition at a time: a
monomial whose partial sum cancels to exactly 0 is dropped and, when a later
part brings it back, takes the type of that part's term.  ``dict_sum`` is
the reference of ``Polynomial.sum``: every term of every part added into one
dict, ``d[m] = c if m not in d else d[m] + c``, the zeros dropped at the
end, and the result put in graded-lex order (``DictPolynomial``).
"""

from __future__ import annotations

from typing import Sequence

from polynomial_reference import DictPolynomial
from popnc.certificates import ModuleCertificate, Statement, _generator, _same_vars
from popnc.polynomial import Coeff, Polynomial, grlex_key
from popnc.problem_io import _format_coeff


def reference_format_polynomial(p: Polynomial, variables: Sequence[str] | None = None) -> str:
    names = list(variables) if variables is not None else [f"x{i+1}" for i in range(p.num_vars)]
    if len(names) != p.num_vars:
        raise ValueError("variable name list length does not match num_vars")
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted(p.terms.items(), key=lambda term: grlex_key(term[0])):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def chained_parts(cert: ModuleCertificate, claim: Statement) -> tuple[list[Polynomial], Polynomial]:
    """The module terms of the identity, in order, and target - s * lambda."""
    n = cert.num_vars
    parts = []
    for i, w in enumerate(cert.sos_weights):
        if w.tag == "psi":
            continue
        sigma = w.polynomial(n)
        if w.tag != "sigma0":
            g = _generator(claim.gens.ineq, w.index, f"sos weight {i} ({w.tag})")
            _same_vars(n, g.num_vars)
            sigma = sigma * g
        parts.append(sigma)
    for i, (l, phi) in enumerate(cert.eq_multipliers):
        h = _generator(claim.gens.eq, l, f"eq multiplier {i}")
        _same_vars(phi.num_vars, h.num_vars)
        _same_vars(n, phi.num_vars)
        parts.append(phi * h)
    _same_vars(n, claim.target.num_vars)
    expected = claim.target
    if claim.lambda_sign != 0 and cert.lam != 0:
        expected = expected - Polynomial.constant(n, claim.lambda_sign * cert.lam)
    return parts, expected


def chained_identity(cert: ModuleCertificate, claim: Statement) -> Polynomial:
    parts, expected = chained_parts(cert, claim)
    return sum(parts, Polynomial.zero(cert.num_vars)) - expected


def chained_residual(cert: ModuleCertificate, claim: Statement) -> Coeff:
    return chained_identity(cert, claim).l1_norm()


def dict_sum(polys: Sequence[Polynomial], n: int) -> DictPolynomial:
    total: dict = {}
    for p in polys:
        for m, c in p.terms.items():
            total[m] = c if m not in total else total[m] + c
    return DictPolynomial._from_checked(n, total)
