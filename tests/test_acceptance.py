"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines, or execute this file directly.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from oracles import circle_oracle, problem_oracle
from sdp_cases import build_cases

from popnc.builder import build_hierarchy_step, extract_certificate, monomial_basis
from popnc.certificates import (
    GeneratorSet,
    ModuleCertificate,
    SosWeight,
    Statement,
    corollary_transform,
    gram_to_polynomial,
    sos_decompose,
    statement,
    verify_certificate,
)
from popnc.driver import check_archimedean, check_coercive, minimize
from popnc.polynomial import Polynomial
from popnc.problem_io import format_polynomial, parse_polynomial, parse_problem
from popnc.sdp import GAP_TOL, Status, solve

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\nmargin: 1\n"
V2 = ["x1", "x2"]


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_archimedean_check():
    problem = parse_problem(EX31)
    t0 = time.perf_counter()
    rep = check_archimedean(problem, k_max=4)
    elapsed = time.perf_counter() - t0
    assert rep.verdict == "certified"
    assert rep.order <= 2
    assert abs(rep.bound - 2.0) <= 1e-3
    assert elapsed < 5.0
    _report(1, f"arch-check certified rho = {rep.bound:.6f} at k = {rep.order} in {elapsed:.2f}s")


def test_criterion_2_hand_certificate_exact():
    f = parse_polynomial("x1^2 + 1", V2, rational=True)
    g1 = parse_polynomial("1 - x2^2", V2, rational=True)
    g2 = parse_polynomial("x2^2 - 1/4", V2, rational=True)
    cf = Polynomial.constant(2, Fraction(2)) - f
    gens = GeneratorSet(num_vars=2, ineq=(g1, g2, cf), cf_index=2)
    cert = ModuleCertificate(
        num_vars=2, order=2, lam=0, lam_sign=0,
        sos_weights=[
            SosWeight("sigma0", None, [(0, 0)], [[Fraction(1, 2)]]),
            SosWeight("ineq", 0, [(1, 0)], [[Fraction(2)]]),
            SosWeight("ineq", 1, [(1, 0)], [[Fraction(2)]]),
            SosWeight("cf", 2, [(0, 0)], [[Fraction(1, 2)]]),
        ],
    )
    result = verify_certificate(cert, Statement("membership", f, gens, 0))
    assert result.passed
    assert result.residual == 0
    _report(2, "hand certificate verifies with residual exactly 0 in rational mode")


def test_criterion_3_example31_minimization():
    problem = parse_problem(EX31)
    rep = minimize(problem, k_max=6)
    assert rep.final_bound is not None
    assert abs(rep.final_bound - 1.0) <= 1e-4
    first_good = next(o.order for o in rep.orders if o.value is not None and abs(o.value - 1.0) <= 1e-4)
    assert first_good <= 3
    assert rep.verification is not None
    assert rep.verification.passed and rep.verification.tol <= 1e-5
    _report(3, f"minimize bound {rep.final_bound:.8f} (= 1 within 1e-4 by k = {first_good}), "
               f"certificate residual {float(rep.verification.residual):.2e}")


def test_criterion_4_coercivity_sextic():
    # independent 1-D oracle: top form on the unit circle is 1 - 3u^2 - u^3
    # over u = x1*x2 in [-1/2, 1/2]; grid search with refinement
    lo, hi = -0.5, 0.5
    best = math.inf
    for _ in range(8):
        us = np.linspace(lo, hi, 2001)
        vals = 1 - 3 * us**2 - us**3
        i = int(np.argmin(vals))
        best = float(vals[i])
        span = (hi - lo) / 2000 * 4
        lo, hi = max(-0.5, us[i] - span), min(0.5, us[i] + span)
    assert abs(best - 0.125) <= 1e-9

    f = parse_polynomial("x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1", V2)
    rep = check_coercive(f, k_max=6)
    assert rep.verdict == "certified"
    assert abs(rep.bound - 0.125) <= 1e-4
    assert abs(rep.bound - best) <= 1e-4

    # witness identity residual: f_6 - mu* - phi * theta = sigma within 1e-6
    assert float(rep.certificate.residual) <= 1e-6
    assert rep.verification.passed
    _report(4, f"coercivity delta = {rep.bound:.6f} at k = {rep.order} "
               f"(oracle sphere minimum {best:.6f}), witness residual "
               f"{float(rep.certificate.residual):.2e}")


def test_criterion_5_corollary_transformation():
    f = parse_polynomial("x1^2 + 1", V2, rational=True)
    g1 = parse_polynomial("1 - x2^2", V2, rational=True)
    g2 = parse_polynomial("x2^2 - 1/4", V2, rational=True)
    cf = Polynomial.constant(2, Fraction(2)) - f
    gens = GeneratorSet(num_vars=2, ineq=(g1, g2, cf), cf_index=2)
    cert = ModuleCertificate(
        num_vars=2, order=2, lam=0, lam_sign=0,
        sos_weights=[
            SosWeight("sigma0", None, [(0, 0)], [[Fraction(1, 2)]]),
            SosWeight("ineq", 0, [(1, 0)], [[Fraction(2)]]),
            SosWeight("ineq", 1, [(1, 0)], [[Fraction(2)]]),
            SosWeight("cf", 2, [(0, 0)], [[Fraction(1, 2)]]),
        ],
    )
    one_plus_psi, qprime = corollary_transform(cert, f, gens, Fraction(2))
    assert one_plus_psi == Polynomial.constant(2, Fraction(3, 2))
    assert qprime.residual == 0
    sigma0 = qprime.weight("sigma0")
    assert gram_to_polynomial(sigma0.gram, sigma0.basis, 2) == Polynomial.constant(2, Fraction(3, 2))
    gens_plain = GeneratorSet(num_vars=2, ineq=(g1, g2))
    result = verify_certificate(qprime, Statement("module", one_plus_psi * f, gens_plain, 0))
    assert result.passed and result.residual == 0
    _report(5, "corollary transform gives (3/2, q') with exact rational identity "
               "(3/2)(x1^2+1) = 3/2 + 2x1^2 g1 + 2x1^2 g2")


def test_criterion_6_one_sidedness_and_status_soundness():
    problem = parse_problem("vars: x\nobj: x\nc: 0\n")
    rep = check_archimedean(problem, k_max=4)
    assert rep.verdict == "inconclusive"
    assert len(rep.orders) == 4
    assert all(o.status == Status.PRIMAL_INFEASIBLE.value for o in rep.orders)

    misclassified = []
    for name, prob, expected, value in build_cases():
        sol = solve(prob)
        if sol.status is not expected:
            misclassified.append(name)
        elif value is not None and abs(sol.obj_primal - value) > 1e-6 * (1 + abs(value)):
            misclassified.append(name + ":objective")
    assert misclassified == []
    _report(6, f"K = R line inconclusive with all 4 orders infeasible; "
               f"{len(build_cases())}-case status suite fully correct")


def test_criterion_7a_monotonicity_and_7e_oracles():
    suite = [
        ("example31", EX31, "grid", 1.0),
        ("sextic", SEXTIC, "grid", None),
        ("separable_quadratic", "vars: x1 x2\nobj: x1^2 + x2^2\nx0: 1 1\n", "grid", 0.0),
        ("boxed_quartic", "vars: x\nobj: x^4 - 3*x^2 + 1\nineq: 1 - x^2\nx0: 0\n", "grid", -1.0),
        ("circle_linear", "vars: x1 x2\nobj: x1 + x2\neq: x1^2 + x2^2 - 1\nx0: 1 0\n",
         "circle", -math.sqrt(2)),
    ]
    slack = 10 * GAP_TOL
    for name, doc, kind, exact in suite:
        problem = parse_problem(doc)
        oracle = circle_oracle(problem) if kind == "circle" else problem_oracle(problem)
        rep = minimize(problem, k_max=6)
        assert rep.final_bound is not None, name
        assert rep.final_bound <= oracle + 1e-4, name
        if exact is not None:
            assert abs(rep.final_bound - exact) <= 1e-4, name
        vals = [o.value for o in rep.orders if o.value is not None]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - slack * (1 + abs(a)), name
    _report(7, "monotone bounds and oracle lower-bound property on the 5-problem suite (7a, 7e)")


def test_criterion_7b_certificate_residuals():
    checked = 0
    for doc in (EX31, SEXTIC):
        problem = parse_problem(doc)
        k0 = statement("hierarchy", problem).min_order()
        for k in range(k0, k0 + 3):
            prob = build_hierarchy_step(problem, k)
            sol = solve(prob)
            if sol.status is not Status.OPTIMAL:
                continue
            cert = extract_certificate(sol, prob.meta)
            bound = 1e-5 * (1 + float(prob.meta.statement.target.l1_norm()))
            assert float(verify_certificate(cert, prob.meta.statement).residual) <= bound, (doc[:20], k)
            checked += 1
    assert checked >= 4
    _report(7, f"certificate residual bound held on {checked} optimal solves (7b)")


def test_criterion_7c_parse_print_round_trip():
    rng = random.Random(20240809)
    names = ["x1", "x2", "x3", "x4"]
    count = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        rational = rng.random() < 0.5
        terms = {}
        for _ in range(rng.randint(0, 8)):
            mono = tuple(rng.randint(0, 4) for _ in range(n))
            if rational:
                coeff = Fraction(rng.randint(-99, 99), rng.randint(1, 60))
            else:
                coeff = rng.uniform(-20, 20)
            if coeff:
                terms[mono] = coeff
        p = Polynomial(n, terms)
        text = format_polynomial(p, names[:n])
        back = parse_polynomial(text, names[:n], rational=rational)
        assert back == p
        count += 1
    assert count == 1000
    _report(7, "parse/print round-trip held on 1000 random polynomials (7c)")


def test_criterion_7d_sos_reconstruction():
    rng = np.random.default_rng(424242)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, 3))
        basis = monomial_basis(n, d)
        s = len(basis)
        M = rng.normal(size=(s, s))
        gram = M @ M.T
        if trial % 2:
            vals, vecs = np.linalg.eigh(gram)
            vals[: max(1, s // 2)] *= 1e-10
            gram = (vecs * vals) @ vecs.T
        dec = sos_decompose(gram, basis, num_vars=n)
        total = Polynomial.zero(n)
        for sq in dec.squares:
            total = total + sq * sq
        actual = float((total - gram_to_polynomial(gram, basis, n)).l1_norm())
        assert actual <= dec.truncation_error + 1e-9 * (1 + float(np.abs(gram).sum())), trial
    _report(7, "sos_decompose reconstruction within reported truncation bound on 100 Grams (7d)")


if __name__ == "__main__":
    for fn in [
        test_criterion_1_archimedean_check,
        test_criterion_2_hand_certificate_exact,
        test_criterion_3_example31_minimization,
        test_criterion_4_coercivity_sextic,
        test_criterion_5_corollary_transformation,
        test_criterion_6_one_sidedness_and_status_soundness,
        test_criterion_7a_monotonicity_and_7e_oracles,
        test_criterion_7b_certificate_residuals,
        test_criterion_7c_parse_print_round_trip,
        test_criterion_7d_sos_reconstruction,
    ]:
        try:
            fn()
        except AssertionError as exc:
            name = fn.__name__.replace("test_criterion_", "")
            print(f"ACCEPTANCE {name}: FAIL - {exc}")
            raise
