import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import popnc.certificates
from popnc.builder import (
    build_archimedean_check,
    build_coercivity_check,
    build_hierarchy_step,
    build_membership_program,
    extract_certificate,
    monomial_basis,
)
from popnc.certificates import (
    CertificateError,
    GeneratorSet,
    ModuleCertificate,
    NotPsdError,
    SosWeight,
    Statement,
    certificate_from_payload,
    certificate_to_payload,
    corollary_transform,
    format_certificate,
    gram_to_polynomial,
    hierarchy_generators,
    sos_decompose,
    statement,
    verify_certificate,
)
from popnc.polynomial import Polynomial
from popnc.problem_io import emit_report, parse_polynomial
from popnc.sdp import Status, solve

V2 = ["x1", "x2"]
HALF = Fraction(1, 2)


def hand_certificate():
    """The exact rational decomposition of x1^2 + 1 over (g1, g2, 2 - f)."""
    return ModuleCertificate(
        num_vars=2, order=2, lam=0, lam_sign=0,
        sos_weights=[
            SosWeight("sigma0", None, [(0, 0)], [[HALF]]),
            SosWeight("ineq", 0, [(1, 0)], [[Fraction(2)]]),
            SosWeight("ineq", 1, [(1, 0)], [[Fraction(2)]]),
            SosWeight("cf", 2, [(0, 0)], [[HALF]]),
        ],
    )


def membership(target, gens):
    """The claim target in M(gens), without lambda."""
    return Statement("membership", target, gens, 0)


def example31_gens_rational():
    f = parse_polynomial("x1^2 + 1", V2, rational=True)
    g1 = parse_polynomial("1 - x2^2", V2, rational=True)
    g2 = parse_polynomial("x2^2 - 1/4", V2, rational=True)
    cf = Polynomial.constant(2, Fraction(2)) - f
    return f, GeneratorSet(num_vars=2, ineq=(g1, g2, cf), cf_index=2)


class TestVerifyCertificate:
    def test_hand_certificate_exact_zero_residual(self):
        f, gens = example31_gens_rational()
        result = verify_certificate(hand_certificate(), membership(f, gens))
        assert result.passed
        assert result.residual == 0

    def test_perturbed_delta_fails_with_residual_tenth(self):
        f, gens = example31_gens_rational()
        cert = hand_certificate()
        cert.sos_weights[0] = SosWeight("sigma0", None, [(0, 0)], [[Fraction(3, 5)]])
        result = verify_certificate(cert, membership(f, gens))
        assert not result.passed
        assert result.residual == Fraction(1, 10)

    def test_rational_certificates_pass_at_any_positive_tol(self):
        f, gens = example31_gens_rational()
        for tol in (1e-12, 1e-9, 1e-3):
            assert verify_certificate(hand_certificate(), membership(f, gens), tol=tol).passed

    def test_indefinite_gram_fails(self):
        f, gens = example31_gens_rational()
        cert = hand_certificate()
        # same polynomial weight, but carried by an indefinite Gram matrix
        cert.sos_weights[1] = SosWeight(
            "ineq", 0, [(0, 0), (1, 0)], [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(2)]]
        )
        cert.sos_weights[0] = SosWeight("sigma0", None, [(1, 0)], [[Fraction(0)]])
        result = verify_certificate(cert, membership(f, gens))
        assert not result.passed
        assert result.min_gram_eig < -1e-6

    def test_lambda_sign_is_read_from_the_claim(self, example31):
        # f - 1 = x1^2 proves the bound 1 for EX31's objective; with sign -1
        # the same weights would claim the identity f + 1 = x1^2
        claim = statement("hierarchy", example31)
        sigma0 = SosWeight("sigma0", None, [(1, 0)], np.eye(1))
        cert = ModuleCertificate(num_vars=2, order=1, lam=1.0, lam_sign=1, sos_weights=[sigma0],
                                 family="hierarchy")
        assert verify_certificate(cert, claim).residual == 0
        cert.lam_sign = -1
        with pytest.raises(ValueError, match="^lambda_sign -1 contradicts the hierarchy family, "
                                             "whose lambda_sign is 1$"):
            verify_certificate(cert, claim)
        cert.lam = 0.0  # no lambda, no claim about its sign
        assert verify_certificate(cert, claim).residual == 1

    def test_checker_imports_only_polynomial_arithmetic(self):
        # the checker trusts nothing of the program that found a certificate:
        # no builder, solver, driver or CLI; problem_io only to print
        tree = ast.parse(Path(popnc.certificates.__file__).read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        relative = {(node in tree.body, node.module) for node in imports if getattr(node, "level", 0)}
        absolute = [node.module or "" for node in imports if isinstance(node, ast.ImportFrom) and not node.level]
        absolute += [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
        assert relative == {(True, "polynomial"), (False, "problem_io")}  # (at module level, module)
        assert not [name for name in absolute if name.split(".")[0] == "popnc"]


class TestExtractCertificate:
    def test_archimedean_k2_certificate(self, example31):
        prob = build_archimedean_check(example31, 2)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        cert = extract_certificate(sol, prob.meta)
        assert abs(float(cert.lam) - 2.0) <= 1e-5
        assert len(cert.sos_weights) == 4
        ver = verify_certificate(cert, prob.meta.statement)
        assert float(ver.residual) <= 1e-6
        assert ver.passed

    def test_trivial_square(self):
        x2 = parse_polynomial("x^2", ["x"])
        prob = build_membership_program(membership(x2, GeneratorSet(num_vars=1)), 1)
        sol = solve(prob)
        cert = extract_certificate(sol, prob.meta)
        gram = cert.sos_weights[0].gram
        assert np.allclose(gram, np.diag([0.0, 1.0]), atol=1e-7)
        assert float(verify_certificate(cert, prob.meta.statement).residual) <= 1e-9

    def test_non_optimal_rejected(self):
        from popnc.problem_io import parse_problem

        p = parse_problem("vars: x\nobj: x\nc: 0\n")
        prob = build_archimedean_check(p, 1)
        sol = solve(prob)
        assert sol.status is Status.PRIMAL_INFEASIBLE
        with pytest.raises(CertificateError):
            extract_certificate(sol, prob.meta)

    def test_near_zero_blocks_kept_in_certificate_dropped_in_print(self, example31):
        prob = build_archimedean_check(example31, 2)
        sol = solve(prob)
        cert = extract_certificate(sol, prob.meta)
        text = format_certificate(cert, drop_below=1e9)  # force-drop everything
        assert "sigma" not in text
        assert len(cert.sos_weights) == 4  # retained for verification regardless


    def test_unverified_residual_is_null(self, example31):
        prob = build_hierarchy_step(example31, 2)
        cert = extract_certificate(solve(prob), prob.meta)
        assert cert.residual is None
        payload = cert.to_payload()
        assert payload["residual"] is None and '"residual": null' in emit_report(payload)
        assert certificate_from_payload(payload).residual is None
        assert format_certificate(cert).endswith("identity residual (l1) = not computed")
        result = verify_certificate(cert, prob.meta.statement)
        assert float(result.residual) <= 1e-6 and result.passed


class TestCorollaryTransform:
    def test_hand_certificate_exact(self):
        f, gens = example31_gens_rational()
        one_plus_psi, q = corollary_transform(hand_certificate(), f, gens, Fraction(2))
        assert one_plus_psi == Polynomial.constant(2, Fraction(3, 2))
        assert q.residual == 0
        gens_no_cf = GeneratorSet(num_vars=2, ineq=gens.ineq[:2])
        check = verify_certificate(q, membership(one_plus_psi * f, gens_no_cf))
        assert check.passed and check.residual == 0
        # folded constant block equals 3/2 = 1/2 + 2 * 1/2
        assert gram_to_polynomial(q.weight("sigma0").gram, q.weight("sigma0").basis, 2) == \
            Polynomial.constant(2, Fraction(3, 2))

    def test_zero_psi_is_identity(self):
        # psi = 0 on a trivially valid identity: target 1 = sigma0
        target = parse_polynomial("1", V2, rational=True)
        f, gens = example31_gens_rational()
        gens1 = GeneratorSet(num_vars=2, ineq=(gens.ineq[2],), cf_index=0)
        cert0 = ModuleCertificate(
            num_vars=2, order=1, lam=0, lam_sign=0,
            sos_weights=[
                SosWeight("sigma0", None, [(0, 0)], [[Fraction(1)]]),
                SosWeight("cf", 0, [(0, 0)], [[Fraction(0)]]),
            ],
        )
        one_plus_psi, q = corollary_transform(cert0, target, gens1, Fraction(2))
        assert one_plus_psi == Polynomial.constant(2, 1)
        assert q.residual == 0

    def test_machine_certificate_end_to_end(self, example31):
        gens = hierarchy_generators(example31)
        prob = build_membership_program(membership(example31.objective, gens), 2)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        cert = extract_certificate(sol, prob.meta)
        one_plus_psi, q = corollary_transform(cert, example31.objective, gens, 2.0)
        gens_no_cf = GeneratorSet(num_vars=2, ineq=gens.ineq[:2])
        check = verify_certificate(q, membership(one_plus_psi * example31.objective, gens_no_cf), tol=1e-5)
        assert check.passed

    def test_negative_c_rejected(self):
        f, gens = example31_gens_rational()
        with pytest.raises(CertificateError):
            corollary_transform(hand_certificate(), f, gens, Fraction(-1))

    def test_nonzero_lambda_rejected(self):
        f, gens = example31_gens_rational()
        cert = hand_certificate()
        cert.lam = 1.0
        cert.lam_sign = 1
        with pytest.raises(CertificateError):
            corollary_transform(cert, f, gens, Fraction(2))


class TestSosDecompose:
    def test_identity_gram(self):
        basis = [(0,), (1,)]
        dec = sos_decompose(np.eye(2), basis, num_vars=1)
        assert len(dec.squares) == 2
        total = Polynomial.zero(1)
        for s in dec.squares:
            total = total + s * s
        assert float((total - parse_polynomial("1 + x^2", ["x"])).l1_norm()) <= 1e-12
        assert dec.truncation_error <= 1e-10

    def test_rank_one(self):
        basis = [(0,), (1,)]
        dec = sos_decompose(np.ones((2, 2)), basis, num_vars=1)
        assert len(dec.squares) == 1
        total = dec.squares[0] * dec.squares[0]
        expect = parse_polynomial("1 + 2*x + x^2", ["x"])
        assert float((total - expect).l1_norm()) <= 1e-12

    def test_not_psd_raises(self):
        with pytest.raises(NotPsdError):
            sos_decompose(np.array([[-1.0]]), [(0,)], num_vars=1)

    def test_coercivity_witness_reconstructs(self, sextic):
        prob = build_coercivity_check(sextic, 3)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        cert = extract_certificate(sol, prob.meta)
        w = cert.weight("sigma0")
        dec = sos_decompose(w.gram, w.basis, num_vars=2)
        total = Polynomial.zero(2)
        for s in dec.squares:
            total = total + s * s
        diff = total - w.polynomial(2)
        assert float(diff.l1_norm()) <= max(1e-6, 2 * dec.truncation_error)

    def test_reconstruction_error_within_reported_bound(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(0, 3))
            basis = monomial_basis(n, d)
            s = len(basis)
            M = rng.normal(size=(s, s))
            gram = M @ M.T
            # plant some near-zero eigenvalues to exercise the clipping path
            vals, vecs = np.linalg.eigh(gram)
            vals[: max(1, s // 3)] *= 1e-12
            gram = (vecs * vals) @ vecs.T
            dec = sos_decompose(gram, basis, num_vars=n)
            total = Polynomial.zero(n)
            for sq in dec.squares:
                total = total + sq * sq
            actual = float((total - gram_to_polynomial(gram, basis, n)).l1_norm())
            assert actual <= dec.truncation_error + 1e-9 * (1 + float(np.abs(gram).sum()))


class TestPayload:
    def test_round_trip_float(self, example31):
        prob = build_archimedean_check(example31, 1)
        sol = solve(prob)
        cert = extract_certificate(sol, prob.meta)
        payload = certificate_to_payload(cert)
        text = json.dumps(payload)
        back = certificate_from_payload(json.loads(text))
        a = verify_certificate(cert, prob.meta.statement)
        b = verify_certificate(back, prob.meta.statement)
        assert a.passed == b.passed
        assert abs(float(a.residual) - float(b.residual)) <= 1e-12

    def test_round_trip_rational(self):
        cert = hand_certificate()
        payload = json.loads(json.dumps(certificate_to_payload(cert)))
        back = certificate_from_payload(payload)
        f, gens = example31_gens_rational()
        result = verify_certificate(back, membership(f, gens))
        assert result.passed and result.residual == 0
