import json
import math

import pytest

from oracles import circle_oracle, problem_oracle

from popnc.builder import build_hierarchy_step, extract_certificate
from popnc.certificates import verify_certificate
from popnc.cli import cli_main
from popnc.driver import (
    check_archimedean,
    check_coercive,
    minimize,
)
from popnc.polynomial import Polynomial
from popnc.problem_io import emit_report, parse_polynomial, parse_problem
from popnc.sdp import GAP_TOL, Status, solve

V2 = ["x1", "x2"]

# name, document, oracle kind, known exact minimum (None when only the oracle value applies)
REGRESSION = [
    (
        "example31",
        "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n",
        "grid",
        1.0,
    ),
    (
        "sextic",
        "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\nmargin: 1\n",
        "grid",
        None,
    ),
    (
        "separable_quadratic",
        "vars: x1 x2\nobj: x1^2 + x2^2\nx0: 1 1\n",
        "grid",
        0.0,
    ),
    (
        "boxed_quartic",
        "vars: x\nobj: x^4 - 3*x^2 + 1\nineq: 1 - x^2\nx0: 0\n",
        "grid",
        -1.0,
    ),
    (
        "circle_linear",
        "vars: x1 x2\nobj: x1 + x2\neq: x1^2 + x2^2 - 1\nx0: 1 0\n",
        "circle",
        -math.sqrt(2),
    ),
]


def oracle_value(name: str, doc: str, kind: str) -> float:
    problem = parse_problem(doc)
    if kind == "circle":
        return circle_oracle(problem)
    return problem_oracle(problem)


class TestMinimize:
    def test_example31_bound_and_certificate(self, example31):
        rep = minimize(example31, k_max=6)
        assert rep.final_bound == pytest.approx(1.0, abs=1e-5)
        assert rep.verdict == "stabilized"
        assert rep.verification is not None and rep.verification.passed

    def test_unconstrained_quadratic_bound_at_first_order(self):
        p = parse_problem("vars: x1 x2\nobj: x1^2 + x2^2\nx0: 1 1\n")
        rep = minimize(p, k_max=4)
        assert rep.orders[0].order == 1
        assert rep.orders[0].value == pytest.approx(0.0, abs=1e-6)
        assert rep.final_bound == pytest.approx(0.0, abs=1e-6)

    def test_sextic_matches_oracle(self, sextic_problem):
        oracle = oracle_value("sextic", REGRESSION[1][1], "grid")
        rep = minimize(sextic_problem, k_max=6)
        assert rep.final_bound is not None
        assert abs(rep.final_bound - oracle) <= 1e-4

    def test_caveat_without_arch_report(self, example31):
        rep = minimize(example31, k_max=3)
        assert any("Archimedean" in c for c in rep.caveats)

    def test_caveat_cleared_by_certified_arch(self, example31):
        arch = check_archimedean(example31, k_max=3)
        assert arch.verdict == "certified"
        rep = minimize(example31, k_max=3, arch_report=arch)
        assert not any("Archimedean" in c for c in rep.caveats)

    def test_bounds_payload_key(self, example31):
        rep = minimize(example31, k_max=3)
        payload = rep.to_payload()
        assert payload["bounds"] == rep.bounds
        assert payload["verdict"] == rep.verdict


class TestArchimedean:
    def test_example31_certified_rho_two(self, example31):
        rep = check_archimedean(example31, k_max=4)
        assert rep.verdict == "certified"
        assert rep.order <= 2
        assert rep.bound == pytest.approx(2.0, abs=1e-5)
        assert rep.verification.passed

    def test_interval_with_linear_objective(self):
        p = parse_problem("vars: x\nobj: x\nineq: 1 - x^2\nc: 2\n")
        rep = check_archimedean(p, k_max=3)
        assert rep.verdict == "certified"
        assert rep.order == 1
        assert rep.bound == pytest.approx(1.0, abs=1e-6)

    def test_whole_line_inconclusive_all_infeasible(self):
        p = parse_problem("vars: x\nobj: x\nc: 0\n")
        rep = check_archimedean(p, k_max=4)
        assert rep.verdict == "inconclusive"
        assert [o.order for o in rep.orders] == [1, 2, 3, 4]
        assert all(o.status == Status.PRIMAL_INFEASIBLE.value for o in rep.orders)
        assert all(o.value_repr == "+inf (infeasible)" for o in rep.orders)

    def test_one_sidedness(self):
        # the verdict vocabulary has no negative outcome
        p = parse_problem("vars: x\nobj: x\nc: 0\n")
        rep = check_archimedean(p, k_max=2)
        assert rep.verdict in ("certified", "inconclusive")

    def test_rho_non_increasing_in_k(self, example31):
        from popnc.builder import build_archimedean_check

        vals = []
        for k in (1, 2, 3):
            sol = solve(build_archimedean_check(example31, k))
            assert sol.status is Status.OPTIMAL
            vals.append(sol.obj_primal)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-7 * (1 + abs(a))


class TestMinimizeVerdicts:
    def test_infeasible_at_all_orders(self):
        # c = 0 puts the level set at {x <= 0}, where x is unbounded below:
        # no finite lower bound exists and every order is infeasible
        p = parse_problem("vars: x\nobj: x\nc: 0\n")
        rep = minimize(p, k_max=3)
        assert rep.verdict == "infeasible_at_all_orders"
        assert rep.final_bound is None
        assert all(o.status == Status.PRIMAL_INFEASIBLE.value for o in rep.orders)

    def test_unbounded_objective_reported(self):
        # empty feasible set: the module contains -1, so lambda is unbounded
        from popnc.polynomial import Polynomial
        from popnc.problem_io import PopProblem

        p = PopProblem(
            variables=["x1", "x2"],
            objective=parse_polynomial("x1^2", V2),
            inequalities=[Polynomial.constant(2, -1.0)],
            c=2.0,
        )
        rep = minimize(p, k_max=2)
        assert all(o.status == Status.DUAL_INFEASIBLE.value for o in rep.orders)
        assert all(o.value_repr == "unbounded" for o in rep.orders)


class TestCoercive:
    def test_sextic_certified_eighth(self, sextic):
        rep = check_coercive(sextic, k_max=6)
        assert rep.verdict == "certified"
        assert rep.order == 3
        assert rep.bound == pytest.approx(0.125, abs=1e-4)
        assert rep.verification.passed

    def test_shifted_quadratic(self):
        f = parse_polynomial("x1^2 + x2^2 + x1", V2)
        rep = check_coercive(f, k_max=4)
        assert rep.verdict == "certified"
        assert rep.bound == pytest.approx(1.0, abs=1e-6)

    def test_indefinite_quartic_inconclusive(self):
        f = parse_polynomial("x1^2 - x2^4", V2)
        rep = check_coercive(f, k_max=4)
        assert rep.verdict == "inconclusive"
        assert all(o.value <= -1.0 + 1e-6 for o in rep.orders if o.value is not None)

    def test_odd_degree_not_applicable(self):
        rep = check_coercive(parse_polynomial("x1^3 + x2", V2))
        assert rep.verdict == "not_applicable"

    def test_zero_not_applicable(self):
        rep = check_coercive(Polynomial.zero(2))
        assert rep.verdict == "not_applicable"

    def test_constant_not_applicable(self):
        rep = check_coercive(Polynomial.constant(2, 5.0))
        assert rep.verdict == "not_applicable"

    def test_sphere_minimum_monotone_in_k(self):
        f = parse_polynomial("x1^2 - x2^2", V2)
        rep = check_coercive(f, k_max=4)
        vals = [o.value for o in rep.orders if o.value is not None]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-7

    def test_diagonal_top_form_note(self):
        f = parse_polynomial("x1^4 + x2^4 + x1", V2)
        rep = check_coercive(f, k_max=4)
        assert rep.verdict == "certified"
        assert any("diagonal" in note for note in rep.notes)


class TestArchimedeanSufficient:
    """The paper's sufficient condition: when alpha0 f - sum lambda_j g_j -
    sum mu_l h_l is coercive for some alpha0 >= 0, lambda_j >= 0 and free mu_l,
    M(g; h; c - f) is Archimedean.  The caller forms the combination and runs
    check_coercive on it.  Its certificate proves the combination coercive,
    so popnc verify checks it against a problem whose objective is the
    combination."""

    def _verify(self, tmp_path, report, problem_text):
        report_path, problem_path = tmp_path / "report.json", tmp_path / "problem.pop"
        report_path.write_text(emit_report(report.to_payload()))
        problem_path.write_text(problem_text)
        return cli_main(["verify", str(report_path), str(problem_path), "--json"])

    def test_coercive_objective_alone(self, tmp_path, capsys):
        sextic = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n"
        rep = check_coercive(parse_problem(sextic).objective)  # alpha0 = 1, no generators
        assert rep.verdict == "certified"
        assert self._verify(tmp_path, rep, sextic) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True

    def test_combination_with_constraint(self, tmp_path, capsys):
        p = parse_problem("vars: x1 x2\nobj: x1^2\nineq: 1 - x2^2\nc: 3\n")
        rep = check_coercive(p.objective - p.inequalities[0])  # alpha0 = 1, lambda = [1]
        assert rep.verdict == "certified"
        assert rep.bound == pytest.approx(1.0, abs=1e-6)
        combination = "vars: x1 x2\nobj: x1^2 + x2^2 - 1\nineq: 1 - x2^2\nc: 3\n"
        assert self._verify(tmp_path, rep, combination) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
        # x1^2 alone is not coercive: the certificate proves nothing about it
        assert self._verify(tmp_path, rep, "vars: x1 x2\nobj: x1^2\nineq: 1 - x2^2\nc: 3\n") == 2
        assert json.loads(capsys.readouterr().out)["verification"]["passed"] is False


class TestRegressionSuite:
    @pytest.mark.parametrize("name,doc,kind,exact", REGRESSION, ids=[r[0] for r in REGRESSION])
    def test_oracle_consistency_and_monotonicity(self, name, doc, kind, exact):
        problem = parse_problem(doc)
        oracle = oracle_value(name, doc, kind)
        rep = minimize(problem, k_max=6)
        assert rep.final_bound is not None

        # lower-bound property against the brute-force oracle
        assert rep.final_bound <= oracle + 1e-4, name
        if name == "sextic":
            assert abs(rep.final_bound - oracle) <= 1e-4
        if exact is not None:
            assert abs(rep.final_bound - exact) <= 1e-4, name
            assert abs(oracle - exact) <= 1e-5, f"oracle drifted on {name}"

        # monotone bounds within 10 * gap_tol
        vals = [o.value for o in rep.orders if o.value is not None]
        slack = 10 * GAP_TOL
        for a, b in zip(vals, vals[1:]):
            assert b >= a - slack * (1 + abs(a)), name

        # every certified bound ships a verifiable certificate, which states
        # the residual its verification computed
        assert rep.verification is not None and rep.verification.passed, name
        assert rep.certificate.residual == rep.verification.residual != 0, name

    @pytest.mark.parametrize("name,doc,kind,exact", REGRESSION, ids=[r[0] for r in REGRESSION])
    def test_certificate_residual_for_every_optimal_order(self, name, doc, kind, exact):
        problem = parse_problem(doc)
        rep = minimize(problem, k_max=6)
        for outcome in rep.orders:
            if outcome.value is None:
                continue
            prob = build_hierarchy_step(problem, outcome.order)
            sol = solve(prob)
            assert sol.status is Status.OPTIMAL
            cert = extract_certificate(sol, prob.meta)
            bound = 1e-5 * (1 + float(prob.meta.statement.target.l1_norm()))
            ver = verify_certificate(cert, prob.meta.statement)
            assert float(ver.residual) <= bound, (name, outcome.order)
            assert ver.passed
