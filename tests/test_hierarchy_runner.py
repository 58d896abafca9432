"""The hierarchy runner: order range, per-order records and acceptance rules."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from popnc import driver
from popnc.cli import cli_main
from popnc.driver import HierarchySpec, run_hierarchy
from popnc.sdp import SdpSolution, Status

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n"


def _cli_json(tmp_path, capsys, doc, *argv):
    path = tmp_path / "p.pop"
    path.write_text(doc)
    code = cli_main([argv[0], str(path), *argv[1:], "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestOrderRange:
    @pytest.mark.parametrize("command,doc,k_start", [
        ("minimize", EX31, 3),
        ("arch-check", EX31, 3),
        ("coercive-check", SEXTIC, 4),
    ])
    def test_k_start_is_honoured(self, tmp_path, capsys, command, doc, k_start):
        _, tree = _cli_json(tmp_path, capsys, doc, command, "--k-start", str(k_start))
        assert tree["orders"][0]["k"] == k_start

    @pytest.mark.parametrize("command,doc,k_min", [
        ("minimize", EX31, 1),
        ("arch-check", EX31, 1),
        ("coercive-check", SEXTIC, 3),
    ])
    def test_k_start_below_minimal_order_starts_there(self, tmp_path, capsys, command, doc, k_min):
        _, tree = _cli_json(tmp_path, capsys, doc, command, "--k-start", "0", "--k-max", str(k_min))
        assert [o["k"] for o in tree["orders"]] == [k_min]

    @pytest.mark.parametrize("command,doc,argv,notes_key,verdict", [
        ("minimize", EX31, ["--k-start", "5", "--k-max", "4"], "caveats", "reached_max_order"),
        ("arch-check", EX31, ["--k-max", "0"], "notes", "inconclusive"),
        ("coercive-check", SEXTIC, ["--k-max", "2"], "notes", "inconclusive"),
    ])
    def test_nothing_solved_is_noted(self, tmp_path, capsys, command, doc, argv, notes_key, verdict):
        code, tree = _cli_json(tmp_path, capsys, doc, command, *argv)
        assert code == 2
        assert tree["orders"] == [] and tree["verdict"] == verdict
        assert any("nothing solved" in note for note in tree[notes_key])

    def test_nothing_solved_note_in_text(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text(EX31)
        assert cli_main(["arch-check", str(path), "--k-max", "0"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "verdict: inconclusive"
        assert lines[1] == "note: k_max=0 is below the minimal order 1; nothing solved"

    def test_library_k_start(self):
        from popnc.problem_io import parse_polynomial

        f = parse_polynomial("x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1", ["x1", "x2"])
        rep = driver.check_coercive(f, k_start=4, k_max=4)
        assert [o.order for o in rep.orders] == [4]
        assert rep.verdict == "certified" and rep.order == 4


class TestOrderRecord:
    @pytest.mark.parametrize("command,doc", [
        ("minimize", EX31), ("arch-check", EX31), ("coercive-check", SEXTIC),
    ])
    def test_iterations_and_message(self, tmp_path, capsys, command, doc):
        _, tree = _cli_json(tmp_path, capsys, doc, command, "--k-max", "3")
        assert tree["orders"]
        for rec in tree["orders"]:
            assert isinstance(rec["iterations"], int) and isinstance(rec["message"], str)
            if rec["status"] == "optimal":
                assert rec["iterations"] > 0


class TestOrderSizes:
    def test_reduced_sizes_are_reported(self, tmp_path, capsys):
        _, tree = _cli_json(tmp_path, capsys, SEXTIC, "coercive-check", "--k-max", "3")
        rec = tree["orders"][0]
        # the joint flip: the even-degree rows of degree <= 6, and 9 multiplier
        # coefficients plus the decision scalar
        assert (rec["block_dims"], rec["rows"], rec["free_vars"], rec["sign_flips"]) == \
            ([10], 16, 10, [[0, 1]])
        # EX31 is even in each variable: 1, x1^2, x2^2 at k = 1
        _, tree = _cli_json(tmp_path, capsys, EX31, "minimize", "--k-max", "2")
        assert [(r["rows"], r["free_vars"], r["sign_flips"]) for r in tree["orders"]] == \
            [(3, 1, [[0], [1]]), (6, 1, [[0], [1]])]

    def test_unreduced_sizes_are_reported(self, tmp_path, capsys):
        _, tree = _cli_json(tmp_path, capsys, SEXTIC, "minimize", "--k-max", "3")
        rec = tree["orders"][0]
        assert (rec["k"], rec["block_dims"], rec["rows"], rec["free_vars"], rec["sign_flips"]) == \
            (3, [10, 1], 28, 1, [])


def _canned(statuses_values):
    """A stand-in for solve: the program built at order k 'solves' to the
    k-th canned (status, value)."""
    outcomes = dict(enumerate(statuses_values, start=1))

    def fake_solve(problem):
        status, value = outcomes[problem]
        return SdpSolution(status=status, X=[], free=np.zeros(0), y=np.zeros(0),
                           obj_primal=value, obj_dual=value, residuals={},
                           iterations=problem, message=f"canned {problem}")
    return fake_solve


class _Passed:
    passed = True
    residual = 0.0


@pytest.fixture
def canned(monkeypatch):
    calls = []

    def use(statuses_values):
        monkeypatch.setattr(driver, "solve", _canned(statuses_values))
        monkeypatch.setattr(driver, "extract_certificate",
                            lambda sol, program: calls.append(sol.iterations) or SimpleNamespace())
        monkeypatch.setattr(driver, "verify_certificate", lambda *a, **kw: _Passed())
        return calls
    return use


OPT, UNK, INF = Status.OPTIMAL, Status.UNKNOWN, Status.PRIMAL_INFEASIBLE


class _Meta:
    statement = None
    sign_flips = ()


class _Built(int):
    meta = _Meta()
    block_dims, b, num_free = [1], [], 0


def _spec(**kw):
    return HierarchySpec("minimize", lambda k: _Built(k), k_min=1, **kw)


class TestAcceptanceRules:
    def test_stabilization_skips_a_failed_order(self, canned):
        # a non-optimal order resets the count, but the next optimal value is
        # compared with the last optimal one before it
        calls = canned([(OPT, 1.0), (UNK, None), (OPT, 1.0), (OPT, 1.0), (OPT, 1.0)])
        rep = run_hierarchy(_spec(k_max=5, stab_tol=1e-6))
        assert rep.verdict == "stabilized"
        assert [o.order for o in rep.orders] == [1, 2, 3, 4]
        assert calls == [4] and rep.order == 4 and rep.final_bound == 1.0

    def test_stabilization_needs_two_consecutive_steps(self, canned):
        calls = canned([(OPT, 1.0), (OPT, 1.0), (OPT, 2.0), (OPT, 2.0), (OPT, 3.0)])
        rep = run_hierarchy(_spec(k_max=5, stab_tol=1e-6))
        assert rep.verdict == "reached_max_order"
        assert calls == [5] and rep.final_bound == 3.0

    def test_all_infeasible(self, canned):
        calls = canned([(INF, None), (INF, None)])
        rep = run_hierarchy(_spec(k_max=2, stab_tol=1e-6))
        assert rep.verdict == "infeasible_at_all_orders"
        assert calls == [] and rep.certificate is None and rep.final_bound is None

    def test_certify_if_stops_at_first_accepted_value(self, canned):
        calls = canned([(OPT, -1.0), (UNK, None), (OPT, 0.5), (OPT, 0.7)])
        rep = run_hierarchy(_spec(k_max=4, certify_if=lambda v: v > 0))
        assert rep.verdict == "certified"
        assert calls == [3] and rep.order == 3 and rep.bound == 0.5
        assert [o.message for o in rep.orders] == ["canned 1", "canned 2", "canned 3"]
