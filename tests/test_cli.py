import collections
import json
import os
import re
import subprocess
import sys
import time

import pytest

import popnc.certificates
import popnc.cli
from popnc import driver
from popnc.builder import build_membership_program, extract_certificate
from popnc.certificates import Statement, certificate_to_payload, corollary_transform, hierarchy_generators
from popnc.cli import cli_main
from popnc.problem_io import PopProblem, ProblemFormatError, emit_report, parse_problem
from popnc.sdp import SdpProblem, solve

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n"
LINE = "vars: x\nobj: x\nc: 0\n"
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# EX31's constraints with objective x1^2 - 1, whose minimum is -1
SHIFTED = "vars: x1 x2\nobj: x1^2 - 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 0\n"

# EX31, the sextic and three quartics: one with an equality, one sign-symmetric
# (every variable in even degree only) and one with no sign symmetry
LIBRARY_PROBLEMS = {
    "ex31": EX31,
    "sextic": SEXTIC,
    "quartic-eq": "vars: x1 x2\nobj: x1^4 + x2^4 - x1*x2 + x1\neq: x1 + x2 - 1\nx0: 0 1\n",
    "quartic-symmetric": "vars: x1 x2\nobj: x1^4 + x2^4 - x1^2*x2^2 + x1^2 - 2*x2^2\n"
                         "ineq: 4 - x1^2 - x2^2\nc: 2\n",
    "quartic": "vars: x1 x2\nobj: x1^4 + x1^2*x2^2 + x2^4 + x1^3 - x2 + x1*x2\nx0: 1 0\n",
}


def _weight(tag, index, basis, gram):
    return {"tag": tag, "index": index, "basis": basis, "gram": gram}


def _payload(family, lam, sign, *weights):
    return {"schema": "popnc.certificate/1", "family": family, "num_vars": 2, "order": 1,
            "lambda": lam, "lambda_sign": sign, "residual": 0.0,
            "sos_weights": list(weights), "eq_multipliers": []}


# f - (-1) = x1^2 = sigma_0 for SHIFTED: a hierarchy certificate of the bound -1
SHIFTED_CERT = _payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [[1.0]]))
# x1^2 - 1 on the line x2 = 0: the same certificate holds with multiplier 0
ON_LINE = "vars: x1 x2\nobj: x1^2 - 1\neq: x2\nc: 0\n"


def _module_cert(sigma0, w, psi=None):
    """(1 + psi) (x1^2 + 1) = sigma0 + w x1^2 (g1 + g2) over EX31's (g1, g2), where
    g1 + g2 = 3/4, with constant sigma0 and psi; a payload without psi when None."""
    weights = [_weight("sigma0", None, [[0, 0]], [[sigma0]]),
               _weight("ineq", 0, [[1, 0]], [[w]]),
               _weight("ineq", 1, [[1, 0]], [[w]])]
    if psi is not None:
        weights.append(_weight("psi", None, [[0, 0]], [[psi]]))
    return _payload("module", 0, 0, *weights)


@pytest.fixture
def ex31_file(tmp_path):
    path = tmp_path / "example31.pop"
    path.write_text(EX31)
    return str(path)


@pytest.fixture
def sextic_file(tmp_path):
    path = tmp_path / "sextic.pop"
    path.write_text(SEXTIC)
    return str(path)


class TestExitCodes:
    def test_arch_check_json(self, ex31_file, capsys):
        code = cli_main(["arch-check", ex31_file, "--k-max", "4", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        tree = json.loads(out)
        assert tree["verdict"] == "certified"
        assert abs(tree["rho"] - 2.0) <= 1e-3

    def test_coercive_check_json(self, sextic_file, capsys):
        code = cli_main(["coercive-check", sextic_file, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        tree = json.loads(out)
        assert tree["verdict"] == "certified"
        assert abs(tree["delta"] - 0.125) <= 1e-4
        # the witness Gram block travels in the report payload
        grams = [w["gram"] for w in tree["certificate"]["sos_weights"] if w["tag"] == "sigma0"]
        assert grams and len(grams[0]) == 10

    def test_minimize_json(self, ex31_file, capsys):
        code = cli_main(["minimize", ex31_file, "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(tree["final_bound"] - 1.0) <= 1e-4
        assert tree["verdict"] == "stabilized"
        assert '"bounds"' in json.dumps(tree)

    def test_missing_file_is_input_error(self, capsys):
        code = cli_main(["minimize", "missing.pop"])
        err = capsys.readouterr().err
        assert code == 3
        assert "input error" in err

    def test_malformed_problem_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pop"
        bad.write_text("vars: x\nobj: x +\nc: 1\n")
        assert cli_main(["parse", str(bad)]) == 3
        assert "input error" in capsys.readouterr().err

    def test_inconclusive_is_exit_two(self, tmp_path):
        path = tmp_path / "line.pop"
        path.write_text(LINE)
        assert cli_main(["arch-check", str(path), "--k-max", "3"]) == 2

    def test_parse_ok(self, ex31_file, capsys):
        assert cli_main(["parse", ex31_file]) == 0
        out = capsys.readouterr().out
        assert "2 inequalities" in out

    def test_bad_flag_is_input_error(self, ex31_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["minimize", ex31_file, "--k-max", "nope"])
        assert exc.value.code == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify", "cert.json", "shifted.pop"], ["parse", "shifted.pop", "--json"]],
                             ids=["verify", "parse-json"])
    def test_closed_stdout_is_exit_one_without_traceback(self, tmp_path, command):
        # ``popnc ... | head``: the reader closes stdout before popnc writes
        (tmp_path / "cert.json").write_text(json.dumps(SHIFTED_CERT))
        (tmp_path / "shifted.pop").write_text(SHIFTED)
        src = os.path.dirname(os.path.dirname(os.path.abspath(popnc.cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-c", "from popnc.cli import main; main()", *command],
                                  cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_structure_error_is_numerical_failure(self, ex31_file, capsys, monkeypatch):
        import popnc.driver
        from popnc.sdp import SdpStructureError

        def broken(*args, **kwargs):
            raise SdpStructureError("block 0 is not symmetric")
        monkeypatch.setattr(popnc.driver, "minimize", broken)
        assert cli_main(["minimize", ex31_file]) == 4
        assert "numerical failure: block 0 is not symmetric" in capsys.readouterr().err


class TestVerifySubcommand:
    def test_verify_emitted_certificate(self, ex31_file, tmp_path, capsys):
        code = cli_main(["arch-check", ex31_file, "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(tree["certificate"]))
        code = cli_main(["verify", str(cert_path), ex31_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_verify_rejects_tampered_certificate(self, ex31_file, tmp_path, capsys):
        cli_main(["arch-check", ex31_file, "--json"])
        tree = json.loads(capsys.readouterr().out)
        cert = tree["certificate"]
        cert["lambda"] = float(cert["lambda"]) + 0.5
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code = cli_main(["verify", str(cert_path), ex31_file])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_verify_loads_no_solver(self, tmp_path):
        # a fresh interpreter: verify must not import the builder, the solver or the driver
        cert, problem = tmp_path / "cert.json", tmp_path / "shifted.pop"
        cert.write_text(json.dumps(SHIFTED_CERT))
        problem.write_text(SHIFTED)
        src = os.path.dirname(os.path.dirname(os.path.abspath(popnc.cli.__file__)))
        script = ("import sys; from popnc.cli import cli_main; "
                  f"code = cli_main(['verify', {str(cert)!r}, {str(problem)!r}, '--json']); "
                  "print(code, [m for m in ('popnc.sdp', 'popnc.builder', 'popnc.driver') if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()[-1]
        assert out == "0 []"

    def test_verify_report_without_certificate(self, tmp_path, capsys):
        path = tmp_path / "line.pop"
        path.write_text(LINE)
        code = cli_main(["minimize", str(path), "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 2 and tree["certificate"] is None
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(tree))
        code = cli_main(["verify", str(report_path), str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "carries no certificate" in err
        assert tree["verdict"] in err


class TestVerifyRoundTrip:
    """Every certificate the tool emits passes `popnc verify` on its own payload,
    and verify checks a payload against what its family proves."""

    def _verify(self, tmp_path, payload, problem_text, *flags):
        cert_path, problem_path = tmp_path / "cert.json", tmp_path / "problem.pop"
        cert_path.write_text(json.dumps(payload))
        problem_path.write_text(problem_text)
        return cli_main(["verify", str(cert_path), str(problem_path), *flags])

    def test_every_emitted_certificate_verifies(self, tmp_path, capsys):
        verified = []
        for command in ("minimize", "arch-check", "coercive-check"):
            for name, text in (("ex31", EX31), ("sextic", SEXTIC)):
                problem_path = tmp_path / f"{name}.pop"
                problem_path.write_text(text)
                code = cli_main([command, str(problem_path), "--json"])
                report = json.loads(capsys.readouterr().out)
                if report["certificate"] is None:
                    # x1^2, EX31's top form, is not coercive in (x1, x2)
                    assert (command, name, code) == ("coercive-check", "ex31", 2)
                    continue
                assert code == 0
                code = self._verify(tmp_path, report, text)
                assert code == 0 and "verification: PASS" in capsys.readouterr().out, (command, name)
                verified.append((command, name))
        assert len(verified) == 5

        # the module certificate of the library's corollary transform
        problem = parse_problem(EX31)
        gens = hierarchy_generators(problem)
        prob = build_membership_program(Statement("membership", problem.objective, gens, 0), 2)
        cert = extract_certificate(solve(prob), prob.meta)
        _, module = corollary_transform(cert, problem.objective, gens, problem.resolved_c())
        code = self._verify(tmp_path, certificate_to_payload(module), EX31)
        out = capsys.readouterr().out
        assert code == 0 and "verification: PASS" in out
        assert "psi = " in out

    @pytest.mark.parametrize("name", LIBRARY_PROBLEMS)
    def test_every_library_report_verifies(self, tmp_path, capsys, name):
        # every report with a certificate that a public routine returns passes
        # verify --json against the problem file it was computed from
        text = LIBRARY_PROBLEMS[name]
        problem = parse_problem(text)
        verified = []
        for routine in (driver.minimize, driver.check_archimedean, driver.check_coercive):
            report = routine(problem.objective if routine is driver.check_coercive else problem)
            if report.certificate is None:
                continue
            code = self._verify(tmp_path, json.loads(emit_report(report.to_payload())), text, "--json")
            assert code == 0, (name, routine.__name__)
            assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
            verified.append(routine)
        # x1^2, EX31's top form, is not coercive in (x1, x2)
        assert len(verified) == (2 if name == "ex31" else 3)

    def test_hand_certificates(self, tmp_path, capsys):
        assert self._verify(tmp_path, SHIFTED_CERT, SHIFTED) == 0
        assert "lambda = -1" in capsys.readouterr().out
        # (3/2) f = 3/2 + 2 x1^2 (g1 + g2)
        assert self._verify(tmp_path, _module_cert("3/2", "2", psi="1/2"), EX31) == 0
        assert "psi = 0.5" in capsys.readouterr().out

    @pytest.mark.parametrize("payload, problem, message", [
        # lambda = 1 with sign -1 restates the same identity, f + 1 = x1^2, as a false bound 1
        ({**SHIFTED_CERT, "lambda": 1.0, "lambda_sign": -1}, SHIFTED,
         "lambda_sign -1 contradicts the hierarchy family, whose lambda_sign is 1"),
        ({**SHIFTED_CERT, "family": "foo"}, SHIFTED, "unknown certificate family 'foo'"),
        # a missing family is named as a missing field, not read as a family
        ({k: v for k, v in SHIFTED_CERT.items() if k != "family"}, SHIFTED, "'family'"),
        # x1^2 + 1 = 1 + (4/3) x1^2 (g1 + g2): valid against f, but without psi
        (_module_cert("1", "4/3"), EX31, "a module certificate must carry its SOS weight psi"),
        # x2 - x2 = 0 as the multiplier of x2; keeping one of the two terms would
        # read -x2 or x2 and fail the identity
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, 1], 1.0], [[0, 1], -1.0]]}]},
         ON_LINE, "eq multiplier 0: the monomial [0, 1] is listed twice"),
        # refused before 10^4000000 is built, which takes seconds
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [["1e4000000"]])),
         SHIFTED, "sos weight 0 (sigma0), its gram: 1e4000000 lies beyond the float range"),
        ({**SHIFTED_CERT, "lambda": "1e-4000000"}, SHIFTED,
         "lambda: 1e-4000000 lies beyond the float range"),
        # the one range rule of every number: once read, then refused as a float (exit 4)
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [["1e350"]])),
         SHIFTED, "sos weight 0 (sigma0), its gram: 1e350 lies beyond the float range"),
        ({**SHIFTED_CERT, "lambda": "1e350"}, SHIFTED, "lambda: 1e350 lies beyond the float range"),
        # once accepted as a rational below the float range
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [["1/" + "9" * 400]])),
         SHIFTED, "sos weight 0 (sigma0), its gram: 999999999999... (400 characters) lies beyond the float range"),
        # a Gram is a list of rows; these once read as [[5]], [[7]] and [[1, 2], [3, 4]]
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], "5")),
         SHIFTED, "sos weight 0 (sigma0), its gram: not a list of rows"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], {"7": 1})),
         SHIFTED, "sos weight 0 (sigma0), its gram: not a list of rows"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[0, 0], [1, 0]], ["12", "34"])),
         SHIFTED, "sos weight 0 (sigma0), its gram: not a list of rows"),
    ], ids=["forged sign", "unknown family", "no family", "module without psi", "repeated multiplier monomial",
            "huge exponent", "tiny exponent", "gram entry 1e350", "lambda 1e350", "400-digit denominator",
            "string gram", "object gram", "a string per row"])
    def test_refused_payloads(self, tmp_path, capsys, payload, problem, message):
        start = time.perf_counter()
        code = self._verify(tmp_path, payload, problem)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0], [0, 1]], [[1.0, 0.0]])),
         "sos weight 0 (sigma0), its gram: not 2 x 2, the size of its basis"),
        ({**SHIFTED_CERT, "sos_weights": SHIFTED_CERT["sos_weights"]
          + [_weight("ineq", 3, [[0, 0]], [[0.0]])]},
         "sos weight 1 (ineq): index 3 names no generator (there are 3)"),
        ({**SHIFTED_CERT, "sos_weights": SHIFTED_CERT["sos_weights"]
          + [_weight("ineq", None, [[0, 0]], [[0.0]])]},
         "sos weight 1 (ineq): the index must be an integer, got None"),
        ({**SHIFTED_CERT, "sos_weights": SHIFTED_CERT["sos_weights"]
          + [_weight("foo", None, [[0, 0]], [[0.0]])]},
         "sos weight 1 (foo): unknown tag; the tags are sigma0, ineq, cf, psi"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, 0], 0.0]]}]},
         "eq multiplier 0: index 0 names no generator (there are 0)"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [[float("nan")]])),
         "sos weight 0 (sigma0), its gram: nan is not a finite number"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [[None]])),
         "sos weight 0 (sigma0), its gram: float() argument"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, None]], [[1.0]])),
         "sos weight 0 (sigma0), its basis: an exponent must be an integer, got None"),
        ({**SHIFTED_CERT, "lambda": [1.0]}, "lambda: float() argument"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, 0], {}]]}]},
         "eq multiplier 0: float() argument"),
        ({**SHIFTED_CERT, "order": None},
         "num_vars, order or lambda_sign: order must be an integer, got None"),
        ({**SHIFTED_CERT, "sos_weights": SHIFTED_CERT["sos_weights"] + [None]},
         "sos weight 1: 'NoneType' object is not subscriptable"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [None]}]},
         "eq multiplier 0: cannot unpack non-iterable NoneType object"),
        # an integer field is a JSON integer; int() once truncated these
        ({**SHIFTED_CERT, "order": 1.9}, "num_vars, order or lambda_sign: order must be an integer, got 1.9"),
        ({**SHIFTED_CERT, "num_vars": 1.5},
         "num_vars, order or lambda_sign: num_vars must be an integer, got 1.5"),
        ({**SHIFTED_CERT, "lambda_sign": True},
         "num_vars, order or lambda_sign: lambda_sign must be an integer, got True"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1.5, 0]], [[1.0]])),
         "sos weight 0 (sigma0), its basis: an exponent must be an integer, got 1.5"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, "1"], 0.0]]}]},
         "eq multiplier 0: an exponent must be an integer, got '1'"),
        # a JSON integer beyond the float range, once an internal failure (exit 4)
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [[10 ** 400]])),
         "sos weight 0 (sigma0), its gram: int too large to convert to float"),
        # a JSON boolean is no number; true once read as 1.0
        ({**SHIFTED_CERT, "lambda": True}, "lambda: a number must be a JSON number or a string, got True"),
        (_payload("hierarchy", -1.0, 1, _weight("sigma0", None, [[1, 0]], [[True]])),
         "sos weight 0 (sigma0), its gram: a number must be a JSON number or a string, got True"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, 0], False]]}]},
         "eq multiplier 0: a number must be a JSON number or a string, got False"),
        # the claimed residual is a payload number too; float() read true as 1.0 and NaN as NaN
        ({**SHIFTED_CERT, "residual": True}, "residual: a number must be a JSON number or a string, got True"),
        ({**SHIFTED_CERT, "residual": float("nan")}, "residual: nan is not a finite number"),
        ({**SHIFTED_CERT, "residual": float("inf")}, "residual: inf is not a finite number"),
        ({**SHIFTED_CERT, "residual": "1e350"}, "residual: 1e350 lies beyond the float range"),
        ({**SHIFTED_CERT, "residual": [0.0]}, "residual: float() argument"),
    ], ids=["short gram", "index past the generators", "null index", "unknown tag",
            "multiplier without equalities", "nan gram entry", "null gram entry",
            "null basis exponent", "list lambda", "object multiplier coefficient", "null order",
            "null weight", "null multiplier term", "float order", "float num_vars", "bool lambda_sign",
            "float basis exponent", "string multiplier exponent", "huge integer gram entry",
            "bool lambda", "bool gram entry", "bool multiplier coefficient", "bool residual",
            "nan residual", "infinite residual", "residual beyond the float range", "list residual"])
    def test_malformed_payloads(self, tmp_path, capsys, payload, message):
        code = self._verify(tmp_path, payload, SHIFTED)
        err = capsys.readouterr().err
        assert code == 3
        assert f"input error: {message}" in err and "Traceback" not in err

    def test_psi_must_be_sos(self, tmp_path, capsys):
        # (1 - 1/2) f = 1/2 + (2/3) x1^2 (g1 + g2) holds, but psi = -1/2 is no square
        code = self._verify(tmp_path, _module_cert("1/2", "2/3", psi="-1/2"), EX31)
        assert code == 2 and "verification: FAIL" in capsys.readouterr().out

    def test_echoes_the_recomputed_residual(self, tmp_path, capsys):
        # the payload claims residual 0, but against f = x1^2 - 3/2 its identity
        # f + 1 = x1^2 misses by 1/2
        wrong = SHIFTED.replace("x1^2 - 1", "x1^2 - 3/2")
        assert self._verify(tmp_path, SHIFTED_CERT, wrong, "--json") == 2
        tree = json.loads(capsys.readouterr().out)
        assert tree["verification"]["residual"] == 0.5
        assert self._verify(tmp_path, SHIFTED_CERT, wrong) == 2
        out = capsys.readouterr().out
        assert "residual: 5.000000e-01" in out and "identity residual (l1) = 5.000e-01" in out

    @pytest.mark.parametrize("payload, lam", [
        (SHIFTED_CERT, -1.0),
        ({**SHIFTED_CERT, "lambda": "-1/1", "sos_weights": [_weight("sigma0", None, [[1, 0]], [["1/1"]])]},
         "-1/1"),
    ], ids=["float", "rational"])
    def test_verify_report_keys(self, tmp_path, capsys, payload, lam):
        # the report states the check and names the checked payload; it does not echo it
        assert self._verify(tmp_path, payload, SHIFTED, "--json") == 0
        tree = json.loads(capsys.readouterr().out)
        assert set(tree) == {"command", "problem", "verification"}
        assert tree["verification"] == {"passed": True, "residual": 0.0, "min_gram_eig": 1.0, "tol": 1e-5,
                                        "family": "hierarchy", "order": 1, "lambda": lam}

    @pytest.mark.parametrize("content", [None, [SHIFTED_CERT], {"certificate": 5}, "verify report"],
                             ids=["null", "list", "certificate not an object", "verify report"])
    def test_file_without_a_certificate(self, tmp_path, capsys, content):
        if content == "verify report":  # it names its certificate but does not carry it
            assert self._verify(tmp_path, SHIFTED_CERT, SHIFTED, "--json") == 0
            content = json.loads(capsys.readouterr().out)
        code = self._verify(tmp_path, content, SHIFTED)
        err = capsys.readouterr().err
        assert code == 3
        assert "cert.json holds no certificate: neither a certificate payload nor a report with one" in err

    def test_json_verify_does_not_format(self, tmp_path, capsys, monkeypatch):
        def unused(cert):
            raise AssertionError("verify --json formatted the certificate")
        monkeypatch.setattr(popnc.cli, "format_certificate", unused)
        assert self._verify(tmp_path, SHIFTED_CERT, SHIFTED, "--json") == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"]

    @pytest.mark.parametrize("sigma0, w, psi", [(1.5, 2.0, 0.5), ("3/2", "2", "1/2")],
                             ids=["float", "rational"])
    def test_text_verify_expands_each_gram_once(self, tmp_path, capsys, monkeypatch, sigma0, w, psi):
        # each Gram is expanded once, for the identity check, the module
        # statement's psi and the printed certificate alike, and each float
        # Gram is formed once
        calls = collections.Counter()
        for name in ("gram_to_polynomial", "_gram_float"):
            def counted(*args, _name=name, _original=getattr(popnc.certificates, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(popnc.certificates, name, counted)
        for flags in ((), ("--json",)):
            calls.clear()
            assert self._verify(tmp_path, _module_cert(sigma0, w, psi), EX31, *flags) == 0
            assert (calls["gram_to_polynomial"], calls["_gram_float"]) == (4, 4), flags
        assert "psi = 0.5" in capsys.readouterr().out


class TestFlags:
    def test_dump_sdp(self, ex31_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        code = cli_main(["arch-check", ex31_file, "--k-max", "2", "--dump-sdp", str(dump_dir)])
        capsys.readouterr()
        assert code == 0
        files = sorted(os.listdir(dump_dir))
        assert files and all(f.endswith(".sdp") for f in files)

    @pytest.mark.parametrize("command, text, k, golden", [
        ("minimize", EX31, 2, "dump_ex31_minimize_k2.sdp"),
        ("coercive-check", SEXTIC, 3, "dump_sextic_coercive_k3.sdp"),
    ])
    def test_dump_matches_golden_file(self, tmp_path, capsys, command, text, k, golden):
        path = tmp_path / "p.pop"
        path.write_text(text)
        cli_main([command, str(path), "--k-start", str(k), "--k-max", str(k),
                  "--dump-sdp", str(tmp_path / "dumps")])
        capsys.readouterr()
        (dumped,) = os.listdir(tmp_path / "dumps")
        with open(os.path.join(DATA, golden), encoding="utf-8") as fh:
            expected = fh.read()
        with open(tmp_path / "dumps" / dumped, encoding="utf-8") as fh:
            assert fh.read() == expected

    def test_solve_path_never_builds_dense_rows(self, ex31_file, tmp_path, capsys, monkeypatch):
        def dense_rows(problem):
            raise AssertionError("SdpProblem.constraints was read")
        monkeypatch.setattr(SdpProblem, "constraints", property(dense_rows))
        for command in ("minimize", "arch-check", "coercive-check"):
            code = cli_main([command, ex31_file, "--k-max", "2", "--dump-sdp", str(tmp_path / command)])
            capsys.readouterr()
            assert code in (0, 2) and os.listdir(tmp_path / command)

    @pytest.mark.parametrize("command, flag", [
        ("verify", ["--dump-sdp", "dumps"]), ("parse", ["--dump-sdp", "dumps"]), ("parse", ["--tol", "1e-6"]),
    ], ids=["verify --dump-sdp", "parse --dump-sdp", "parse --tol"])
    def test_flags_of_other_commands_are_usage_errors(self, ex31_file, tmp_path, capsys, command, flag):
        args = [str(tmp_path / "cert.json")] if command == "verify" else []
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *args, ex31_file, *flag])
        assert exc.value.code == 3
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_c_override(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: x^2\nx0: 0\n")
        code = cli_main(["parse", str(path), "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0 and tree["problem"]["resolved_c"] == 1.0
        code = cli_main(["parse", str(path), "--c", "5", "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0 and tree["problem"]["resolved_c"] == 5.0

    def test_margin_override(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: x^2\nx0: 0\n")
        code = cli_main(["parse", str(path), "--margin", "2", "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0 and tree["problem"]["resolved_c"] == 2.0

    @pytest.mark.parametrize("flag, value, resolved_c", [
        ("--c", "1/3", 1 / 3), ("--c", "1e-3", 1e-3), ("--margin", "1/2", 0.5), ("--margin", ".5e1", 5.0),
    ])
    def test_number_flags_read_as_a_c_line(self, tmp_path, capsys, flag, value, resolved_c):
        # --c 1/3 was refused as "invalid float value"
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: x^2\nx0: 0\n")
        assert cli_main(["parse", str(path), flag, value, "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["problem"]["resolved_c"] == resolved_c

    @pytest.mark.parametrize("flag", ["--c", "--margin"])
    @pytest.mark.parametrize("value, message", [
        ("1e-400", "1e-400 lies beyond the float range"),
        ("1e400", "1e400 lies beyond the float range"),
        ("1/0", "division by zero in '1/0'"),
        ("two", "malformed number 'two'"),
    ])
    def test_number_flags_refused_as_a_c_line(self, tmp_path, capsys, flag, value, message):
        # --c 1e-400 once ran with c = 0 without a word
        path = tmp_path / "p.pop"
        path.write_text(f"vars: x\nobj: x^2\nx0: 0\nmargin: {value}\n")
        with pytest.raises(ProblemFormatError, match=f"line 4: {re.escape(message)}$"):
            parse_problem(path.read_text())
        path.write_text("vars: x\nobj: x^2\nx0: 0\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["parse", str(path), flag, value])
        assert exc.value.code == 3
        assert f"popnc: input error: argument {flag}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["parse", "minimize", "coercive-check"])
    @pytest.mark.parametrize("flag, value", [("--c", "inf"), ("--c", "nan"), ("--margin", "nan")])
    def test_non_finite_override_is_input_error(self, sextic_file, capsys, command, flag, value):
        code = cli_main([command, sextic_file, flag, value])
        err = capsys.readouterr().err
        assert code == 3
        assert f"input error: {flag[2:]} holds a number that is not finite" in err

    @pytest.mark.parametrize("command", ["parse", "minimize"])
    @pytest.mark.parametrize("text, flags", [
        (SEXTIC, ["--margin", "0"]), (SEXTIC, ["--margin", "-1"]), (SEXTIC + "margin: 0\n", []),
    ], ids=["--margin 0", "--margin -1", "margin: 0"])
    def test_margin_not_positive_is_input_error(self, tmp_path, capsys, command, text, flags):
        # the sextic has x0: and derives c from the margin
        path = tmp_path / "p.pop"
        path.write_text(text)
        assert cli_main([command, str(path), *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "popnc: input error: margin must be > 0\n"

    @pytest.mark.parametrize("flags, checks", [
        ((), 1), (("--margin", "2"), 2), (("--c", "5"), 2), (("--c", "5", "--margin", "2"), 2),
    ])
    def test_problem_checked_again_only_after_an_override(self, sextic_file, capsys, monkeypatch,
                                                         flags, checks):
        calls = collections.Counter()
        original = PopProblem.validate
        def counted(problem):
            calls["validate"] += 1
            return original(problem)
        monkeypatch.setattr(PopProblem, "validate", counted)
        assert cli_main(["parse", sextic_file, *flags]) == 0
        assert calls["validate"] == checks
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["parse", "minimize", "verify"])
    def test_payload_built_only_with_json(self, tmp_path, capsys, monkeypatch, command):
        calls = collections.Counter()
        for cls in (PopProblem, driver.HierarchyReport):
            def counted(self, _name=cls.__name__, _original=cls.to_payload):
                calls[_name] += 1
                return _original(self)
            monkeypatch.setattr(cls, "to_payload", counted)
        problem, cert = tmp_path / "p.pop", tmp_path / "cert.json"
        problem.write_text(SHIFTED)
        cert.write_text(json.dumps(SHIFTED_CERT))
        files = [str(cert), str(problem)] if command == "verify" else [str(problem)]
        extra = ["--k-max", "1"] if command == "minimize" else []
        for flags, built in (((), 0), (("--json",), 1)):
            calls.clear()
            cli_main([command, *files, *extra, *flags])
            out = capsys.readouterr().out
            assert calls["PopProblem"] == built, flags
            assert calls["HierarchyReport"] == (built if command == "minimize" else 0), flags
            assert out.startswith("{") == bool(built)

    @pytest.mark.parametrize("command", ["minimize", "arch-check", "coercive-check", "verify"])
    @pytest.mark.parametrize("value, message", [
        ("inf", "inf is not a finite number >= 0"),
        ("-inf", "-inf is not a finite number >= 0"),
        ("nan", "nan is not a finite number >= 0"),
        ("-1", "-1 is not a finite number >= 0"),
        ("1e-400", "1e-400 lies beyond the float range"),
    ])
    def test_tol_refused_as_a_c_line(self, tmp_path, capsys, command, value, message):
        # verify --tol inf once passed a certificate whose identity was off by 5,
        # and --tol 1e-400 ran with tol 0 without a word
        problem, cert = tmp_path / "p.pop", tmp_path / "cert.json"
        problem.write_text(SHIFTED)
        cert.write_text(json.dumps(SHIFTED_CERT))
        files = [str(cert), str(problem)] if command == "verify" else [str(problem)]
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *files, f"--tol={value}"])
        assert exc.value.code == 3
        assert f"popnc: input error: argument --tol: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["minimize", "arch-check", "coercive-check", "verify"])
    @pytest.mark.parametrize("value, tol", [("0", 0.0), ("1/2", 0.5)])
    def test_tol_read_as_a_c_line(self, tmp_path, capsys, command, value, tol):
        # 0 is a valid tolerance: verify --tol 0 demands an exact identity,
        # which SHIFTED_CERT meets
        problem, cert = tmp_path / "p.pop", tmp_path / "cert.json"
        problem.write_text(SHIFTED)
        cert.write_text(json.dumps(SHIFTED_CERT))
        files = [str(cert), str(problem)] if command == "verify" else [str(problem)]
        orders = [] if command == "verify" else ["--k-max", "2"]
        code = cli_main([command, *files, *orders, "--tol", value, "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        if command == "verify":
            assert code == 0 and tree["verification"]["tol"] == tol

    def test_overflowing_coefficient_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: 1e999*x^2\nc: 1\n")
        code = cli_main(["minimize", str(path)])
        err = capsys.readouterr().err
        assert code == 3 and "line 2, col 6: 1e999 lies beyond the float range" in err

    @pytest.mark.parametrize("command", ["parse", "minimize", "arch-check", "coercive-check", "verify"])
    @pytest.mark.parametrize("objective, message", [
        ("x^9223372036854775808 + y^2", "an exponent reaches 2^63"),
        ("x^9223372036854775807*y + y^2", "a monomial has total degree 2^63 or more"),
    ], ids=["exponent", "total degree"])
    def test_degree_beyond_int64_is_input_error(self, tmp_path, capsys, command, objective, message):
        # exponent rows are int64: a total degree of 2^63 would wrap around
        path = tmp_path / "p.pop"
        path.write_text(f"vars: x y\nobj: {objective}\nc: 1\n")
        (tmp_path / "cert.json").write_text(json.dumps(SHIFTED_CERT))
        argv = [command, str(tmp_path / "cert.json")] if command == "verify" else [command]
        code = cli_main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"popnc: input error: line 2, col 6: {message}" in captured.err

    @pytest.mark.parametrize("command", ["parse", "minimize"])
    def test_x0_beyond_float_range_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: x^2\nx0: 1e300\n")
        code = cli_main([command, str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "input error: x0 is out of range: the objective at x0 does not fit in a float" in err

    def test_k_start(self, ex31_file, capsys):
        code = cli_main(["minimize", ex31_file, "--k-start", "2", "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert tree["orders"][0]["k"] == 2
