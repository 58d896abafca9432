import json
import os
import subprocess
import sys
import time

import pytest

import popnc.cli
from popnc.builder import build_membership_program, extract_certificate
from popnc.certificates import Statement, certificate_to_payload, corollary_transform, hierarchy_generators
from popnc.cli import cli_main
from popnc.problem_io import parse_problem
from popnc.sdp import SdpProblem, solve

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n"
LINE = "vars: x\nobj: x\nc: 0\n"
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
# EX31's constraints with objective x1^2 - 1, whose minimum is -1
SHIFTED = "vars: x1 x2\nobj: x1^2 - 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 0\n"


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
    ], ids=["forged sign", "unknown family", "module without psi", "repeated multiplier monomial",
            "huge exponent", "tiny exponent"])
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
         "sos weight 0 (sigma0), its basis: int() argument"),
        ({**SHIFTED_CERT, "lambda": [1.0]}, "lambda: float() argument"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [[[0, 0], {}]]}]},
         "eq multiplier 0: float() argument"),
        ({**SHIFTED_CERT, "order": None},
         "num_vars, order or lambda_sign: int() argument"),
        ({**SHIFTED_CERT, "sos_weights": SHIFTED_CERT["sos_weights"] + [None]},
         "sos weight 1: 'NoneType' object is not subscriptable"),
        ({**SHIFTED_CERT, "eq_multipliers": [{"index": 0, "terms": [None]}]},
         "eq multiplier 0: cannot unpack non-iterable NoneType object"),
    ], ids=["short gram", "index past the generators", "null index", "unknown tag",
            "multiplier without equalities", "nan gram entry", "null gram entry",
            "null basis exponent", "list lambda", "object multiplier coefficient", "null order",
            "null weight", "null multiplier term"])
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
        assert tree["verification"]["residual"] == tree["certificate"]["residual"] == 0.5
        assert self._verify(tmp_path, SHIFTED_CERT, wrong) == 2
        out = capsys.readouterr().out
        assert "residual: 5.000000e-01" in out and "identity residual (l1) = 5.000e-01" in out

    def test_json_verify_does_not_format(self, tmp_path, capsys, monkeypatch):
        def unused(cert):
            raise AssertionError("verify --json formatted the certificate")
        monkeypatch.setattr(popnc.cli, "format_certificate", unused)
        assert self._verify(tmp_path, SHIFTED_CERT, SHIFTED, "--json") == 0
        assert json.loads(capsys.readouterr().out)["verification"]["passed"]


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

    @pytest.mark.parametrize("command", ["parse", "minimize", "coercive-check"])
    @pytest.mark.parametrize("flag, value", [("--c", "inf"), ("--c", "nan"), ("--margin", "nan")])
    def test_non_finite_override_is_input_error(self, sextic_file, capsys, command, flag, value):
        code = cli_main([command, sextic_file, flag, value])
        err = capsys.readouterr().err
        assert code == 3
        assert f"input error: {flag[2:]} holds a number that is not finite" in err

    def test_overflowing_coefficient_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "p.pop"
        path.write_text("vars: x\nobj: 1e999*x^2\nc: 1\n")
        code = cli_main(["minimize", str(path)])
        err = capsys.readouterr().err
        assert code == 3 and "objective holds a number that is not finite" in err

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
