import json
import os

import pytest

from popnc.cli import cli_main

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n"
LINE = "vars: x\nobj: x\nc: 0\n"


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


class TestFlags:
    def test_dump_sdp(self, ex31_file, tmp_path, capsys):
        dump_dir = tmp_path / "dumps"
        code = cli_main(["arch-check", ex31_file, "--k-max", "2", "--dump-sdp", str(dump_dir)])
        capsys.readouterr()
        assert code == 0
        files = sorted(os.listdir(dump_dir))
        assert files and all(f.endswith(".sdp") for f in files)

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

    def test_k_start(self, ex31_file, capsys):
        code = cli_main(["minimize", ex31_file, "--k-start", "2", "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert tree["orders"][0]["k"] == 2
