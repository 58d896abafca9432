"""Pins the reports of the three solve commands and the driver's call paths.

`data/pinned_reports.json` holds the exit code, the `--json` payload and the
human text of `minimize`, `arch-check` and `coercive-check` on EX31 and the
sextic, as the CLI printed them before the three hierarchy loops became one
runner.  Wall-clock timings and the certificate identity residuals are left
out: the residuals are recomputed over the caller's generators and move at
rounding level.  The Gram matrices of a certificate are not fixed by the
problem either: the IPM may end at any point of the optimal face, and with
another BLAS thread count the order-5 sextic Gram moved by up to 1e-2 while
both certificates verified.  So a certificate's Gram entries are checked by
what they prove, `popnc verify` passing on the emitted payload, and only
their shapes are pinned.  Every other number matches to 1e-6 relative or
1e-7 absolute; text matches exactly.  Payloads may gain per-order keys, not
lose any; the top-level key set is fixed.

Equality multipliers are pinned term by term, compared as a map from
monomial to coefficient in which a missing term reads 0: the sign-symmetry
reduction omits the terms a flip forces to 0.  One pin holds a point that
no program reproduces: the sextic's coercivity multiplier was recorded from
the unreduced program, whose last IPM step solved a Schur system of
condition number about 2e17.  That same unreduced program with its rows
permuted (the same SDP) ends 1.5e-3 to 1.7e-3 away from the pinned Gram
and multiplier, and so does the reduced program (condition 4e8), with the
same bound to 1e-10.  For that payload the multiplier is compared, at the
same tolerance, with the one its own Gram matrices and lambda imply (the
least-squares solution of the identity over the pinned support), and its
support with the pin.  Built with the reduction switched off, the program
is the pinned one, row for row, and there the multiplier matches its pin.
"""

import io
import json
import math
import os
import re
from contextlib import redirect_stdout

import numpy as np
import pytest

from gram_reference import expected, reconstruct
from popnc import builder, driver
from popnc.builder import statement
from popnc.certificates import certificate_from_payload
from popnc.cli import cli_main
from popnc.polynomial import Polynomial
from popnc.problem_io import parse_problem

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "data", "pinned_reports.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)

PROBLEMS = {
    "ex31": "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n",
    "sextic": "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n",
}
CASES = sorted(PINNED)
# payloads whose pinned multipliers only the unreduced program, in its
# recorded row order, reproduces (see the module docstring)
MULTIPLIERS_OFF_THE_PIN = {"coercive-check sextic"}
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf))")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-7)


def _same_text(got: str, want: str, skip_numbers: int = 0) -> bool:
    """Equal text with numbers compared by value; the first skip_numbers
    numbers are not compared."""
    g, w = NUMBER.split(got), NUMBER.split(want)
    if len(g) != len(w) or g[0::2] != w[0::2]:
        return False
    nums = list(zip(g[1::2], w[1::2]))[skip_numbers:]
    return all(_close(float(a), float(b)) for a, b in nums)


def _compare_terms(got, want, path: str) -> None:
    """A polynomial's [[exponents, coefficient], ...] list, compared as a map
    from monomial to coefficient in which a missing term reads 0."""
    g = {tuple(mono): c for mono, c in got}
    w = {tuple(mono): c for mono, c in want}
    for mono in g.keys() | w.keys():
        a, b = g.get(mono, 0.0), w.get(mono, 0.0)
        assert _close(a, b), (path, mono, a, b)


def _compare(got, want, path: str, order_record: bool = False) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        if order_record:
            assert set(want) <= set(got), path
        else:
            assert set(got) - {"timing_s", "residual"} == set(want), path
        for key, value in want.items():
            if key == "gram":  # checked by verification, see the module docstring
                assert [len(row) for row in got[key]] == [len(row) for row in value], path
                continue
            if key == "terms":
                _compare_terms(got[key], value, f"{path}.terms")
                continue
            _compare(got[key], value, f"{path}.{key}", order_record=key == "orders")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{path}[{i}]", order_record=order_record)
    elif isinstance(want, str):
        assert isinstance(got, str) and _same_text(got, want), (path, got, want)
    elif isinstance(want, bool) or want is None:
        assert got is want, (path, got, want)
    elif isinstance(want, int):
        assert got == want and not isinstance(got, bool), (path, got, want)
    else:
        assert isinstance(got, (int, float)) and _close(got, want), (path, got, want)


def _cli(argv: list[str]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _run(tmp_path, case: str, json_out: bool):
    command, name = case.split()
    path = tmp_path / f"{name}.pop"
    path.write_text(PROBLEMS[name])
    return _cli([command, str(path)] + (["--json"] if json_out else []))


def _implied_multipliers(cert_payload: dict, name: str, want: list[dict]) -> list[dict]:
    """The equality multipliers, over the supports of ``want``, that the
    payload's SOS weights and lambda imply: the least-squares solution of
    sum_l phi_l h_l = target - lambda_sign * lambda - sum_j sigma_j g_j."""
    cert = certificate_from_payload({**cert_payload, "eq_multipliers": []})
    claim = statement(cert.family, parse_problem(PROBLEMS[name]))
    rest = expected(claim, cert.lam) - reconstruct(cert, claim.gens)
    columns = [(i, tuple(mono), Polynomial(cert.num_vars, {tuple(mono): 1.0}) * claim.gens.eq[m["index"]])
               for i, m in enumerate(want) for mono, _ in m["terms"]]
    rows = sorted(set(rest.terms).union(*(col.terms for _, _, col in columns)))
    A = np.array([[float(col.coefficient(r)) for _, _, col in columns] for r in rows])
    coeffs = np.linalg.lstsq(A, np.array([float(rest.coefficient(r)) for r in rows]), rcond=None)[0]
    implied = [{"index": m["index"], "terms": []} for m in want]
    for (i, mono, _), cv in zip(columns, coeffs):
        implied[i]["terms"].append([list(mono), float(cv)])
    return implied


def _check_payload(got: dict, case: str, tmp_path, reduced: bool = True) -> None:
    if got["certificate"] is not None:
        report = tmp_path / "report.json"
        report.write_text(json.dumps(got))
        code, out = _cli(["verify", str(report), str(tmp_path / f"{case.split()[1]}.pop"), "--json"])
        assert code == 0 and json.loads(out)["verification"]["passed"] is True, \
            f"{case}: the certificate does not verify"
    want = PINNED[case]["json"]
    if reduced and case in MULTIPLIERS_OFF_THE_PIN:
        pinned = want["certificate"]["eq_multipliers"]
        for a, b in zip(got["certificate"]["eq_multipliers"], pinned):
            assert {tuple(m) for m, _ in a["terms"]} <= {tuple(m) for m, _ in b["terms"]}, \
                f"{case}: a multiplier term outside the pinned support"
        implied = _implied_multipliers(got["certificate"], case.split()[1], pinned)
        want = {**want, "certificate": {**want["certificate"], "eq_multipliers": implied}}
    _compare(got, want, case)


@pytest.mark.parametrize("case", CASES)
def test_json_payload(case, tmp_path):
    code, out = _run(tmp_path, case, json_out=True)
    assert code == PINNED[case]["exit"]
    got = json.loads(out)
    assert "timing_s" in got
    for part in ("certificate", "verification"):
        if got[part] is not None:
            assert "residual" in got[part]
    _check_payload(got, case, tmp_path)


@pytest.mark.parametrize("corrupt", [lambda v: v + 1e-3, lambda v: -1.0],
                         ids=["entry moved by 1e-3", "indefinite"])
def test_json_payload_refuses_corrupted_gram(corrupt, tmp_path):
    case = "arch-check ex31"
    _, out = _run(tmp_path, case, json_out=True)
    got = json.loads(out)
    _check_payload(got, case, tmp_path)
    gram = got["certificate"]["sos_weights"][0]["gram"]
    gram[0][0] = corrupt(gram[0][0])
    with pytest.raises(AssertionError, match="the certificate does not verify"):
        _check_payload(got, case, tmp_path)


@pytest.mark.parametrize("corrupt", [
    lambda terms: terms.__setitem__(slice(None), _moved(terms, [1, 1], 2e-7)),
    lambda terms: terms.append([[5, 0], 0.0]),
], ids=["term moved by 2e-7", "term outside the pinned support"])
def test_json_payload_refuses_corrupted_multiplier(corrupt, tmp_path):
    case = "coercive-check sextic"
    _, out = _run(tmp_path, case, json_out=True)
    got = json.loads(out)
    _check_payload(got, case, tmp_path)
    corrupt(got["certificate"]["eq_multipliers"][0]["terms"])
    with pytest.raises(AssertionError, match="eq_multipliers|pinned support"):
        _check_payload(got, case, tmp_path)


@pytest.mark.parametrize("case", CASES)
def test_json_payload_without_sign_flips(case, tmp_path, monkeypatch):
    monkeypatch.setattr(builder, "sign_flips", lambda polys, num_vars: ())
    code, out = _run(tmp_path, case, json_out=True)
    assert code == PINNED[case]["exit"]
    _check_payload(json.loads(out), case, tmp_path, reduced=False)


SEXTIC_PHI = PINNED["coercive-check sextic"]["json"]["certificate"]["eq_multipliers"][0]["terms"]


def _moved(terms, mono, by):
    return [[m, c + by if m == mono else c] for m, c in terms]


@pytest.mark.parametrize("got, want, passes", [
    # the sextic's coercivity multiplier without its odd terms (|v| <= 2.5e-8)
    ([[m, c] for m, c in SEXTIC_PHI if sum(m) % 2 == 0], SEXTIC_PHI, True),
    (_moved(SEXTIC_PHI, [1, 1], 2e-7), SEXTIC_PHI, False),
    (_moved(SEXTIC_PHI, [1, 0], 2e-7), SEXTIC_PHI, False),
    ([[m, c] for m, c in SEXTIC_PHI if m != [1, 0]], _moved(SEXTIC_PHI, [1, 0], 2e-7), False),
    (_moved(SEXTIC_PHI, [1, 0], 2e-7), [[m, c] for m, c in SEXTIC_PHI if m != [1, 0]], False),
], ids=["odd terms absent", "term moved by 2e-7", "small term moved by 2e-7",
        "absent term pinned off by 2e-7", "extra term off by 2e-7"])
def test_polynomial_terms_compare_as_a_map(got, want, passes):
    if passes:
        _compare_terms(got, want, "terms")
    else:
        with pytest.raises(AssertionError):
            _compare_terms(got, want, "terms")


@pytest.mark.parametrize("case", CASES)
def test_human_text(case, tmp_path):
    code, out = _run(tmp_path, case, json_out=False)
    assert code == PINNED[case]["exit"]
    got, want = out.splitlines(), PINNED[case]["text"]
    assert len(got) == len(want), (got, want)
    for a, b in zip(got, want):
        skip = 1 if b.startswith("certificate residual:") else 0
        assert _same_text(a, b, skip_numbers=skip), (a, b)


# calls per routine on EX31 (and the sextic for a coercivity certificate):
# builds, solves, extractions, verifications
CALLS = [
    ("minimize", "ex31", (3, 3, 1, 1)),
    ("check_archimedean", "ex31", (1, 1, 1, 1)),
    ("check_coercive", "ex31", (6, 6, 0, 0)),
    ("check_coercive", "sextic", (1, 1, 1, 1)),
]


@pytest.mark.parametrize("routine,name,expected", CALLS, ids=[f"{r}-{n}" for r, n, _ in CALLS])
def test_driver_calls_through_its_namespace(routine, name, expected, monkeypatch):
    """The routines look build/solve/extract/verify up in popnc.driver when
    they run, so re-binding those names there sees every call."""
    from popnc.problem_io import parse_problem

    counts = {"build": 0, "solve": 0, "extract": 0, "verify": 0}

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    for attr in ("build_hierarchy_step", "build_archimedean_check", "build_coercivity_check"):
        monkeypatch.setattr(driver, attr, counting("build", getattr(driver, attr)))
    monkeypatch.setattr(driver, "solve", counting("solve", driver.solve))
    monkeypatch.setattr(driver, "extract_certificate", counting("extract", driver.extract_certificate))
    monkeypatch.setattr(driver, "verify_certificate", counting("verify", driver.verify_certificate))

    problem = parse_problem(PROBLEMS[name])
    subject = problem.objective if routine == "check_coercive" else problem
    getattr(driver, routine)(subject)
    assert (counts["build"], counts["solve"], counts["extract"], counts["verify"]) == expected
