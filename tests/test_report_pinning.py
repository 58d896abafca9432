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
"""

import io
import json
import math
import os
import re
from contextlib import redirect_stdout

import pytest

from popnc import driver
from popnc.cli import cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "data", "pinned_reports.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)

PROBLEMS = {
    "ex31": "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n",
    "sextic": "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\n",
}
CASES = sorted(PINNED)
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


def _check_payload(got: dict, case: str, tmp_path) -> None:
    if got["certificate"] is not None:
        report = tmp_path / "report.json"
        report.write_text(json.dumps(got))
        code, out = _cli(["verify", str(report), str(tmp_path / f"{case.split()[1]}.pop"), "--json"])
        assert code == 0 and json.loads(out)["verification"]["passed"] is True, \
            f"{case}: the certificate does not verify"
    _compare(got, PINNED[case]["json"], case)


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
