"""Reports do not depend on the order in which a problem file writes its
terms: each problem is written twice, as it is and with every ``obj:``,
``ineq:`` and ``eq:`` expression's terms reversed, and the ``minimize``,
``arch-check`` and ``coercive-check --json`` reports of the two files must
be byte for byte the same apart from ``timing_s``, as must ``verify --json``
of each report against both files.  The float-coefficient problems sum
their l1 norms and point values in an order that moves the last bits.
"""

import json
import re

import pytest

from popnc.cli import cli_main

PROBLEMS = {
    "EX31": "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n",
    "sextic": "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\nmargin: 1\n",
    "float ball": "vars: x y\nobj: 0.3*x^4 + 0.1*x^2*y^2 + 0.7*y^4 - 0.2*x*y + 0.13*x - 0.9\n"
                  "ineq: 1.1 - 0.3*x^2 - 0.7*y^2 + 0.1*x\nc: 2.5\n",
    "float eq": "vars: x y\nobj: 0.1*x^2 + 0.2*y^2 + 0.3*x*y + 0.7*x - 0.11*y + 0.3\n"
                "eq: 0.3*x + 0.6*y - 0.1\nineq: 1.7 - 0.1*x^2 - 0.2*y^2\nc: 3.3\n",
    "float x0": "vars: x y\nobj: 1.1*x^4 + 0.9*y^4 + 0.3*x^2*y^2 + 0.25*x - 0.6*y^2 + 0.1*y\n"
                "x0: 0.1 0.2\nmargin: 0.3\n",
}


def reversed_terms(document: str) -> str:
    """The document with the terms of every expression in reverse order."""
    lines = []
    for line in document.splitlines():
        key, _, expr = line.partition(":")
        if key in ("obj", "ineq", "eq"):
            terms = re.split(r"\s+(?=[+-]\s)", expr.strip())
            terms[0] = terms[0] if terms[0].startswith("-") else "+ " + terms[0]
            line = f"{key}: " + " ".join(reversed(terms)).removeprefix("+ ")
        lines.append(line)
    return "\n".join(lines) + "\n"


def without_timing(value):
    if isinstance(value, dict):
        return {k: without_timing(v) for k, v in value.items() if k != "timing_s"}
    if isinstance(value, list):
        return list(map(without_timing, value))
    return value


def run(capsys, *args):
    """The exit code and the JSON report without ``timing_s``; an empty
    report where the command printed none (``verify`` of a report that
    holds no certificate)."""
    code = cli_main(list(args))
    out = capsys.readouterr().out
    return code, out and json.dumps(without_timing(json.loads(out)))


def test_reversal_reverses_every_expression():
    assert reversed_terms("vars: x y\nobj: -x^2 + 0.5*x*y - 1\nc: 2\n") == \
        "vars: x y\nobj: - 1 + 0.5*x*y -x^2\nc: 2\n"


@pytest.mark.parametrize("name", PROBLEMS)
def test_reports_do_not_depend_on_term_order(name, tmp_path, capsys):
    files = []
    for label, text in (("as written", PROBLEMS[name]), ("reversed", reversed_terms(PROBLEMS[name]))):
        folder = tmp_path / label.replace(" ", "_")
        folder.mkdir()
        (folder / "problem.pop").write_text(text)
        files.append(folder / "problem.pop")
    for command in ("minimize", "arch-check", "coercive-check"):
        reports = []
        for path in files:
            code, report = run(capsys, command, str(path), "--json")
            (path.parent / f"{command}.json").write_text(report)
            reports.append((code, report))
        assert reports[0] == reports[1], command
        verified = [run(capsys, "verify", str(path.parent / f"{command}.json"), str(problem), "--json")
                    for path in files for problem in files]
        assert all(v == verified[0] for v in verified), command
