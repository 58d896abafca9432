"""Correctness checks for every task the benchmark runs.

A task fails on a wrong exit code, a wrong verdict, status or certificate
presence, a bound or per-order value off its reference by more than the
1e-7 relative gate, an unsound bound at a feasible sample point, an emitted
certificate that does not pass a `popnc verify` round trip, a verify verdict
other than the one the replay case was built to give, or an exception.
"""

from __future__ import annotations

import os
import random

import polys
from workloads import Outcome, Task, run_cli

REL_GATE = 1e-7  # ROADMAP gate on bounds against the recorded reference
SOUND_TOL = 1e-6  # slack for IPM accuracy when comparing a bound with f(x)
SAMPLE_POINTS = 16

BOUND_KEY = {"minimize": "final_bound", "arch-check": "rho", "coercive-check": "delta"}


def summarize(command: str, exit_code: int | None, report: dict | None) -> dict:
    """The recorded outcome of a solve task: what the reference pins down."""
    if report is None:
        return {"exit": exit_code}
    return {
        "exit": exit_code,
        "verdict": report.get("verdict"),
        "orders": [[o["k"], o["status"], o["value"]] for o in report.get("orders", [])],
        "bound": report.get(BOUND_KEY[command]),
        "certificate": report.get("certificate") is not None,
    }


def _close(got, ref) -> bool:
    if got is None or ref is None:
        return got is ref
    return abs(got - ref) <= REL_GATE * (1 + abs(ref))


def compare(got: dict, ref: dict) -> list[str]:
    errs = [f"{key}: got {got.get(key)!r}, expected {ref[key]!r}"
            for key in ("exit", "verdict", "certificate") if got.get(key) != ref[key]]
    g_orders, r_orders = got.get("orders") or [], ref["orders"]
    if [o[:2] for o in g_orders] != [o[:2] for o in r_orders]:
        errs.append(f"orders: got {[o[:2] for o in g_orders]}, expected {[o[:2] for o in r_orders]}")
    else:
        errs += [f"k={g[0]} value {g[2]!r} off reference {r[2]!r}"
                 for g, r in zip(g_orders, r_orders) if not _close(g[2], r[2])]
    if not _close(got.get("bound"), ref["bound"]):
        errs.append(f"bound {got.get('bound')!r} off reference {ref['bound']!r}")
    return errs


class Checker:
    """Checks task outcomes; sample points are drawn once per instance from the run seed."""

    def __init__(self, cli_main, ref: dict, workdir: str, seed: int):
        self.cli_main = cli_main
        self.ref = ref
        self.workdir = workdir
        self.seed = seed
        self._points: dict[str, list] = {}
        self.round_trips = 0

    def check(self, task: Task, out: Outcome) -> list[str]:
        if out.error is not None:
            return [f"exception: {out.error}"]
        report = out.report()
        if report is None:
            return [f"no JSON report (exit {out.exit_code}): {out.stderr.strip()[:200]}"]
        if task.command == "verify":
            passed = (report.get("verification") or {}).get("passed")
            want_code = 0 if task.expect_pass else 2
            if (out.exit_code, passed) != (want_code, task.expect_pass):
                return [f"verify gave exit {out.exit_code}, passed={passed}; expected "
                        f"exit {want_code}, passed={task.expect_pass} ({task.info['corrupt'] or 'valid'})"]
            return []
        errs = compare(summarize(task.command, out.exit_code, report), task.reference)
        errs += self.soundness(task, report)
        if report.get("certificate") is not None:
            errs += self.round_trip(task, out)
        return errs

    def soundness(self, task: Task, report: dict) -> list[str]:
        """Bounds checked against the instance itself, independently of any SDP."""
        inst = self.ref["instances"][task.instance]
        errs = []
        if task.command == "minimize" and report.get("final_bound") is not None:
            bound = report["final_bound"]
            for x in self.points(task.instance):
                fx = polys.evaluate(inst["obj"], x)
                if bound > fx + SOUND_TOL * (1 + abs(fx)):
                    errs.append(f"unsound: bound {bound!r} > f(x) = {fx!r} at {x}")
        if task.command == "arch-check" and report.get("verdict") == "certified":
            rho = report["rho"]
            for x in self.points(task.instance):
                r2 = sum(v * v for v in x)
                if rho < r2 - SOUND_TOL * (1 + r2):
                    errs.append(f"unsound: rho {rho!r} < |x|^2 = {r2!r} at {x}")
        if task.command == "coercive-check" and report.get("verdict") == "certified":
            delta, top = report["delta"], polys.top_form(inst["obj"])
            rng = random.Random(f"sphere-{self.seed}-{task.instance}")
            for _ in range(SAMPLE_POINTS):
                u = [rng.gauss(0.0, 1.0) for _ in range(inst["n"])]
                norm = sum(v * v for v in u) ** 0.5
                u = [v / norm for v in u]
                fu = polys.evaluate(top, u)
                if delta > fu + SOUND_TOL * (1 + abs(fu)):
                    errs.append(f"unsound: delta {delta!r} > f_d(u) = {fu!r} at |u| = 1")
        return errs[:3]

    def points(self, inst_id: str) -> list[list[float]]:
        if inst_id not in self._points:
            rng = random.Random(f"points-{self.seed}-{inst_id}")
            self._points[inst_id] = polys.feasible_points(self.ref["instances"][inst_id], rng, SAMPLE_POINTS)
        return self._points[inst_id]

    def round_trip(self, task: Task, out: Outcome) -> list[str]:
        """The emitted report, certificate included, must pass `popnc verify`."""
        path = os.path.join(self.workdir, "round-trip.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out.stdout)
        self.round_trips += 1
        res = run_cli(self.cli_main, ["verify", path, task.argv[1], "--json"])
        passed = ((res.report() or {}).get("verification") or {}).get("passed")
        if res.exit_code != 0 or passed is not True:
            return [f"certificate failed the verify round trip (exit {res.exit_code}, passed={passed})"]
        return []
