"""Orchestration of the three SDP hierarchies over increasing order.

Each routine describes its family of membership programs as a
`HierarchySpec` and hands it to `run_hierarchy`, which solves them for
k = k_start..k_max, records a per-order outcome, and attaches a verified
certificate to any positive verdict.  The boundedness and coercivity tests
are one-sided: they certify or come back inconclusive, never refute.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .builder import (
    build_archimedean_check,
    build_coercivity_check,
    build_hierarchy_step,
    extract_certificate,
)
from .certificates import (
    DEFAULT_RESIDUAL_TOL,
    ModuleCertificate,
    VerificationResult,
    statement,
    verify_certificate,
)
from .polynomial import Polynomial
from .problem_io import PopProblem
from .sdp import SdpProblem, SdpSolution, Status, dump_sdp, solve

DEFAULT_K_MAX = 6
DEFAULT_STAB_TOL = 1e-6
DEFAULT_POS_TOL = 1e-6

_ARCH_CAVEAT = (
    "convergence of the bounds to the global minimum is guaranteed only when "
    "the quadratic module of (g; h; c - f) is Archimedean; run arch-check to test this"
)
_STOP_RULE_NOTE = (
    "stopping rule: bound stabilized over two consecutive orders (heuristic; "
    "finite convergence holds generically but carries no computable stopping test)"
)


@dataclass
class OrderOutcome:
    """One order's solve, with the size of the SDP it solved: ``sign_flips``
    is the basis of the sign flips its program was reduced by."""

    order: int
    status: str
    value: float | None = None
    iterations: int = 0
    message: str = ""
    block_dims: list[int] = field(default_factory=list)
    rows: int = 0
    free_vars: int = 0
    sign_flips: list[list[int]] = field(default_factory=list)

    @classmethod
    def of(cls, order: int, sol: SdpSolution, sdp_prob: SdpProblem) -> OrderOutcome:
        value = sol.obj_primal if sol.status is Status.OPTIMAL else None
        return cls(order, sol.status.value, value, sol.iterations, sol.message,
                   list(sdp_prob.block_dims), len(sdp_prob.b), sdp_prob.num_free,
                   [list(flip) for flip in sdp_prob.meta.sign_flips])

    @property
    def value_repr(self) -> str:
        if self.value is not None:
            return f"{self.value:.9g}"
        if self.status == Status.PRIMAL_INFEASIBLE.value:
            return "+inf (infeasible)"
        if self.status == Status.DUAL_INFEASIBLE.value:
            return "unbounded"
        return self.status

    def to_payload(self) -> dict:
        return {"k": self.order, "status": self.status, "value": self.value,
                "value_repr": self.value_repr, "iterations": self.iterations,
                "message": self.message, "block_dims": self.block_dims, "rows": self.rows,
                "free_vars": self.free_vars, "sign_flips": self.sign_flips}


# command -> {payload key: report attribute} for the keys that differ by command
_PAYLOAD_KEYS = {
    "minimize": {"final_bound": "bound", "bounds": "bounds", "caveats": "notes"},
    "arch-check": {"rho": "bound", "certified_order": "order", "notes": "notes"},
    "coercive-check": {"delta": "bound", "certified_order": "order", "notes": "notes"},
}


@dataclass
class HierarchyReport:
    """Outcome of one hierarchy sweep, whichever command ran it.

    ``bound`` and ``order`` are the certified value and its order; for
    minimize they are the last optimal order's, whether or not its
    certificate verified.  ``notes`` are minimize's caveats.
    """

    command: str  # minimize | arch-check | coercive-check
    orders: list[OrderOutcome]
    # minimize: stabilized | reached_max_order | infeasible_at_all_orders;
    # the tests: certified | inconclusive | not_applicable
    verdict: str
    bound: float | None = None
    order: int | None = None
    certificate: ModuleCertificate | None = None
    verification: VerificationResult | None = None
    notes: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def final_bound(self) -> float | None:
        return self.bound

    @property
    def caveats(self) -> list[str]:
        return self.notes

    @property
    def bounds(self) -> list[float]:
        return [o.value for o in self.orders if o.value is not None]

    def to_payload(self) -> dict:
        return {
            "command": self.command,
            "orders": [o.to_payload() for o in self.orders],
            "verdict": self.verdict,
            **{key: getattr(self, attr) for key, attr in _PAYLOAD_KEYS[self.command].items()},
            # coercive-check tests the objective, and its report says so
            **({"subject": "objective"} if self.command == "coercive-check" else {}),
            "certificate": None if self.certificate is None else self.certificate.to_payload(),
            "verification": None if self.verification is None else self.verification.to_payload(),
            "timing_s": self.elapsed_s,
        }


@dataclass
class HierarchySpec:
    """One hierarchy: the program built at order k and when the sweep stops.

    With ``certify_if``, each optimal order whose value passes it is certified
    on the spot; the sweep stops at the first certificate that verifies and
    notes ``fail_note`` for the others.  With ``stab_tol``, the sweep stops
    once the value is stable over two consecutive orders, and only the last
    optimal order is certified, after the sweep.
    """

    command: str
    build: Callable[[int], SdpProblem]
    k_min: int
    k_start: int | None = None
    k_max: int = DEFAULT_K_MAX
    certify_if: Callable[[float], bool] | None = None
    fail_note: str = ""
    stab_tol: float | None = None
    cert_tol: float = DEFAULT_RESIDUAL_TOL
    notes: list[str] = field(default_factory=list)


def _stabilized(orders: list[OrderOutcome], tol: float) -> bool:
    """|f_k - f_prev| <= tol * (1 + |f_k|) at each of the last two orders,
    both optimal, f_prev being the optimal value before f_k."""
    vals = [o.value for o in orders if o.value is not None]
    return (len(vals) >= 3 and orders[-1].value is not None and orders[-2].value is not None
            and all(abs(b - a) <= tol * (1 + abs(b)) for a, b in zip(vals[-3:], vals[-2:])))


def _certify(sol: SdpSolution, program, tol: float) -> tuple[ModuleCertificate, VerificationResult]:
    cert = extract_certificate(sol, program)
    result = verify_certificate(cert, program.statement, tol=tol)
    cert.residual = result.residual
    return cert, result


def run_hierarchy(
    spec: HierarchySpec,
    dump_dir: str | None = None,
) -> HierarchyReport:
    """Solve the spec's programs for k = max(k_min, k_start)..k_max.

    Solver failures at an order are recorded and the sweep continues; nothing
    raises.
    """
    t0 = time.perf_counter()
    report = HierarchyReport(spec.command, [], "inconclusive", notes=list(spec.notes))
    k0 = spec.k_min if spec.k_start is None else max(spec.k_min, spec.k_start)
    if k0 > spec.k_max:
        first = "minimal" if k0 == spec.k_min else "starting"
        report.notes.append(f"k_max={spec.k_max} is below the {first} order {k0}; nothing solved")
    last = None  # (k, solution, program) of the last optimal order
    for k in range(k0, spec.k_max + 1):
        sdp_prob = spec.build(k)
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            dump_sdp(sdp_prob, os.path.join(dump_dir, f"{sdp_prob.meta.family}_k{sdp_prob.meta.order}.sdp"))
        sol = solve(sdp_prob)
        report.orders.append(OrderOutcome.of(k, sol, sdp_prob))
        if sol.status is not Status.OPTIMAL:
            continue
        last = (k, sol, sdp_prob.meta)
        if spec.certify_if is not None and spec.certify_if(sol.obj_primal):
            cert, ver = _certify(sol, sdp_prob.meta, spec.cert_tol)
            if ver.passed:
                report.verdict = "certified"
                report.bound, report.order = sol.obj_primal, k
                report.certificate, report.verification = cert, ver
                break
            report.notes.append(f"order {k}: {spec.fail_note}")
        if spec.stab_tol is not None and _stabilized(report.orders, spec.stab_tol):
            report.verdict = "stabilized"
            break

    if spec.stab_tol is not None:
        if report.verdict != "stabilized":
            infeasible = report.orders and all(
                o.status == Status.PRIMAL_INFEASIBLE.value for o in report.orders)
            report.verdict = "infeasible_at_all_orders" if infeasible else "reached_max_order"
        if last is not None:
            k, sol, program = last
            report.bound, report.order = sol.obj_primal, k
            report.certificate, report.verification = _certify(sol, program, spec.cert_tol)
            if not report.verification.passed:
                report.notes.append("certificate at the final order failed independent verification")
    report.elapsed_s = time.perf_counter() - t0
    return report


def minimize(
    problem: PopProblem,
    k_start: int | None = None,
    k_max: int = DEFAULT_K_MAX,
    stab_tol: float = DEFAULT_STAB_TOL,
    arch_report: HierarchyReport | None = None,
    dump_dir: str | None = None,
) -> HierarchyReport:
    """Run the lower-bound hierarchy; the bounds f_k are non-decreasing in k.

    Stops early once |f_k - f_{k-1}| <= stab_tol * (1 + |f_k|) holds for two
    consecutive orders.
    """
    caveats = [_STOP_RULE_NOTE]
    if arch_report is None:
        caveats.append(_ARCH_CAVEAT)
    elif arch_report.verdict != "certified":
        caveats.append("arch-check was inconclusive; " + _ARCH_CAVEAT)
    spec = HierarchySpec(
        "minimize", lambda k: build_hierarchy_step(problem, k),
        statement("hierarchy", problem).min_order(), k_start, k_max,
        stab_tol=stab_tol, notes=caveats,
    )
    return run_hierarchy(spec, dump_dir)


def check_archimedean(
    problem: PopProblem,
    k_max: int = DEFAULT_K_MAX,
    cert_tol: float = DEFAULT_RESIDUAL_TOL,
    dump_dir: str | None = None,
    k_start: int | None = None,
) -> HierarchyReport:
    """Certify that the quadratic module of (g; h; c - f) is Archimedean.

    Solves rho_k = inf{lambda : lambda - |x|^2 in M_k} for increasing k and
    certifies at the first finite value whose certificate verifies.  The test
    is one-sided: failure at every order is inconclusive, not a refutation
    (an infeasible order means rho_k = +inf there).
    """
    spec = HierarchySpec(
        "arch-check", lambda k: build_archimedean_check(problem, k),
        statement("archimedean", problem).min_order(), k_start, k_max,
        certify_if=lambda value: True,
        fail_note="optimal value found but certificate failed verification", cert_tol=cert_tol,
    )
    return run_hierarchy(spec, dump_dir)


def _diagonal_top_form(f: Polynomial) -> bool:
    """True when f = sum a_i x_i^(2d) + lower order with every a_i > 0."""
    d = f.degree()
    if d == 0 or d % 2:
        return False
    top = f.top_component()
    seen = set()
    for mono, coeff in top.terms.items():
        nz = [i for i, e in enumerate(mono) if e]
        if len(nz) != 1 or coeff <= 0:
            return False
        seen.add(nz[0])
    return len(seen) == f.num_vars


def _not_applicable(note: str) -> HierarchyReport:
    return HierarchyReport("coercive-check", [], "not_applicable", notes=[note])


def check_coercive(
    f: Polynomial,
    k_max: int = DEFAULT_K_MAX,
    pos_tol: float = DEFAULT_POS_TOL,
    dump_dir: str | None = None,
    k_start: int | None = None,
) -> HierarchyReport:
    """Certify coercivity by bounding the top homogeneous form below on the sphere.

    Solves rho_k = sup{mu : f_d - mu in M_k(|x|^2 - 1)} for k = deg(f)/2..k_max
    and certifies once rho_k > pos_tol with a verified witness.  Odd-degree,
    constant and zero inputs cannot be coercive: not_applicable.
    """
    if f.is_zero():
        return _not_applicable("zero polynomial")
    d = f.degree()
    if d == 0:
        return _not_applicable("constant polynomial")
    if d % 2:
        return _not_applicable("odd degree: a coercive polynomial has even degree")
    notes = []
    if _diagonal_top_form(f):
        notes.append("top form is a positive diagonal form; minimal order expected to certify")
    spec = HierarchySpec(
        "coercive-check", lambda k: build_coercivity_check(f, k),
        statement("coercivity", f).min_order(), k_start, k_max,
        certify_if=lambda value: value > pos_tol,
        fail_note="positive value but certificate failed verification", notes=notes,
    )
    return run_hierarchy(spec, dump_dir)

