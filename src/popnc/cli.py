"""Command-line interface.

Subcommands: minimize, arch-check, coercive-check, verify, parse.
Exit codes: 0 success/certified, 2 inconclusive (or failed verification),
3 input error, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .certificates import (
    DEFAULT_RESIDUAL_TOL,
    CertificateError,
    certificate_from_payload,
    claimed_statement,
    format_certificate,
    verify_certificate,
)
from .polynomial import NumberError, read_number, write_number
from .problem_io import (
    ParseError,
    PopProblem,
    ProblemFormatError,
    emit_report,
    parse_problem,
)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 3), not "inconclusive" (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"popnc: input error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _number_flag(text: str) -> float:
    """The value of --c, --margin or --tol, read as a ``c:`` line reads it.
    "inf" and "nan" pass as floats, for the problem check (or ``_tol_flag``)
    to refuse as not finite."""
    try:
        return read_number(text, False)
    except NumberError as exc:
        if text.strip().lstrip("+-").lower() in ("inf", "infinity", "nan"):
            return float(text)
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tol_flag(text: str) -> float:
    """The value of --tol, read as --c is: a finite number >= 0.  0 is
    exact: ``verify --tol 0`` demands an exact identity."""
    value = _number_flag(text)
    if not 0 <= value < float("inf"):  # NaN too
        raise argparse.ArgumentTypeError(f"{text.strip()} is not a finite number >= 0")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="popnc",
        description=(
            "Certified lower bounds for polynomial minimization over "
            "semi-algebraic sets, with numerical Archimedean and coercivity tests."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, solve=True, tol=True):  # solve: the order range and --dump-sdp
        p.add_argument("problem", help="problem file (see README for the format)")
        if solve:
            p.add_argument("--k-max", type=int, default=None,
                           help="highest relaxation order to try")
            p.add_argument("--k-start", type=int, default=None,
                           help="first relaxation order (defaults to the minimal valid order)")
            p.add_argument("--dump-sdp", metavar="DIR", default=None,
                           help="write each order's SDP in the debug dump format to DIR")
        if tol:
            p.add_argument("--tol", type=_tol_flag, default=None,
                           help="main tolerance of the subcommand (stabilization, "
                                "positivity or verification depending on the command)")
        p.add_argument("--c", type=_number_flag, default=None, help="override the level bound c")
        p.add_argument("--margin", type=_number_flag, default=None,
                       help="override the margin used when c is derived from x0")
        p.add_argument("--json", action="store_true", help="emit the full report as JSON on stdout")

    common(sub.add_parser("minimize", help="run the lower-bound hierarchy"))
    common(sub.add_parser("arch-check", help="certify the Archimedean property numerically"))
    common(sub.add_parser("coercive-check", help="certify coercivity of the objective"))

    pv = sub.add_parser("verify", help="verify a certificate file against a problem file")
    pv.add_argument("certificate", help="certificate JSON file (report payload schema)")
    common(pv, solve=False)

    pp = sub.add_parser("parse", help="validate a problem file and print a summary")
    common(pp, solve=False, tol=False)
    return ap


def _load_problem(args) -> PopProblem:
    with open(args.problem, "r", encoding="utf-8") as fh:
        text = fh.read()
    problem = parse_problem(text)
    if getattr(args, "margin", None) is not None:
        problem.margin = args.margin
    if getattr(args, "c", None) is not None:
        problem.c = args.c
        problem.x0 = None
    problem.validate()
    return problem


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(emit_report(payload))
    else:
        for line in human_lines:
            print(line)


def cli_main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ProblemFormatError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"popnc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (*_solver_errors(), CertificateError, ArithmeticError) as exc:
        print(f"popnc: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"popnc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _solver_errors() -> tuple[type[Exception], ...]:
    """SdpStructureError once the solver is loaded; only a solve command loads it."""
    sdp = sys.modules.get(f"{__package__}.sdp")
    return (sdp.SdpStructureError,) if sdp else ()


def _dispatch(args) -> int:
    if args.command == "parse":
        problem = _load_problem(args)
        _emit(args, {"command": "parse", "problem": problem.to_payload()},
              [f"ok: {len(problem.variables)} variables, "
               f"{len(problem.inequalities)} inequalities, "
               f"{len(problem.equalities)} equalities, c = {float(problem.resolved_c()):g}"])
        return EXIT_OK

    if args.command in _SOLVE_COMMANDS:
        return _run_solve_command(args)

    if args.command == "verify":
        problem = _load_problem(args)
        with open(args.certificate, "r", encoding="utf-8") as fh:
            payload_in = json.load(fh)
        if isinstance(payload_in, dict) and "certificate" in payload_in:  # a whole report
            if payload_in["certificate"] is None:
                print("popnc: input error: the report carries no certificate "
                      f"(verdict: {payload_in.get('verdict')})", file=sys.stderr)
                return EXIT_INPUT
            payload_in = payload_in["certificate"]
        if not isinstance(payload_in, dict) or "num_vars" not in payload_in:
            print(f"popnc: input error: {args.certificate} holds no certificate: neither "
                  "a certificate payload nor a report with one", file=sys.stderr)
            return EXIT_INPUT
        cert = certificate_from_payload(payload_in)
        claim = claimed_statement(cert, problem)
        result = verify_certificate(cert, claim, tol=args.tol if args.tol is not None else DEFAULT_RESIDUAL_TOL)
        # the report names the checked payload by its family, order and lambda; it
        # does not echo the payload
        verification = {**result.to_payload(), "family": cert.family, "order": cert.order,
                        "lambda": write_number(cert.lam)}
        cert.residual = result.residual  # print the recomputed residual, not the payload's claim
        _emit(args, {"command": "verify", "problem": problem.to_payload(), "verification": verification},
              [] if args.json else [
                  f"residual: {float(result.residual):.6e}",
                  f"min Gram eigenvalue: {result.min_gram_eig:.3e}",
                  "verification: PASS" if result.passed else "verification: FAIL",
                  format_certificate(cert),
              ])
        return EXIT_OK if result.passed else EXIT_INCONCLUSIVE

    raise ProblemFormatError(f"unknown command {args.command!r}")


# command -> (driver routine, looked up in the module when the command runs;
#             the routine's parameter that --tol sets; label of each order's value;
#             lines printed when the report carries a bound)
_SOLVE_COMMANDS = {
    "minimize": ("minimize", "stab_tol", "",
                 "final bound: {bound:.9g}\ncertificate residual: {residual:.3e} ({check})"),
    "arch-check": ("check_archimedean", "cert_tol", "rho = ",
                   "Archimedean certified at k={order} with N = {bound:.9g}"),
    "coercive-check": ("check_coercive", "pos_tol", "rho = ",
                       "coercive: top form >= {bound:.9g} * |x|^d  (k={order})"),
}


def _run_solve_command(args) -> int:
    from . import driver  # the builder and the solver load with it, on this path only

    routine, tol_keyword, value_label, bound_lines = _SOLVE_COMMANDS[args.command]
    problem = _load_problem(args)
    subject = problem.objective if args.command == "coercive-check" else problem
    options = {"k_max": args.k_max, tol_keyword: args.tol}
    report = getattr(driver, routine)(
        subject, k_start=args.k_start, dump_dir=args.dump_sdp,
        **{key: value for key, value in options.items() if value is not None},
    )
    lines = [f"verdict: {report.verdict}"]
    lines += [f"  k={o.order}: {value_label}{o.value_repr}" for o in report.orders]
    if report.bound is not None:  # a bound always comes with its verification
        ver = report.verification
        lines += bound_lines.format(bound=report.bound, order=report.order, residual=float(ver.residual),
                                    check="ok" if ver.passed else "FAILED").splitlines()
    lines += [f"note: {note}" for note in report.notes]
    _emit(args, {"problem": problem.to_payload(), **report.to_payload()}, lines)
    return EXIT_OK if report.verdict in ("stabilized", "certified") else EXIT_INCONCLUSIVE


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``popnc ... | head``): stdout goes
        # to devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
