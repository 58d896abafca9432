"""Record the reference outcomes the solve workloads are checked against.

    python3 bench/make_reference.py            # rewrites bench/reference.json

Run it on the commit whose behaviour is the reference.  It runs every pool
instance through the CLI twice, with one BLAS thread (the benchmark's
setting, which gives the recorded outcomes) and with two, each in its own
process, and keeps an instance only when its outcome is reproducible: both
runs agree on exit codes, verdicts and statuses and on every value to 1e-8
relative (a tenth of the checker's gate), and no decision sits near a
tolerance (a stabilization, positivity or verification test within a factor
of 10 of its threshold, or an `unknown` solver status).  Emitted certificates must pass a
`popnc verify` round trip; a failure there is reported and stops the script,
since it is a defect to fix, not an instance to drop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import polys  # noqa: E402
import workloads  # noqa: E402
from checks import summarize  # noqa: E402

AGREE_REL = 1e-8  # a tenth of the checker's 1e-7 gate
MARGIN = 10.0
STAB_TOL, POS_TOL, CERT_TOL = 1e-6, 1e-6, 1e-5  # the CLI defaults


def all_instances() -> dict[str, dict]:
    insts = {**workloads.FIXED, **workloads.pool_instances()}
    for inst in insts.values():
        inst["text"] = polys.problem_text(inst)
    return insts


def worker(threads: str, out_path: str) -> None:
    """Run every (instance, command) in this process; write summaries plus screening data."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from popnc.cli import cli_main

    results = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out_path)) as tmp:
        for inst_id, inst in all_instances().items():
            pop = os.path.join(tmp, "p.pop")
            with open(pop, "w", encoding="utf-8") as fh:
                fh.write(inst["text"])
            for name, argv in workloads.pool_commands(inst_id, inst).items():
                out = workloads.run_cli(cli_main, [argv[0], pop, *argv[1:], "--json"])
                rep = out.report()
                entry = {"summary": summarize(argv[0], out.exit_code, rep), "error": out.error,
                         "seconds": out.seconds}
                if rep is not None:
                    ver = rep.get("verification") or {}
                    entry["residual"] = ver.get("residual")
                    entry["notes"] = rep.get("notes", []) + rep.get("caveats", [])
                    entry["target_l1"] = _target_l1(argv[0], inst)
                    if rep.get("certificate") is not None:
                        rt_path = os.path.join(tmp, "rt.json")
                        with open(rt_path, "w", encoding="utf-8") as fh:
                            fh.write(out.stdout)
                        rt = workloads.run_cli(cli_main, ["verify", rt_path, pop, "--json"])
                        entry["round_trip"] = ((rt.report() or {}).get("verification") or {}).get("passed")
                results[f"{inst_id}:{name}"] = entry
            print(f"[{threads} threads] {inst_id}", file=sys.stderr, flush=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _target_l1(command: str, inst: dict) -> float:
    if command == "minimize":
        return sum(abs(c) for c in inst["obj"].values())
    if command == "arch-check":
        return float(inst["n"])
    return sum(abs(c) for c in polys.top_form(inst["obj"]).values())


def _near(value: float, threshold: float) -> bool:
    return threshold / MARGIN < value < threshold * MARGIN


def screen(a: dict, b: dict) -> str | None:
    """Why a task's outcome is not reproducible, or None."""
    sa, sb = a["summary"], b["summary"]
    if a["error"] or b["error"]:
        return f"exception {a['error'] or b['error']}"
    if sa.get("orders") is None:
        return "no report"
    if {k: v for k, v in sa.items() if k not in ("orders", "bound")} != \
            {k: v for k, v in sb.items() if k not in ("orders", "bound")}:
        return "outcome differs between thread counts"
    if [o[:2] for o in sa["orders"]] != [o[:2] for o in sb["orders"]]:
        return "order statuses differ between thread counts"
    vals = [(o[2], p[2]) for o, p in zip(sa["orders"], sb["orders"])] + [(sa["bound"], sb["bound"])]
    for x, y in vals:
        if (x is None) != (y is None) or (x is not None and abs(x - y) > AGREE_REL * (1 + abs(y))):
            return f"values differ between thread counts: {x!r} vs {y!r}"
    if any(o[1] == "unknown" for o in sa["orders"]):
        return "unknown solver status"
    if any("failed verification" in note for note in a.get("notes", [])):
        return "a certificate failed verification at some order"
    if a.get("residual") is not None and _near(a["residual"], CERT_TOL * (1 + a["target_l1"])):
        return "verification residual near its tolerance"
    values = [o[2] for o in sa["orders"] if o[2] is not None]
    if a["kind"] == "minimize" and any(_near(abs(y - x), STAB_TOL * (1 + abs(y)))
                                       for x, y in zip(values, values[1:])):
        return "stabilization test near its tolerance"
    if a["kind"] == "coercive-check" and any(_near(v, POS_TOL) for v in values):
        return "coercivity value near the positivity tolerance"
    return None


def main() -> int:
    insts = all_instances()
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    runs = {}
    for threads in ("1", "2"):
        out_path = os.path.join(workdir, f"reference-{threads}.json")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, __file__, "--worker", threads, out_path], env=env, check=True)
        with open(out_path, encoding="utf-8") as fh:
            runs[threads] = json.load(fh)

    broken = [key for key, e in runs["1"].items() if e.get("round_trip") is False]
    if broken:
        print(f"emitted certificates fail the verify round trip: {broken}", file=sys.stderr)
        return 1
    rejected: dict[str, str] = {}
    for key, entry in runs["1"].items():
        entry["kind"] = key.split(":")[1]
        why = screen(entry, runs["2"][key])
        if why:
            rejected.setdefault(key.split(":")[0], f"{key}: {why}")
    if any(i in rejected for i in workloads.FIXED):
        print(f"a fixed instance is not reproducible: {rejected}", file=sys.stderr)
        return 1
    kept = {i: v for i, v in insts.items() if i not in rejected}
    ref = {
        "about": "Outcomes of every pool task at the reference commit (1 BLAS thread, as in run.py); "
                 "written by bench/make_reference.py.",
        "rejected": rejected,
        "instances": {i: workloads.encode_instance(v) for i, v in kept.items()},
        "tasks": {key: e["summary"] for key, e in runs["1"].items() if key.split(":")[0] in kept},
    }
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for why in rejected.values():
        print(f"rejected {why}")
    print(f"kept {len(kept)} of {len(insts)} instances")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(sys.argv[2], sys.argv[3])
    else:
        sys.exit(main())
