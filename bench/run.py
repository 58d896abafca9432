"""popnc benchmark: seeded workloads through the real CLI entry point.

    python3 bench/run.py --workload small-suite --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One client runs the workload's tasks in a closed loop, in this process, each
task a `popnc <command> ...` call through `popnc.cli.cli_main`.  A pass runs
every task once; passes repeat until --seconds of passes are measured.  Every
output is checked (see checks.py).  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of tracing.py; the last stdout line is the
JSON result.  --workload all runs each workload in a fresh process and
prints their reports.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pin the BLAS thread count before numpy loads, identical on every commit
# measured.  One thread: with two, dense-n6 task times varied about twice as
# much from run to run on a 2-CPU machine, and small-suite ran slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import polys  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402

SETUP_PROBES = 3
# Host-speed calibration.  This benchmark was built on a VM whose CPU speed
# drifted by up to a third, in phases lasting from seconds to minutes, so that
# two sets of ten runs differed by 10-30% in every time metric.  The times of
# the interpreter-bound workloads are therefore scaled to a host on which the
# calibration kernel takes CALIBRATION_REF_S, using kernel timings taken
# before and after every CALIBRATE_EVERY_S of measured work; the raw times
# are kept in the result file.  dense-n6 is BLAS-bound and slowed far less
# than the kernel in the host's slow phases, so scaling made its spread worse
# (0.14 against 0.07 over ten runs): its pass and task times stay raw.  Set-up
# (imports, writing inputs, warm-up) is interpreter-bound on every workload
# and is always scaled.
CALIBRATION_REF_S = 0.04
CALIBRATE_EVERY_S = 2.0
HOST_SCALED = {"small-suite": True, "dense-n6": False, "verify-replay": True}
SMOKE_TASKS = {"small-suite": 6, "dense-n6": 1, "verify-replay": 6}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_s.p50", "s"), ("task_s.p90", "s"),
              ("peak_rss_mb", "MB")]


def import_popnc():
    """popnc from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import popnc.cli
    import popnc.driver

    if not os.path.abspath(popnc.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"popnc was not loaded from {SRC}")
    return popnc.cli, popnc.driver


def setup(args, workdir: str):
    """Import popnc, write the seeded inputs, warm up."""
    cli_mod, driver_mod = import_popnc()
    ref = workloads.load_reference()
    tasks = workloads.make_tasks(args.workload, args.seed, workdir, ref)
    if args.smoke:
        tasks = tasks[:SMOKE_TASKS[args.workload]]
    workloads.warm_up(cli_mod.cli_main, ref, workdir)
    return cli_mod, driver_mod, ref, tasks


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the point its first timed task would start."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def _kernel() -> float:
    """Seconds for a fixed mix of the work popnc does: Fraction and dict
    arithmetic in the interpreter and small eigenproblems in BLAS.  Its
    arrays are small, so it adds nothing measurable to peak_rss_mb."""
    import numpy as np
    from fractions import Fraction

    a = np.random.default_rng(0).standard_normal((120, 120))
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(6000):
        key = (i % 89, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 6 + 1) * (i % 4)
    for _ in range(25):
        np.linalg.eigvalsh(a @ a.T)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of three kernel timings."""
    return statistics.median(_kernel() for _ in range(3))


def host_scale(before: float, after: float) -> float:
    """Factor that maps seconds measured between two calibrations to the reference host."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "popnc"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "popnc", name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "src_popnc_lines": lines}


def descriptors(task: workloads.Task, ref: dict, sizes: list[dict] | None) -> dict:
    """What each task ran on, recorded beside its timings."""
    if task.command == "verify":
        return task.info
    inst = ref["instances"][task.instance]
    flips = polys.sign_flips([inst["obj"], *inst["ineq"], *inst["eq"]], inst["n"])
    d = {"n": inst["n"], "k": [o[0] for o in task.reference["orders"]],
         "eq": bool(inst["eq"]), "sign_flips": flips, "sign_symmetric": bool(flips)}
    if sizes is not None:
        d["sdps"] = sizes
    return d


def measure_alloc(task, cli_mod, driver_mod):
    """The task run alone with tracemalloc on its solves; returns (outcome,
    peak MB).  tracemalloc slows Python-heavy solves several-fold, so it stays
    out of the timed passes."""
    probe = tracing.Tracer(alloc=True)
    probe.install(cli_mod, driver_mod)
    try:
        out = workloads.run_cli(lambda argv: probe.run_task(task.id, cli_mod.cli_main, argv), task.argv)
    finally:
        probe.restore()
    return out, probe.peak_alloc_mb()


def run_workload(args) -> int:
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    cli_mod, driver_mod, ref, tasks = setup(args, workdir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    cal_setup = [calibrate()]
    setup_raw = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        setup_raw.append(probe_setup(args))
        cal_setup.append(calibrate())
    setup_samples = [t * host_scale(c0, c1) for t, c0, c1 in zip(setup_raw, cal_setup, cal_setup[1:])]

    tracer = tracing.Tracer() if args.trace else None
    checker = Checker(cli_mod.cli_main, ref, workdir, args.seed)
    walls: dict[bool, list[float]] = {False: [], True: []}  # host-scaled, per pass
    raw_walls: list[float] = []
    cal = [calibrate()]
    samples: dict[str, list[float]] = {t.id: [] for t in tasks}  # host-scaled task times
    failures: list[str] = []
    attempted = failed = 0

    def record(task, out):
        nonlocal attempted, failed
        errs = checker.check(task, out)
        attempted, failed = attempted + 1, failed + bool(errs)
        failures.extend(f"{task.id}: {e}" for e in errs)

    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install(cli_mod, driver_mod)
        outcomes: list[workloads.Outcome] = []
        scales: list[float] = []
        try:
            for t in tasks:
                call = (lambda a, t=t: tracer.run_task(t.id, cli_mod.cli_main, a)) if traced else cli_mod.cli_main
                outcomes.append(workloads.run_cli(call, t.argv))
                pending = outcomes[len(scales):]
                if sum(o.seconds for o in pending) >= CALIBRATE_EVERY_S or t is tasks[-1]:
                    cal.append(calibrate())
                    scale = host_scale(cal[-2], cal[-1]) if HOST_SCALED[args.workload] else 1.0
                    scales += [scale] * len(pending)
        finally:
            if traced:
                tracer.restore()
        # a pass's wall time is the sum of its task times: calibrations run between tasks
        raw_walls.append(sum(o.seconds for o in outcomes))
        walls[traced].append(sum(o.seconds * f for o, f in zip(outcomes, scales)))
        for task, out, scale in zip(tasks, outcomes, scales):
            if not traced:
                samples[task.id].append(out.seconds * scale)
            record(task, out)
        if sum(raw_walls) >= args.seconds and (not args.trace or walls[True]):
            break

    env = environment()
    wall_s = statistics.median(walls[False])
    # Percentiles over every task run; with fewer than 10 tasks per pass
    # (dense-n6) over each task's median instead, so p50 and p90 are task times.
    if len(tasks) < 10:
        task_times = [statistics.median(v) for v in samples.values()]
    else:
        task_times = [s for v in samples.values() for s in v]
    if args.trace:
        sizes = tracer.task_sizes()
        peak = 0.0
        if sizes:  # memory of the task that built the largest SDP (rows x sum d^2)
            big = max(sizes, key=lambda tid: max(b["rows"] * sum(d * d for d in b["dims"]) for b in sizes[tid]))
            task = next(t for t in tasks if t.id == big)
            out, peak = measure_alloc(task, cli_mod, driver_mod)
            record(task, out)
        overhead = statistics.median(walls[True]) - wall_s
        values = tracer.layer_metrics(len(walls[True]), overhead, peak)
        units = dict(tracing.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "task_s.p50": percentile(task_times, 50),
            "task_s.p90": percentile(task_times, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        sizes = {}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    per_task = {t.id: {"seconds": samples[t.id], "argv": t.argv[:1] + [os.path.basename(a) for a in t.argv[1:]],
                       **descriptors(t, ref, sizes.get(t.id) if args.trace else None)} for t in tasks}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "loop": "closed, 1 client", "tasks_per_pass": len(tasks), "passes": len(walls[False]),
        "traced_passes": len(walls[True]), "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "raw_pass_wall_s": raw_walls, "calibration_s": cal, "calibration_ref_s": CALIBRATION_REF_S,
        "setup_samples_s": setup_samples, "raw_setup_s": setup_raw, "setup_calibration_s": cal_setup,
        "attempted": attempted, "failed": failed,
        "failures": failures, "round_trips": checker.round_trips, "metrics": metrics, "tasks": per_task,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print_report(detail)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_report(d: dict) -> None:
    n = d["tasks_per_pass"]
    print(f"workload {d['workload']}  seed {d['seed']}  {d['loop']}  {n} tasks per pass  "
          f"{d['passes']} passes (+{d['traced_passes']} traced)")
    for name, m in d["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(d['setup_samples_s'])} fresh processes"
        elif name == "wall_s":
            note = f"median of {d['passes']} passes, {n} tasks each"
        if m["unit"] == "s" and not d["trace"] and (name == "setup_s" or HOST_SCALED[d["workload"]]):
            note += " (host-scaled)"
        elif name.startswith("task_s"):
            runs = sum(len(t["seconds"]) for t in d["tasks"].values())
            note = (f"nearest rank over {runs} task runs" if n >= 10 else
                    f"nearest rank over the {n} task medians ({runs} task runs)")
        print(f"  {name:28s} {m['value']:12.6g} {m['unit']:6s} {note}")
    ratio = d["failed"] / d["attempted"]
    print(f"  {'failed_ratio':28s} {ratio:12.6g} {'ratio':6s} {d['failed']} of {d['attempted']} task runs")
    if n < 10:
        for tid, t in d["tasks"].items():
            if t["seconds"]:
                print(f"  task {tid:26s} {statistics.median(t['seconds']):12.6g} s      "
                      f"median of {len(t['seconds'])}")
    cal = d["calibration_s"]
    print(f"  calibration kernel {statistics.median(cal):.4f} s median of {len(cal)} "
          f"(reference {d['calibration_ref_s']} s); raw pass walls "
          + " ".join(f"{w:.3f}" for w in d["raw_pass_wall_s"]))
    print("  env " + json.dumps(d["env"]))


def run_all(args) -> int:
    """Each workload in a fresh process; their reports in turn."""
    code = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few tasks only (self-tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (ImportError, OSError, RuntimeError, KeyError, ValueError) as exc:
        print(f"bench: cannot run {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
