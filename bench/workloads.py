"""The three benchmark workloads: their inputs, tasks and expected outcomes.

A task is one `popnc <command> ...` call through `popnc.cli.cli_main`.  Solve
tasks (small-suite, dense-n6) run on instances drawn from a fixed pool whose
expected outcomes were recorded by `make_reference.py`; the run seed chooses
the instances and their order.  verify-replay builds fresh certificates from
the seed, valid or corrupted by construction, so its expected outcome needs
no reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass

import polys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

WORKLOADS = ("small-suite", "dense-n6", "verify-replay")

# Per-instance commands: task name -> argv, with the problem file inserted
# after the command word and --json appended.
SMALL_COMMANDS = {
    "minimize": ["minimize", "--k-max", "3"],
    "arch-check": ["arch-check", "--k-max", "3"],
    "coercive-check": ["coercive-check", "--k-max", "3"],
}
EX31_EXTRA = {"minimize-k6": ["minimize", "--k-start", "4", "--k-max", "6"]}
DENSE_COMMANDS = {  # coercive-check first: the smoke run keeps only the shorter task
    "coercive-check": ["coercive-check", "--k-max", "3"],
    "minimize": ["minimize", "--k-start", "3", "--k-max", "3"],
}

SMALL_CELLS = [(n, sym, eq) for n in (2, 3, 4) for sym in (True, False) for eq in (True, False)]
SMALL_PER_CELL = 3  # instances drawn per cell and run: 12 cells x 3 x 3 commands + 7 fixed = 115 tasks

REPLAY_CELLS = [(n, k, exact) for n in (3, 4, 5, 6) for k in (2, 3) for exact in (False, True)]
# per cell: two valid certificates and one corrupted; the corruption kind alternates
# over the cells like a checkerboard
REPLAY_PER_CELL = ("valid", "valid", "corrupt")


def n2(*powers):
    return polys.mono(2, *powers)


# EX31 and the sextic of tests/conftest.py
FIXED = {
    "ex31": {"n": 2, "obj": {n2((0, 2)): 1.0, n2(): 1.0},
             "ineq": [{n2(): 1.0, n2((1, 2)): -1.0}, {n2((1, 2)): 1.0, n2(): -0.25}],
             "eq": [], "c": 2.0, "sym": True, "with_eq": False, "pool": "fixed"},
    "sextic": {"n": 2, "obj": {n2((0, 6)): 1.0, n2((1, 6)): 1.0, n2((0, 3), (1, 3)): -1.0,
                               n2((0, 4)): 1.0, n2((1, 1)): -1.0, n2(): 1.0},
               "ineq": [], "eq": [], "x0": [0.0, 0.0], "margin": 1.0, "sym": False, "with_eq": False,
               "pool": "fixed"},
}


@dataclass
class Task:
    id: str
    argv: list[str]
    command: str
    instance: str | None = None  # pool or fixed instance id (solve tasks)
    reference: dict | None = None  # recorded outcome (solve tasks)
    expect_pass: bool | None = None  # expected verify verdict (verify-replay)
    info: dict | None = None  # descriptors of a replay case


@dataclass
class Outcome:
    exit_code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None

    def report(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


def run_cli(cli_main, argv: list[str]) -> Outcome:
    """One closed-loop task: call the CLI entry point and time it."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed task, recorded, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0, error)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        ref = json.load(fh)
    for inst in ref["instances"].values():
        decode_instance(inst)
    return ref


def encode_instance(inst: dict) -> dict:
    enc = dict(inst)
    for key in ("ineq", "eq"):
        enc[key] = [[[list(m), c] for m, c in p.items()] for p in inst[key]]
    enc["obj"] = [[list(m), c] for m, c in inst["obj"].items()]
    return enc


def decode_instance(enc: dict) -> dict:
    for key in ("ineq", "eq"):
        enc[key] = [{tuple(m): c for m, c in p} for p in enc[key]]
    enc["obj"] = {tuple(m): c for m, c in enc["obj"]}
    return enc


def pool_instances() -> dict[str, dict]:
    """The fixed instance pool the reference outcomes were recorded on.

    The n = 6 instances are one quartic with its variables relabelled and
    sign-flipped: separately generated quartics took from 10.7 to 13.8 s for
    the same `minimize` task, which made the seed, not the program, the
    largest source of spread in dense-n6 timings.
    """
    pool = {}
    for n, sym, eq in SMALL_CELLS:
        for j in range(8):
            rng = random.Random(f"small-{n}-{int(sym)}-{int(eq)}-{j}")
            inst = polys.small_instance(rng, n, sym, eq)
            pool[f"s{n}{'S' if sym else 'N'}{'E' if eq else 'I'}-{j}"] = {**inst, "pool": "small"}
    base = polys.dense_instance(random.Random("dense-0"))
    for j in range(8):
        pool[f"d6-{j}"] = {**polys.relabel(base, random.Random(f"dense-{j}")), "pool": "dense"}
    return pool


def pool_commands(inst_id: str, inst: dict) -> dict[str, list[str]]:
    if inst["pool"] == "dense":
        return DENSE_COMMANDS
    if inst_id == "ex31":
        return {**SMALL_COMMANDS, **EX31_EXTRA}
    return SMALL_COMMANDS


def _solve_tasks(ids: list[str], ref: dict, workdir: str) -> list[Task]:
    tasks = []
    for inst_id in ids:
        inst = ref["instances"][inst_id]
        path = os.path.join(workdir, f"{inst_id}.pop")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst["text"])
        for name, argv in pool_commands(inst_id, inst).items():
            key = f"{inst_id}:{name}"
            tasks.append(Task(key, [argv[0], path, *argv[1:], "--json"], argv[0],
                              instance=inst_id, reference=ref["tasks"][key]))
    return tasks


def make_tasks(workload: str, seed: int, workdir: str, ref: dict) -> list[Task]:
    """Write the seeded inputs into workdir and return the workload's tasks."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "small-suite":
        ids = ["ex31", "sextic"]
        for n, sym, eq in SMALL_CELLS:
            cell = sorted(i for i, v in ref["instances"].items()
                          if (v["pool"], v["n"], v["sym"], v["with_eq"]) == ("small", n, sym, eq))
            ids += rng.sample(cell, SMALL_PER_CELL)
        tasks = _solve_tasks(ids, ref, workdir)
        rng.shuffle(tasks)
        return tasks
    if workload == "dense-n6":
        dense = sorted(i for i, v in ref["instances"].items() if v["pool"] == "dense")
        return _solve_tasks([rng.choice(dense)], ref, workdir)
    if workload == "verify-replay":
        tasks = []
        for n, k, exact in REPLAY_CELLS:
            for j, kind in enumerate(REPLAY_PER_CELL):
                corrupt = None if kind == "valid" else ("indefinite", "coefficient")[(n + k + exact) % 2]
                tasks.append(write_replay_case(workdir, f"r{n}{k}{'Q' if exact else 'F'}-{j}",
                                               rng.randrange(2**32), n, k, exact, corrupt))
        rng.shuffle(tasks)
        return tasks
    raise ValueError(f"unknown workload {workload!r}")


def write_replay_case(workdir: str, name: str, seed: int, n: int, k: int, exact: bool,
                      corrupt: str | None) -> Task:
    inst, payload = polys.replay_case(seed, n, k, exact, corrupt)
    pop, cert = os.path.join(workdir, f"{name}.pop"), os.path.join(workdir, f"{name}.cert.json")
    with open(pop, "w", encoding="utf-8") as fh:
        fh.write(polys.problem_text(inst))
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return Task(name, ["verify", cert, pop, "--json"], "verify", expect_pass=corrupt is None,
                info={"n": n, "k": k, "exact": exact, "corrupt": corrupt})


def warm_up(cli_main, ref: dict, workdir: str) -> None:
    """Run each command once on small inputs so lazy imports and BLAS thread
    start-up are paid before timing: EX31 solves and one float and one
    rational verify."""
    for task in _solve_tasks(["ex31"], ref, workdir)[:3]:
        run_cli(cli_main, task.argv)
    for exact in (False, True):
        task = write_replay_case(workdir, f"warm-{int(exact)}", 0, 3, 2, exact, None)
        run_cli(cli_main, task.argv)
