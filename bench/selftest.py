"""Self-tests of the benchmark (not part of the project's test suite).

    python3 bench/selftest.py

Smoke-sized runs of each workload, the checker's failure paths, the recorded
pool against its generators, and the refusal to run without the program's
sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads  # noqa: E402
from checks import Checker  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return result

    def test_small_suite(self):
        self.check_run("small-suite", 0)

    def test_dense_n6(self):
        self.check_run("dense-n6", 0)

    def test_verify_replay(self):
        self.check_run("verify-replay", 0)

    def test_traced_small_suite(self):
        m = self.check_run("small-suite", 1)["metrics"]
        self.assertGreater(m["sdp.solve_s"]["value"], 0)
        self.assertGreater(m["builder.rows"]["value"], 0)


class CheckerFailures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli_mod, _ = run.import_popnc()
        cls.ref = workloads.load_reference()
        os.makedirs(WORK, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=WORK)
        cls.checker = Checker(cls.cli_mod.cli_main, cls.ref, cls.tmp, seed=0)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_perturbed_reference_bound_fails(self):
        task = next(t for t in workloads.make_tasks("small-suite", 0, self.tmp, self.ref)
                    if t.id == "ex31:minimize")
        out = workloads.run_cli(self.cli_mod.cli_main, task.argv)
        self.assertEqual(self.checker.check(task, out), [])
        bound = task.reference["bound"]
        task.reference = {**task.reference, "bound": bound * (1 + 1e-6)}
        errs = self.checker.check(task, out)
        self.assertTrue(any("bound" in e for e in errs), errs)

    def test_corrupted_certificate_expected_to_pass_fails(self):
        for corrupt in ("indefinite", "coefficient"):
            task = workloads.write_replay_case(self.tmp, f"c-{corrupt}", 7, 3, 2, False, corrupt)
            out = workloads.run_cli(self.cli_mod.cli_main, task.argv)
            self.assertEqual(self.checker.check(task, out), [], corrupt)  # expected FAIL: ok
            task.expect_pass = True
            self.assertNotEqual(self.checker.check(task, out), [], corrupt)


class Reference(unittest.TestCase):
    def test_pool_matches_generators(self):
        import make_reference

        recorded = workloads.load_reference()["instances"]
        generated = make_reference.all_instances()
        for inst_id, inst in recorded.items():
            self.assertEqual(inst["text"], generated[inst_id]["text"], inst_id)


class MissingProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        os.makedirs(WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
            proc = bench("--workload", "small-suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
