"""Spans around popnc's public functions, recorded from the benchmark's side.

The tracer re-binds names in the calling modules' namespaces: in `popnc.cli`
the parse, emit, certificate-load and verify functions, in `popnc.driver` the
three driver routines (which the CLI calls through the module) and the
build, solve, extract and verify functions the routines call.  Nothing in
`src/` changes.  Spans are kept in memory; `restore()` puts every original
function back.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

CLI_NAMES = {
    "parse_problem": "problem_io.parse",
    "emit_report": "problem_io.emit",
    "certificate_from_payload": "certificates.load",
    "verify_certificate": "certificates.verify",
    "format_certificate": "certificates.format",
}
DRIVER_NAMES = {
    "minimize": "driver.minimize",
    "check_archimedean": "driver.check_archimedean",
    "check_coercive": "driver.check_coercive",
    "build_hierarchy_step": "builder.build",
    "build_archimedean_check": "builder.build",
    "build_coercivity_check": "builder.build",
    "solve": "sdp.solve",
    "extract_certificate": "certificates.extract",
    "verify_certificate": "certificates.verify",
}

# (metric, unit) of the traced run, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("cli.self_s", "s"), ("problem_io.parse_s", "s"), ("problem_io.emit_s", "s"),
    ("driver.self_s", "s"), ("driver.orders_per_task", "count"),
    ("builder.build_s", "s"), ("builder.build_share", "%"), ("builder.rows", "count"),
    ("builder.psd_entries", "count"), ("builder.free_vars", "count"),
    ("sdp.solve_s", "s"), ("sdp.solve_share", "%"), ("sdp.iterations", "count"),
    ("sdp.s_per_iter", "s"), ("sdp.peak_alloc_mb", "MB"), ("sdp.unknown_ratio", "ratio"),
    ("certificates.extract_s", "s"), ("certificates.load_s", "s"), ("certificates.verify_s", "s"),
    ("certificates.format_s", "s"), ("certificates.passed_ratio", "ratio"), ("trace.overhead_s", "s"),
]


def sdp_sizes(problem) -> dict:
    """Descriptor of a built SDP: order, block dims, rows, free variables, nonzeros."""
    nnz = 0
    for con in problem.constraints:
        nnz += sum(int((mat != 0).sum()) for mat in con.blocks.values()) + int((con.free != 0).sum())
    meta = problem.meta
    return {"family": getattr(meta, "family", None), "k": getattr(meta, "order", None),
            "dims": list(problem.block_dims), "rows": len(problem.constraints),
            "free": problem.num_free, "nnz": nnz}


class Tracer:
    """Records [name, start, end, parent, task, info] spans.

    With alloc=True each solve also runs under tracemalloc, which slows
    Python-heavy solves several-fold: such a tracer measures memory, not time.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[list] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, cli_mod, driver_mod) -> None:
        for mod, table in ((cli_mod, CLI_NAMES), (driver_mod, DRIVER_NAMES)):
            for attr, name in table.items():
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def run_task(self, task_id: str, fn, *args):
        self.task = task_id
        return self._call("cli.task", fn, args, {})

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.task, None]
        self.spans.append(span)
        self._stack.append(idx)
        alloc = self.alloc and name == "sdp.solve"
        if alloc:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if alloc:
                span[5] = {"peak_alloc_mb": tracemalloc.get_traced_memory()[1] / 2**20}
                tracemalloc.stop()
            self._stack.pop()
            span[2] = time.perf_counter()
        if name in ("builder.build", "sdp.solve", "certificates.verify"):
            # describing the result is tracing work: give it its own span so
            # it is not charged to the caller's self time
            book = ["trace.info", time.perf_counter(), None, parent, self.task, None]
            if name == "builder.build":
                span[5] = sdp_sizes(result)
            elif name == "sdp.solve":
                span[5] = {**(span[5] or {}), "iterations": result.iterations,
                           "status": result.status.value}
            else:
                span[5] = {"passed": bool(result.passed)}
            book[2] = time.perf_counter()
            self.spans.append(book)
        return result

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, task, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "task": task, "info": info}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def layer_metrics(self, passes: int, overhead_s: float, peak_alloc_mb: float) -> dict[str, float]:
        """Per-layer metrics per traced pass."""
        st = self.self_times()
        by = defaultdict(list)
        for name, start, end, _, _, info in self.spans:
            by[name].append((end - start, info))
        total = sum(d for d, _ in by["cli.task"]) or float("nan")
        builds = [i for _, i in by["builder.build"]]
        solves = [i for _, i in by["sdp.solve"]]
        verifies = [i for _, i in by["certificates.verify"]]
        driver_calls = sum(len(v) for k, v in by.items() if k.startswith("driver."))
        iters = sum(s["iterations"] for s in solves)
        solve_s = st.get("sdp.solve", 0.0)
        build_s = st.get("builder.build", 0.0)
        m = {
            "cli.self_s": st.get("cli.task", 0.0),
            "problem_io.parse_s": st.get("problem_io.parse", 0.0),
            "problem_io.emit_s": st.get("problem_io.emit", 0.0),
            "driver.self_s": sum(v for k, v in st.items() if k.startswith("driver.")),
            "driver.orders_per_task": len(solves) / driver_calls if driver_calls else 0.0,
            "builder.build_s": build_s,
            "builder.build_share": 100.0 * build_s / total,
            "builder.rows": sum(b["rows"] for b in builds),
            "builder.psd_entries": sum(d * d for b in builds for d in b["dims"]),
            "builder.free_vars": sum(b["free"] for b in builds),
            "sdp.solve_s": solve_s,
            "sdp.solve_share": 100.0 * solve_s / total,
            "sdp.iterations": iters,
            "sdp.s_per_iter": solve_s / iters if iters else 0.0,
            "sdp.peak_alloc_mb": peak_alloc_mb,
            "sdp.unknown_ratio": sum(s["status"] == "unknown" for s in solves) / len(solves) if solves else 0.0,
            "certificates.extract_s": st.get("certificates.extract", 0.0),
            "certificates.load_s": st.get("certificates.load", 0.0),
            "certificates.verify_s": st.get("certificates.verify", 0.0),
            "certificates.format_s": st.get("certificates.format", 0.0),
            "certificates.passed_ratio": sum(v["passed"] for v in verifies) / len(verifies) if verifies else 0.0,
        }
        per_pass = {k for k in m if k.endswith("_s") or k in ("builder.rows", "builder.psd_entries",
                                                               "builder.free_vars", "sdp.iterations")}
        m = {k: v / passes if k in per_pass else v for k, v in m.items()}
        m["trace.overhead_s"] = overhead_s
        return m

    def peak_alloc_mb(self) -> float:
        return max((s[5]["peak_alloc_mb"] for s in self.spans if s[0] == "sdp.solve"), default=0.0)

    def task_sizes(self) -> dict[str, list[dict]]:
        """Built-SDP descriptors per task id."""
        out = defaultdict(list)
        for name, _, _, _, task, info in self.spans:
            if name == "builder.build":
                out[task].append(info)
        return dict(out)
