"""Measures one workload in this process and prints its result.

An untraced run times set-up and tasks with nothing wrapped. A traced run
first repeats the untraced measurement for half its time, then wraps the
library's layer boundaries (see layers.py) and runs the same set-up and
tasks again; the traced results must equal the untraced ones bit for bit.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import layers
import workloads
from spans import Tracer

# Set-up is re-run between tasks, each time building a fresh copy of the
# same problem, so its samples span the run. Time outside the timed solves
# (set-up and checks) is kept near SETUP_SHARE of the time inside them, and
# at least SETUP_MIN_REPEATS set-ups are timed. setup_s is their median.
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "iter_ms": "ms", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    """Thread count of NumPy's bundled OpenBLAS, read back through its own
    read-only query; 0 when the library or the symbol is not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return 0


def git_commit(root: str) -> str:
    """Commit of the checkout from .git, or "unknown" outside a git tree."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(gitdir, ref)):
            with open(os.path.join(gitdir, ref)) as f:
                return f.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, params: dict, harness_threads: int) -> dict:
    pinned = params["blas_threads"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_setting": "default" if pinned is None else pinned,
        "harness_threads": harness_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(root),
    }


class Run:
    """Solves attempted, failed and unrecovered, and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised = 0
        self.unrecovered = 0
        self.problems: list[str] = []
        self.checks: set[str] = set()

    def fail(self, message: str, solves: int = 0) -> None:
        self.failed += solves
        if message not in self.problems:
            self.problems.append(message)


def _timed_setup(wl, seed: int, setup_times: list | None):
    start = time.perf_counter()
    inputs = wl.setup(seed)
    if setup_times is not None:
        setup_times.append(time.perf_counter() - start)
    return inputs


def measure(wl, seed: int, seconds: float, run: Run, setup_times: list | None = None) -> list:
    """Repeat the workload's task until ``seconds`` have passed (at least
    once), checking each output; stops at the first task that raises.

    With ``setup_times`` given, set-up is timed between tasks as well (see
    SETUP_SHARE); otherwise it runs once.
    """
    outcomes = []
    inputs = None
    task_s = 0.0
    start = time.perf_counter()
    while True:
        while inputs is None or (setup_times is not None
                                 and time.perf_counter() - start - task_s < SETUP_SHARE * task_s):
            inputs = None  # release the previous problem before building the next
            inputs = _timed_setup(wl, seed, setup_times)
        try:
            out = wl.task(inputs)
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.raised += 1
            run.fail("task raised", solves=1)
            break
        task_s += out.wall_s
        run.attempted += out.attempted
        run.unrecovered += wl.unrecovered(out)
        failed, messages = wl.check(out)
        run.checks.add("outputs")
        if failed or messages:
            run.fail("; ".join(messages), solves=failed)
        if outcomes:
            run.checks.add("repeatable")
            if out.fingerprint() != outcomes[0].fingerprint():
                run.fail("a repeated task gave different results on the same input")
        outcomes.append(out)
        if time.perf_counter() - start >= seconds:
            break
    inputs = None
    while setup_times is not None and len(setup_times) < SETUP_MIN_REPEATS:
        _timed_setup(wl, seed, setup_times)
    return outcomes


def _median_of(outcomes, algorithm):
    walls = [s.wall_s for o in outcomes for s in o.solves if s.algorithm == algorithm]
    return statistics.median(walls) if walls else None


def _plain(value):
    # JSON has no infinity: an exact reconstruction's SNR is written "inf"
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def detail(wl, outcomes, setup_times) -> dict:
    first = outcomes[0]
    out = {
        "tasks": len(outcomes),
        "task_s_median": statistics.median(o.wall_s for o in outcomes),
        "task_s_min": min(o.wall_s for o in outcomes),
        "task_s_max": max(o.wall_s for o in outcomes),
        "setup_samples": len(setup_times),
        "setup_s_min": min(setup_times),
        "setup_s_max": max(setup_times),
    }
    for s in first.solves:
        prefix = "" if s.algorithm == "admira" else s.algorithm + "_"
        out[prefix + "solve_s"] = _median_of(outcomes, s.algorithm)
        out[prefix + "iterations"] = s.iterations
        out[prefix + "stop_reason"] = s.stop_reason
    if first.solves:
        out["snr_db"] = _plain(min(s.snr_db for s in first.solves))
    if first.rows is not None:
        out["sweep_trials_per_s"] = statistics.median(o.attempted / o.wall_s for o in outcomes)
        # one serial sweep of the same seed, timed once as the reference
        out["serial_sweep_s"] = wl.serial_s
        out["speedup_vs_serial"] = wl.serial_s / out["task_s_median"]
        out["iterations"] = first.iterations
        out["rows"] = first.rows
    return out


def run_workload(args, params: dict, root: str) -> int:
    wl = workloads.make(params)
    env = environment(root, params, wl.threads)
    run = Run()
    pinned = params["blas_threads"]
    if pinned is not None and env["blas_threads"] not in (0, pinned):
        run.fail(f"BLAS runs {env['blas_threads']} threads, the workload pins {pinned}")

    wl.prepare(args.seed)
    setup_times = []
    budget = args.seconds / 2 if args.trace else args.seconds
    outcomes = measure(wl, args.seed, budget, run, setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not outcomes:
        print("perfbench: no task completed", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "detail": detail(wl, outcomes, setup_times),
    }
    spans = None
    if args.trace:
        metrics, record["layers"], spans = traced_phase(wl, args, outcomes, run, env)
        units = layers.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "iter_ms": statistics.median(1e3 * o.wall_s / o.iterations for o in outcomes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    # solves that raised or ended below 70 dB, per solve attempted
    record["detail"]["fail_ratio"] = (run.raised + run.unrecovered) / max(run.attempted, 1)
    record["checks"] = sorted(run.checks)
    record["problems"] = run.problems
    for message in run.problems:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({**record, "result": result, "spans": spans}, f)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_phase(wl, args, untraced, run: Run, env: dict):
    """Set-up and tasks again with every layer boundary wrapped."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        traced = measure(wl, args.seed, args.seconds / 2, run)
        wall = time.perf_counter() - start
    finally:
        tracer.restore()
    if not traced:
        run.fail("no traced task completed")
        return dict.fromkeys(layers.PER_LAYER_UNITS, 0.0), {}, None

    run.checks.update(("traced_equals_untraced", "spans_nest"))
    reference = untraced[0].fingerprint()
    if any(o.fingerprint() != reference for o in traced):
        run.fail("the traced run changed iterations, stop reasons or SNR")
    if any(s.end < s.start for s in tracer.spans) or min(tracer.self_times(), default=0.0) < -1e-6:
        run.fail("spans do not nest: a child span runs outside its parent")

    admira_iters = sum(s.iterations for o in traced for s in o.solves if s.algorithm == "admira")
    if traced[0].rows is not None:
        admira_iters = sum(o.iterations for o in traced)
    svt_iters = sum(s.iterations for o in traced for s in o.solves if s.algorithm == "svt")
    metrics, extra = layers.summarize(tracer, len(traced), admira_iters, svt_iters,
                                      wl.threads, wall)
    untraced_s = statistics.median(o.wall_s for o in untraced)
    traced_s = statistics.median(o.wall_s for o in traced)
    metrics["harness.blas_threads"] = env["blas_threads"]
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    extra.update({"traced_tasks": len(traced), "traced_task_s": traced_s,
                  "untraced_task_s": untraced_s, "traced_wall_s": wall})
    spans = [[s.name, s.start, s.end, s.parent, s.root, s.thread] for s in tracer.spans]
    return metrics, extra, spans
