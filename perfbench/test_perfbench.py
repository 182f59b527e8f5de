"""Tests of the benchmark itself, in its tiny-size smoke mode.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_every_metric_and_runs_every_check(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads(out.read_text())
    expected = {"outputs", "repeatable"} | ({"traced_equals_untraced", "spans_nest"} if trace else set())
    assert expected <= set(record["checks"])
    assert record["environment"]["nproc"] >= 1
    pinned = spec.WORKLOADS[workload]["blas_threads"]
    if pinned is not None:
        assert record["environment"]["blas_threads"] in (0, pinned)
    if trace:
        assert record["spans"]


def test_all_prints_every_end_to_end_metric_per_workload():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "0.2", "--smoke")
    assert proc.returncode == 0, proc.stderr
    for workload in spec.WORKLOADS:
        assert f"{workload}: ok" in proc.stdout
    for m in BENCHMARK["end_to_end"]:
        assert proc.stdout.count(f"  {m['name']} ") == len(spec.WORKLOADS)


def test_checkout_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "complete-200", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_checks_reject_bad_results():
    import workloads

    solve = workloads.SolveWorkload(spec.SMOKE["complete-200"])
    good = workloads.Solve("admira", 0.1, 12, "converged", 120.0, 1e-8, 1e-8, 2, 150, 1e-7)
    unrecovered = workloads.Solve("svt", 0.1, 500, "max_iter", 30.0, 1e-3, 1e-3, 9, 500, 1e-7)
    out = workloads.Outcome(0.2, 512, 2, solves=[good, unrecovered])
    assert solve.check(out) == (0, [])
    assert solve.unrecovered(out) == 1

    bad = [
        workloads.Solve("admira", 0.1, 12, "converged", 120.0, 1e-8, 2e-8 + 1e-6, 2, 150, 1e-7),
        workloads.Solve("admira", 0.1, 12, "converged", 120.0, 1e-6, 1e-6, 2, 150, 1e-7),
        workloads.Solve("admira", 0.1, 12, "max_iter", 120.0, 1e-6, 1e-6, 2, 150, 1e-7),
        workloads.Solve("admira", 0.1, 12, "converged", 40.0, 1e-8, 1e-8, 2, 150, 1e-7),
        workloads.Solve("admira", 0.1, 12, "converged", 120.0, 1e-8, 1e-8, 3, 150, 1e-7),
        workloads.Solve("admira", 0.1, 0, "zero_proxy", 120.0, 1.0, 1.0, 0, 150, 1e-7),
    ]
    for s in bad:
        failed, messages = solve.check(workloads.Outcome(0.1, 12, 1, solves=[s]))
        assert failed == 1 and len(messages) == 1, s

    sweep = workloads.SweepWorkload(spec.SMOKE["sweep-threads"])
    rows = [[ratio, p, 100.0, 18.0] for ratio, p in sweep._ratios()]
    sweep.reference = [list(r) for r in rows]
    assert sweep.check(workloads.Outcome(1.0, 72, 4, rows=rows)) == (0, [])
    rows[0][2] += 1e-9
    failed, messages = sweep.check(workloads.Outcome(1.0, 72, 4, rows=rows))
    assert failed == spec.SMOKE["sweep-threads"]["trials"] and "serial" in messages[0]


class _Host:
    @staticmethod
    def outer(x):
        return _Host.inner(x) + 1

    @staticmethod
    def inner(x):
        return 2 * x


def test_tracer_records_nesting_and_restores_originals():
    original = vars(_Host)["inner"]
    tracer = Tracer()
    tracer.wrap(_Host, "outer", "outer")
    tracer.wrap(_Host, "inner", "inner", note=lambda args, result: {"result": result})
    assert _Host.outer(3) == 7
    assert _Host.outer(4) == 9
    tracer.restore()
    assert vars(_Host)["inner"] is original

    outer, inner, outer2, inner2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [-1, 0, -1, 2]
    assert [s.root for s in tracer.spans] == [0, 0, 2, 2]
    assert (inner.note, inner2.note) == ({"result": 6}, {"result": 8})
    self_s = tracer.self_times()
    assert min(self_s) >= 0.0
    assert sum(self_s) == pytest.approx(outer.duration + outer2.duration, rel=1e-9, abs=1e-12)


def _record(workload, seed, env, iterations, iter_ms):
    return {"workload": workload, "seed": seed, "trace": 0, "environment": env,
            "detail": {"iterations": iterations, "stop_reason": "converged"},
            "result": {"metrics": {m["name"]: {"value": iter_ms if m["name"] == "iter_ms" else 1.0}
                                   for m in BENCHMARK["end_to_end"]}}}


def test_compare_refuses_other_environments_and_flags_changed_counts():
    env = {"nproc": 2, "blas_threads": 1, "numpy": "2", "commit": "a"}
    old = {"w": [_record("w", 1, env, 16, 10.0)]}
    same_env_other_commit = {**env, "commit": "b"}
    assert compare.compare(old, {"w": [_record("w", 1, same_env_other_commit, 16, 10.0)]},
                           BENCHMARK)[0] == 0
    assert compare.compare(old, {"w": [_record("w", 1, {**env, "blas_threads": 2}, 16, 10.0)]},
                           BENCHMARK)[0] == 2
    assert compare.compare(old, {"w": [_record("w", 1, env, 17, 10.0)]}, BENCHMARK)[0] == 1
    assert compare.compare(old, {"w": [_record("w", 1, env, 16, 20.0)]}, BENCHMARK)[0] == 1
