"""Benchmark of the admira recovery loop, end to end and layer by layer.

    python3 perfbench/run.py --workload complete-200 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it measures the library under src/.
One workload runs in this process; ``all`` runs each workload in its own
process and prints every metric by name with its unit. The last line of
standard output is the result ``{"correct", "attempted", "failed",
"metrics"}`` and the line before it the detail record (environment, solve
counts, layer shares). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. ``--smoke`` runs the same tasks at tiny
sizes. Exit status: 0 when every check passed, 1 when one failed, 2 when
the checkout has no admira source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one workload's run stays far below this; it only bounds a hung child
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes")
    parser.add_argument("--out", help="also write the full record, spans included, here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas(threads) -> None:
    """Fix the BLAS thread count before NumPy loads OpenBLAS (None: default)."""
    for var in spec.BLAS_THREAD_VARS:
        if threads is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = str(threads)


def load_library() -> bool:
    """Import admira from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "admira", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import admira

    return os.path.dirname(os.path.abspath(admira.__file__)) == os.path.join(src, "admira")


def run_all(args) -> int:
    status = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", f"{args.out}.{name}.json"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            return 2
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "CHECK FAILED"
        print(f"{name}: {verdict}, {result['failed']} of {result['attempted']} solves failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:.6g} {m['unit']}")
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    params = (spec.SMOKE if args.smoke else spec.WORKLOADS)[args.workload]
    pin_blas(params["blas_threads"])
    if not load_library():
        print(f"perfbench: no admira source tree under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import bench

    return bench.run_workload(args, params, ROOT)


if __name__ == "__main__":
    sys.exit(main())
