"""Compare benchmark records of two commits.

    python3 perfbench/compare.py --old a/*.json --new b/*.json

Records are the files ``run.py --out`` writes. For each workload and
end-to-end metric this prints both medians and the change, and marks a
change worse than the metric's bound in BENCHMARK.json. It refuses to
compare records made in different environments (core count, BLAS threads,
Python, NumPy, SciPy, machine); the commit is expected to differ. Solver
iteration counts and stop reasons must match exactly for the same workload
and seed: a change there is changed behaviour, not noise within a bound.

Exit status: 0 when nothing got worse, 1 on a regression or a changed
count, 2 when the records cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# detail fields that must repeat exactly for one workload and seed
EXACT = ("iterations", "stop_reason", "svt_iterations", "svt_stop_reason")


def _environment(record: dict) -> dict:
    return {k: v for k, v in record["environment"].items() if k != "commit"}


def _load(paths) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        if record["trace"]:
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def compare(old: dict, new: dict, bench: dict) -> tuple[int, list[str]]:
    lines = []
    status = 0
    for workload in sorted(set(old) & set(new)):
        envs = {json.dumps(_environment(r), sort_keys=True) for r in old[workload] + new[workload]}
        if len(envs) > 1:
            return 2, [f"{workload}: records come from different environments: {sorted(envs)}"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["result"]["metrics"][name]["value"] for r in old[workload])
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in new[workload])
            change = b / a - 1.0
            worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
            status = max(status, int(worse))
            lines.append(f"{workload:14s} {name:12s} {a:12.6g} -> {b:12.6g} {metric['unit']:3s} "
                         f"{100 * change:+7.2f}%{'  WORSE than bound' if worse else ''}")
        old_by_seed = {r["seed"]: r["detail"] for r in old[workload]}
        for record in new[workload]:
            before = old_by_seed.get(record["seed"])
            if before is None:
                continue
            for key in EXACT:
                if before.get(key) != record["detail"].get(key):
                    status = 1
                    lines.append(f"{workload:14s} seed {record['seed']}: {key} "
                                 f"{before.get(key)} -> {record['detail'].get(key)} (behaviour changed)")
    return status, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    status, lines = compare(_load(args.old), _load(args.new), bench)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
