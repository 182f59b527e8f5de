"""The admira names the traced run wraps, and the per-layer metrics computed
from the spans they record.

The loop calls its stages through module-level names (``solver.proxy``,
``solver.leading_atoms``, ...), so wrapping those names in their calling
module sees every call without touching the library. Operator methods are
wrapped on each class that defines them.
"""

from __future__ import annotations

from admira import atoms, baselines, harness, operators, solver

OPERATOR_METHODS = ("apply", "adjoint", "apply_expansion", "apply_atoms")
OPERATOR_CLASSES = (operators.MeasurementOperator, operators.GaussianOperator,
                    operators.EntrySampler)


def _operator_note(args, result):
    op = args[0]
    matrix = getattr(op, "matrix", None)
    return {"kind": op.kind, "matrix_bytes": 0 if matrix is None else matrix.nbytes}


def install(tracer) -> None:
    """Wrap every traced boundary; ``tracer.restore()`` undoes it."""
    tracer.wrap(harness, "gen_problem", "harness.gen_problem")
    tracer.wrap(harness, "run_sweep", "harness.run_sweep")
    tracer.wrap(harness, "run_trial", "harness.run_trial")
    # run_trial calls the solver through the harness module's own binding
    tracer.wrap(harness, "admira_solve", "solver.admira_solve")
    tracer.wrap(solver, "admira_solve", "solver.admira_solve")
    tracer.wrap(baselines, "svt_solve", "baselines.svt_solve")
    tracer.wrap(solver, "admira_step", "solver.step")
    tracer.wrap(solver, "proxy", "solver.proxy")
    tracer.wrap(solver, "leading_atoms", "atoms.leading_atoms",
                note=lambda args, result: {"elems": int(args[0].size)})
    tracer.wrap(solver, "merge", "atoms.merge",
                note=lambda args, result: {"offered": len(args[0]) + len(args[1]),
                                           "kept": len(result)})
    tracer.wrap(solver, "restricted_least_squares", "solver.restricted_least_squares")
    tracer.wrap(solver, "least_squares_minnorm", "linalg.least_squares_minnorm")
    tracer.wrap(solver, "truncate_expansion", "atoms.truncate_expansion")
    tracer.wrap(atoms, "svd_truncated", "linalg.svd_truncated")
    tracer.wrap(baselines, "svd", "baselines.svd")
    for cls in OPERATOR_CLASSES:
        for method in OPERATOR_METHODS:
            fn = vars(cls).get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                tracer.wrap(cls, method, f"operators.{method}", note=_operator_note)


# per_layer metrics of BENCHMARK.json, in order, with their units
PER_LAYER_UNITS = {
    "atoms.leading_atoms_s": "s",
    "linalg.svd_truncated_s": "s",
    "atoms.selection_elems": "count",
    **{f"operators.{m}_{suffix}": unit for m in OPERATOR_METHODS
       for suffix, unit in (("calls", "count"), ("s", "s"))},
    "operators.dense_passes_per_iter": "count",
    "operators.bytes_read_per_iter": "B",
    "solver.step_s": "s",
    "solver.proxy_s": "s",
    "solver.restricted_least_squares_s": "s",
    "solver.residual_s": "s",
    "solver.step_self_s": "s",
    "atoms.merge_s": "s",
    "atoms.merge_kept_ratio": "ratio",
    "atoms.truncate_expansion_s": "s",
    "linalg.least_squares_minnorm_s": "s",
    "baselines.svd_calls": "count",
    "baselines.svt_shrink_share": "ratio",
    "harness.gen_problem_s": "s",
    "harness.run_trial_calls": "count",
    "harness.parallel_efficiency": "ratio",
    "harness.blas_threads": "count",
    "trace_overhead_ratio": "ratio",
}


def _inside(spans, name: str) -> list[bool]:
    # spans open after their parent, so one forward pass marks whole subtrees
    flags: list[bool] = []
    for span in spans:
        flags.append(span.name == name or (span.parent >= 0 and flags[span.parent]))
    return flags


def summarize(tracer, tasks: int, iterations: int, svt_iterations: int,
              threads: int, wall_s: float) -> tuple[dict, dict]:
    """Per-layer figures of one traced phase: (per_layer metrics, detail).

    Times and call counts are per task, the phase's one set-up included;
    ``_per_iter`` counters are per admira iteration. ``wall_s`` is the
    traced phase's wall time and ``threads`` the harness worker count.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    in_solve = _inside(spans, "solver.admira_solve")
    in_svt = _inside(spans, "baselines.svt_solve")
    has_op_child = [False] * len(spans)
    for span in spans:
        if span.parent >= 0 and span.name.startswith("operators."):
            has_op_child[span.parent] = True

    def total(name, where=None):
        return sum(s.duration for i, s in enumerate(spans)
                   if s.name == name and (where is None or where(i, s)))

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    # computed traffic: one read of the dense p x mn matrix per GEMV/GEMM
    # that touches it, counted at the innermost operator span
    passes = bytes_read = 0
    for i, s in enumerate(spans):
        if in_solve[i] and s.name.startswith("operators.") and s.note.get("kind") == "gaussian" \
                and not has_op_child[i]:
            passes += 1
            bytes_read += s.note["matrix_bytes"]

    selections = [s.note["elems"] for s in spans if s.name == "atoms.leading_atoms"]
    merges = [s.note for s in spans if s.name == "atoms.merge"]
    offered = sum(n["offered"] for n in merges)
    svt_s = total("baselines.svt_solve")
    shrink_s = total("baselines.svd", lambda i, s: in_svt[i])
    busy = sum(s.duration for s in spans if s.parent < 0 and s.name != "harness.run_sweep")

    metrics = {
        "atoms.leading_atoms_s": total("atoms.leading_atoms") / tasks,
        "linalg.svd_truncated_s": total("linalg.svd_truncated") / tasks,
        "atoms.selection_elems": sum(selections) / max(len(selections), 1),
    }
    for method in OPERATOR_METHODS:
        metrics[f"operators.{method}_calls"] = calls(f"operators.{method}") / tasks
        metrics[f"operators.{method}_s"] = total(f"operators.{method}") / tasks
    metrics.update({
        "operators.dense_passes_per_iter": passes / max(iterations, 1),
        "operators.bytes_read_per_iter": bytes_read / max(iterations, 1),
        "solver.step_s": total("solver.step") / tasks,
        "solver.proxy_s": total("solver.proxy") / tasks,
        "solver.restricted_least_squares_s": total("solver.restricted_least_squares") / tasks,
        "solver.residual_s": total("operators.apply_expansion",
                                   lambda i, s: s.parent >= 0 and spans[s.parent].name == "solver.step") / tasks,
        "solver.step_self_s": sum(t for s, t in zip(spans, self_s) if s.name == "solver.step") / tasks,
        "atoms.merge_s": total("atoms.merge") / tasks,
        "atoms.merge_kept_ratio": sum(n["kept"] for n in merges) / offered if offered else 0.0,
        "atoms.truncate_expansion_s": total("atoms.truncate_expansion") / tasks,
        "linalg.least_squares_minnorm_s": total("linalg.least_squares_minnorm") / tasks,
        "baselines.svd_calls": calls("baselines.svd") / tasks,
        "baselines.svt_shrink_share": shrink_s / svt_s if svt_s else 0.0,
        "harness.gen_problem_s": total("harness.gen_problem") / tasks,
        "harness.run_trial_calls": calls("harness.run_trial") / tasks,
        "harness.parallel_efficiency": busy / (threads * wall_s),
    })

    # layer figures that exist on only some workloads go to the detail record
    admira_s = total("solver.admira_solve")
    extra = {
        "solver.admira_solve_s": admira_s / tasks,
        "selection_share_of_solve": total("atoms.leading_atoms") / admira_s if admira_s else None,
        "operator_share_of_solve": sum(
            s.duration for i, s in enumerate(spans)
            if in_solve[i] and s.name.startswith("operators.") and not spans[s.parent].name.startswith("operators.")
        ) / admira_s if admira_s else None,
        "baselines.svt_solve_s": svt_s / tasks if svt_s else None,
        "baselines.svt_shrink_s": shrink_s / tasks if svt_s else None,
        "baselines.svt_iter_ms": 1e3 * svt_s / svt_iterations if svt_iterations else None,
        "harness.run_trial_s": total("harness.run_trial") / tasks if calls("harness.run_trial") else None,
        "self_s_by_layer": _self_by_name(spans, self_s, tasks),
        # self times inside admira solves partition the traced solve time
        "solve_stage_share": _self_by_name(
            [s for i, s in enumerate(spans) if in_solve[i]],
            [t for i, t in enumerate(self_s) if in_solve[i]], admira_s) if admira_s else None,
        "spans": len(spans),
    }
    return metrics, extra


def _self_by_name(spans, self_s, scale) -> dict:
    out: dict[str, float] = {}
    for span, t in zip(spans, self_s):
        out[span.name] = out.get(span.name, 0.0) + t / scale
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
