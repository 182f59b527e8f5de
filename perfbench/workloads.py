"""Benchmark workloads: inputs made from the seed, the timed task, and the
checks every output goes through.

The library sees only the generated problems. Entry points are called
through their module attributes (``solver.admira_solve``, not a local
import) so that the traced run's wrappers see these calls too.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from admira import baselines, harness, solver
from admira.baselines import SvtConfig
from admira.solver import CONVERGED, MAX_ITER, AdmiraConfig

from spec import RANK

# reconstruction SNR that counts a solve as a recovery
SUCCESS_DB = 70.0

# the relative residual recomputed from the returned matrix must match the
# solver's own report this closely
RESIDUAL_MATCH = 1e-9


@dataclass(frozen=True)
class Solve:
    algorithm: str
    wall_s: float
    iterations: int
    stop_reason: str
    snr_db: float
    rel_residual: float
    checked_rel_residual: float
    atoms: int
    max_iter: int
    residual_tol: float

    def outcome(self):
        """What the traced run and repeated solves must reproduce bit for bit."""
        return (self.algorithm, self.iterations, self.stop_reason, self.snr_db)

    def errors(self, rank: int | None) -> list[str]:
        """Ways the returned result contradicts the solver's own report."""
        errors = []
        if self.iterations < 1:
            errors.append("no iteration made")
        if abs(self.checked_rel_residual - self.rel_residual) > RESIDUAL_MATCH:
            errors.append(f"returned matrix has relative residual {self.checked_rel_residual}, "
                          f"the solver reports {self.rel_residual}")
        if self.stop_reason == CONVERGED and self.rel_residual > self.residual_tol:
            errors.append(f"converged at relative residual {self.rel_residual}")
        if self.stop_reason == MAX_ITER and self.iterations != self.max_iter:
            errors.append(f"max_iter after {self.iterations} of {self.max_iter} iterations")
        if self.stop_reason == CONVERGED and not self.snr_db >= SUCCESS_DB:
            errors.append(f"converged to a wrong matrix: {self.snr_db} dB")
        if rank is not None and self.atoms > rank:
            errors.append(f"{self.atoms} atoms for rank {rank}")
        return [f"{self.algorithm}: {e}" for e in errors]


@dataclass
class Outcome:
    """Result of one timed task."""

    wall_s: float
    iterations: int
    attempted: int
    solves: list[Solve] = field(default_factory=list)
    rows: list | None = None

    def fingerprint(self):
        return [s.outcome() for s in self.solves], self.rows


def _solve(algorithm, wall, result, prob, max_iter, residual_tol) -> Solve:
    X = result.matrix()
    b_norm = float(np.linalg.norm(prob.b))
    checked = float(np.linalg.norm(prob.b - prob.operator.apply(X))) / b_norm
    return Solve(
        algorithm, wall, result.iterations, result.stop_reason,
        harness.snr_recon(prob.x_true, X),
        result.trace[-1].rel_residual if result.trace else 1.0,
        checked, len(result.expansion), max_iter, residual_tol,
    )


def _admira(prob, max_iter) -> Solve:
    config = AdmiraConfig(rank=prob.r_true, max_iter=max_iter)
    start = time.perf_counter()
    result = solver.admira_solve(prob.operator, prob.b, config)
    wall = time.perf_counter() - start
    return _solve("admira", wall, result, prob, config.iteration_limit, config.residual_tol)


def _svt(prob, max_iter) -> Solve:
    config = SvtConfig(max_iter=max_iter)
    start = time.perf_counter()
    result = baselines.svt_solve(prob.operator, prob.b, config)
    wall = time.perf_counter() - start
    return _solve("svt", wall, result, prob, config.max_iter, config.residual_tol)


class SolveWorkload:
    """admira_solve, and svt_solve when asked, on one problem per seed."""

    def __init__(self, params: dict):
        self.params = params
        self.threads = 1

    def setup(self, seed: int):
        q = self.params
        return harness.gen_problem(q["n"], q["n"], RANK, q["p"], kind=q["kind"], seed=seed)

    def prepare(self, seed: int) -> None:
        pass

    def task(self, prob) -> Outcome:
        q = self.params
        solves = [_admira(prob, q["max_iter"])]
        if q["task"] == "admira+svt":
            solves.append(_svt(prob, q["svt_max_iter"]))
        return Outcome(
            wall_s=sum(s.wall_s for s in solves),
            iterations=sum(s.iterations for s in solves),
            attempted=len(solves),
            solves=solves,
        )

    def check(self, out: Outcome) -> tuple[int, list[str]]:
        """Failed solves, and why."""
        failed, messages = 0, []
        for s in out.solves:
            errors = s.errors(RANK if s.algorithm == "admira" else None)
            failed += bool(errors)
            messages += errors
        return failed, messages

    def unrecovered(self, out: Outcome) -> int:
        """Solves that ended below SUCCESS_DB, failed or not."""
        return sum(not s.snr_db >= SUCCESS_DB for s in out.solves)


class SweepWorkload:
    """harness.run_sweep with one worker thread per core.

    The harness promises results independent of its thread count, so the
    threaded sweep must equal a serial sweep of the same seed bit for bit.
    """

    def __init__(self, params: dict):
        self.params = params
        self.threads = max(1, min(len(os.sched_getaffinity(0)), 8))
        self.reference = None
        self.serial_s = None

    def _ratios(self):
        q = self.params
        dr = harness.degrees_of_freedom(q["n"], q["n"], RANK)
        return [(ratio, min(int(round(ratio * dr)), q["n"] ** 2)) for ratio in q["p_over_dr"]]

    def setup(self, seed: int):
        # one problem of each size the sweep generates: its set-up cost
        q = self.params
        for _, p in self._ratios():
            harness.gen_problem(q["n"], q["n"], RANK, p, kind=q["kind"], seed=seed)
        return seed

    def _sweep(self, seed: int, threads: int):
        q = self.params
        return harness.run_sweep(q["n"], q["n"], RANK, q["p_over_dr"], q["trials"],
                                 seed, kind=q["kind"], threads=threads)

    def prepare(self, seed: int) -> None:
        start = time.perf_counter()
        self.reference = self._sweep(seed, threads=1)
        self.serial_s = time.perf_counter() - start

    def task(self, seed: int) -> Outcome:
        q = self.params
        start = time.perf_counter()
        rows = self._sweep(seed, self.threads)
        wall = time.perf_counter() - start
        iterations = int(round(sum(row[3] for row in rows) * q["trials"]))
        return Outcome(wall, iterations, len(rows) * q["trials"], rows=rows)

    def check(self, out: Outcome) -> tuple[int, list[str]]:
        """Failed trials and why, counting every trial of a bad row.

        A row fails when it differs from the serial sweep, names the wrong
        ratio or p, or reports a mean iteration count outside [1, max_iter].
        """
        ratios = self._ratios()
        cap = AdmiraConfig(rank=RANK).iteration_limit
        if len(out.rows) != len(ratios):
            return out.attempted, [f"{len(out.rows)} rows for {len(ratios)} ratios"]
        bad = [f"p/d_r={ratio}: threaded row {row}, serial row {ref}"
               for row, ref, (ratio, p) in zip(out.rows, self.reference, ratios)
               if row != ref or row[:2] != [ratio, p] or not 1 <= row[3] <= cap]
        return len(bad) * self.params["trials"], bad

    def unrecovered(self, out: Outcome) -> int:
        """Trials of the rows whose mean SNR is below SUCCESS_DB (run_sweep
        reports per-ratio means only)."""
        return sum(self.params["trials"] for row in out.rows if not row[2] >= SUCCESS_DB)


def make(params: dict):
    return SweepWorkload(params) if params["task"] == "sweep" else SolveWorkload(params)
