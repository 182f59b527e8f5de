"""Experiment driver: problem generation, SNR metrics, parameter sweeps,
phase-transition grids, and algorithm comparison tables.

Every randomized quantity derives from the master seed through the
documented splittable scheme, and per-trial results are aggregated in a
fixed order, so any run is exactly reproducible regardless of thread
count. All CSV output goes through :mod:`admira.fileio` at full precision.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .atoms import assemble
from .baselines import PursuitConfig, SvtConfig, rank_one_pursuit, svt_solve
from .fileio import write_csv
from .linalg import frobenius_norm
from .operators import entry_sampler, gaussian_operator
from .seeding import derive_rng, derive_seed
from .solver import AdmiraConfig, AdmiraResult, admira_solve

__all__ = [
    "Problem",
    "TrialReport",
    "PhaseGrid",
    "degrees_of_freedom",
    "gen_problem",
    "snr_recon",
    "snr_meas",
    "default_config",
    "solve",
    "run_trial",
    "run_sweep",
    "phase_transition",
    "compare_table",
    "incremental_rank_search",
    "ALGORITHMS",
]

ALGORITHMS = ("admira", "omp", "mp", "svt")

# SNR threshold counting a completion trial as a success
DEFAULT_SUCCESS_DB = 70.0


@dataclass
class Problem:
    """Ground truth, measurement operator, and (possibly noisy) measurements."""

    x_true: np.ndarray
    operator: object
    b: np.ndarray
    nu: np.ndarray
    n: int
    m: int
    r_true: int
    p: int
    seed: int


@dataclass
class TrialReport:
    algorithm: str
    snr_recon_db: float
    snr_meas_db: float
    iterations: int
    stop_reason: str
    wall_time: float


@dataclass
class PhaseGrid:
    """Success counts over a (p, r) grid of completion problems."""

    n: int
    m: int
    p_values: tuple[int, ...]
    r_values: tuple[int, ...]
    trials: int
    threshold_db: float
    successes: np.ndarray  # shape (len(r_values), len(p_values))

    def to_rows(self):
        rows = []
        for i, r in enumerate(self.r_values):
            for j, p in enumerate(self.p_values):
                rows.append([p, r, int(self.successes[i, j]), self.trials])
        return rows


def degrees_of_freedom(n: int, m: int, r: int) -> int:
    """Essential unknown count of a rank-r m-by-n matrix: r*(n + m - r)."""
    if not 0 <= r <= min(n, m):
        raise ValueError(f"r must be in [0, {min(n, m)}], got {r}")
    return r * (n + m - r)


def gen_problem(
    n: int,
    m: int,
    r: int,
    p: int,
    kind: str = "entry",
    snr_meas_db: float | None = None,
    seed: int = 0,
) -> Problem:
    """Generate a rank-r recovery problem, fully reproducible by seed.

    The truth is a product of standard-Gaussian factors (rank exactly r
    almost surely); ``kind`` selects the operator family ("entry" or
    "gaussian"). When ``snr_meas_db`` is given, white Gaussian noise is
    scaled so the measurement SNR matches it exactly; otherwise ``nu = 0``.
    """
    if r < 1 or r > min(m, n):
        raise ValueError(f"r must be in [1, {min(m, n)}], got {r}")
    truth_rng = derive_rng(seed, "truth")
    yl = truth_rng.standard_normal((m, r))
    yr = truth_rng.standard_normal((n, r))
    x_true = yl @ yr.T

    op_seed = derive_seed(seed, "operator")
    if kind == "entry":
        op = entry_sampler(m, n, p, op_seed)
    elif kind == "gaussian":
        op = gaussian_operator(m, n, p, op_seed)
    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    b_clean = op.apply(x_true)
    if snr_meas_db is None:
        nu = np.zeros(p)
    else:
        clean_norm = float(np.linalg.norm(b_clean))
        if clean_norm == 0.0:
            raise ValueError("cannot set a measurement SNR for zero measurements")
        g = derive_rng(seed, "noise").standard_normal(p)
        nu = g * (clean_norm / np.linalg.norm(g)) * 10.0 ** (-snr_meas_db / 20.0)
    return Problem(x_true, op, b_clean + nu, nu, n, m, r, p, seed)


def snr_recon(x_true, x_hat) -> float:
    """Reconstruction SNR in dB; ``inf`` for an exact reconstruction."""
    ref = frobenius_norm(x_true)
    if ref == 0.0:
        raise ValueError("reconstruction SNR is undefined for a zero truth")
    err = frobenius_norm(np.asarray(x_true, dtype=float) - np.asarray(x_hat, dtype=float))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)


def snr_meas(b_clean, nu) -> float:
    """Measurement SNR in dB; ``inf`` for noiseless measurements."""
    noise = float(np.linalg.norm(np.asarray(nu, dtype=float)))
    if noise == 0.0:
        return math.inf
    return 20.0 * math.log10(float(np.linalg.norm(np.asarray(b_clean, dtype=float))) / noise)


def default_config(algorithm: str, rank: int, max_iter=None, residual_tol=None):
    """Configuration of ``algorithm`` for a rank-``rank`` target. ``None``
    keeps a parameter's default; pursuit's atom budget defaults to ``rank``."""
    tol = {} if residual_tol is None else {"residual_tol": residual_tol}
    if algorithm == "admira":
        return AdmiraConfig(rank=rank, max_iter=max_iter, **tol)
    if algorithm in ("omp", "mp"):
        return PursuitConfig(max_atoms=rank if max_iter is None else max_iter,
                             variant=algorithm, **tol)
    if algorithm == "svt":
        return SvtConfig(**tol) if max_iter is None else SvtConfig(max_iter=max_iter, **tol)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def solve(algorithm: str, op, b, config) -> AdmiraResult:
    """Run ``algorithm`` with ``config`` on the measurements ``b`` of ``op``."""
    if algorithm == "admira":
        return admira_solve(op, b, config)
    if algorithm in ("omp", "mp"):
        return rank_one_pursuit(op, b, config)
    if algorithm == "svt":
        return svt_solve(op, b, config)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def run_trial(problem: Problem, algorithm: str = "admira", config=None) -> TrialReport:
    """Solve one problem with one algorithm and report the usual metrics."""
    if config is None:
        config = default_config(algorithm, problem.r_true)
    start = time.perf_counter()
    result = solve(algorithm, problem.operator, problem.b, config)
    wall = time.perf_counter() - start
    return TrialReport(
        algorithm=algorithm,
        snr_recon_db=snr_recon(problem.x_true, assemble(result.expansion)),
        snr_meas_db=snr_meas(problem.b - problem.nu, problem.nu),
        iterations=result.iterations,
        stop_reason=result.stop_reason,
        wall_time=wall,
    )


def _map_ordered(tasks, threads: int):
    # results come back in task order, so aggregation is thread-count independent
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda task: task(), tasks))


def run_sweep(
    n: int,
    m: int,
    r: int,
    p_over_dr,
    trials: int,
    seed: int,
    kind: str = "entry",
    algorithm: str = "admira",
    snr_meas_db: float | None = None,
    max_iter: int | None = None,
    residual_tol: float | None = None,
    threads: int = 1,
    out: str | None = None,
):
    """Mean SNR and iteration count as the oversampling ratio p/d_r varies.

    Returns one row per ratio: ``[p_over_dr, p, mean_snr_db,
    mean_iterations]``; also written as CSV when ``out`` is given.
    """
    dr = degrees_of_freedom(n, m, r)
    rows = []
    for ratio in p_over_dr:
        p = min(int(round(ratio * dr)), m * n)

        def one(t, p=p):
            def task():
                prob = gen_problem(n, m, r, p, kind=kind, snr_meas_db=snr_meas_db,
                                   seed=derive_seed(seed, "sweep", p, t))
                cfg = default_config(algorithm, prob.r_true, max_iter, residual_tol)
                return run_trial(prob, algorithm, cfg)
            return task

        reports = _map_ordered([one(t) for t in range(trials)], threads)
        mean_snr = float(np.mean([rep.snr_recon_db for rep in reports]))
        mean_iter = float(np.mean([rep.iterations for rep in reports]))
        rows.append([ratio, p, mean_snr, mean_iter])
    if out is not None:
        write_csv(out, ["p_over_dr", "p", "mean_snr_db", "mean_iterations"], rows)
    return rows


def phase_transition(
    n: int,
    m: int,
    p_grid,
    r_grid,
    trials: int,
    seed: int,
    threshold_db: float = DEFAULT_SUCCESS_DB,
    max_iter: int | None = None,
    residual_tol: float | None = None,
    threads: int = 1,
    out: str | None = None,
) -> PhaseGrid:
    """Success counts for matrix completion over a (p, r) grid.

    A trial succeeds when its reconstruction SNR reaches ``threshold_db``.
    CSV rows are ``p, r, successes, trials``.
    """
    p_values = tuple(int(p) for p in p_grid)
    r_values = tuple(int(r) for r in r_grid)
    if not p_values or not r_values:
        raise ValueError("p_grid and r_grid must be non-empty")
    successes = np.zeros((len(r_values), len(p_values)), dtype=int)

    def one(r, p, t):
        def task():
            prob = gen_problem(n, m, r, p, kind="entry",
                               seed=derive_seed(seed, "phase", r, p, t))
            cfg = default_config("admira", prob.r_true, max_iter, residual_tol)
            return run_trial(prob, "admira", cfg)
        return task

    cells = [(i, j) for i in range(len(r_values)) for j in range(len(p_values))]
    tasks = [one(r_values[i], p_values[j], t) for i, j in cells for t in range(trials)]
    reports = _map_ordered(tasks, threads)
    for idx, (i, j) in enumerate(c for c in cells for _ in range(trials)):
        if reports[idx].snr_recon_db >= threshold_db:
            successes[i, j] += 1

    grid = PhaseGrid(n, m, p_values, r_values, trials, threshold_db, successes)
    if out is not None:
        write_csv(out, ["p", "r", "successes", "trials"], grid.to_rows())
    return grid


def compare_table(
    n: int,
    m: int,
    r_list,
    p: int,
    trials: int,
    seed: int,
    algorithms=("admira", "svt"),
    max_iter: int | None = None,
    residual_tol: float | None = None,
    threads: int = 1,
    out: str | None = None,
):
    """Algorithm comparison on identical completion problems.

    Returns rows ``[r, p_over_n2, p_over_dr, alg, snr_db, iters]`` averaged
    over trials; each algorithm sees the same problems.
    """
    rows = []
    for r in r_list:
        problems = [
            gen_problem(n, m, r, p, kind="entry", seed=derive_seed(seed, "compare", r, t))
            for t in range(trials)
        ]
        for alg in algorithms:
            def one(prob):
                def task():
                    cfg = default_config(alg, prob.r_true, max_iter, residual_tol)
                    return run_trial(prob, alg, cfg)
                return task

            reports = _map_ordered([one(prob) for prob in problems], threads)
            rows.append([
                r,
                p / (n * m),
                p / degrees_of_freedom(n, m, r),
                alg,
                float(np.mean([rep.snr_recon_db for rep in reports])),
                float(np.mean([rep.iterations for rep in reports])),
            ])
    if out is not None:
        write_csv(out, ["r", "p_over_n2", "p_over_dr", "alg", "snr_db", "iters"], rows)
    return rows


def incremental_rank_search(op, b, r_max: int, config: AdmiraConfig | None = None) -> AdmiraResult:
    """Search r = 1, 2, ... for the smallest rank that fits the measurements.

    Returns the first result whose relative residual meets the tolerance,
    or the best-residual result seen up to ``r_max``. ``config`` supplies
    tolerances; its rank is overridden (and ``max_iter = None`` keeps the
    per-rank default).
    """
    if r_max < 1:
        raise ValueError("r_max must be positive")
    base = config if config is not None else AdmiraConfig(rank=1)
    best = None
    best_rel = math.inf
    for r in range(1, r_max + 1):
        cfg = dataclasses.replace(base, rank=r)
        result = admira_solve(op, b, cfg)
        rel = result.trace[-1].rel_residual if result.trace else 0.0
        if rel <= cfg.residual_tol:
            return result
        if rel < best_rel:
            best, best_rel = result, rel
    return best
