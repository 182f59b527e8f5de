"""Experiment driver: problem generation, SNR metrics, parameter sweeps,
phase-transition grids, and algorithm comparison tables.

Every randomized quantity derives from the master seed through the
documented splittable scheme, trials run with BLAS pinned to one thread,
and per-trial results are aggregated in a fixed order, so a run gives the
same bits for any worker count, on one OpenBLAS build and kernel set. The
grid functions return rows and counts; writing them is the caller's.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .baselines import PursuitConfig, SvtConfig, rank_one_pursuit, svt_solve
from .linalg import frobenius_norm
from .operators import OPERATOR_KINDS
from .seeding import derive_rng, derive_seed
from .solver import AdmiraConfig, AdmiraResult, admira_solve

__all__ = [
    "Problem",
    "TrialReport",
    "degrees_of_freedom",
    "measurement_count",
    "gen_problem",
    "snr_recon",
    "solve",
    "run_trial",
    "run_sweep",
    "phase_transition",
    "compare_table",
    "ALGORITHMS",
]

ALGORITHMS = ("admira", "omp", "mp", "svt")

# the algorithms compare_table runs, in row order
COMPARE_ALGORITHMS = ("admira", "svt")

# SNR threshold counting a completion trial as a success
DEFAULT_SUCCESS_DB = 70.0


@dataclass
class Problem:
    """Ground truth, measurement operator, and (possibly noisy) measurements."""

    x_true: np.ndarray
    operator: object
    b: np.ndarray
    nu: np.ndarray
    r_true: int


@dataclass
class TrialReport:
    snr_recon_db: float
    iterations: int
    stop_reason: str
    wall_time: float


def degrees_of_freedom(n: int, m: int, r: int) -> int:
    """Essential unknown count of a rank-r m-by-n matrix: r*(n + m - r)."""
    if not 0 <= r <= min(n, m):
        raise ValueError(f"r must be in [0, {min(n, m)}], got {r}")
    return r * (n + m - r)


def measurement_count(n: int, m: int, r: int, p_over_dr: float) -> int:
    """Measurements for oversampling ratio ``p_over_dr`` = p/d_r, capped at
    the m*n entries; the ratio must be positive and finite."""
    if not 0 < p_over_dr < math.inf:
        raise ValueError(f"p/d_r must be positive and finite, got {p_over_dr}")
    return int(round(min(p_over_dr * degrees_of_freedom(n, m, r), m * n)))


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
    almost surely); ``kind`` names the operator family in ``OPERATOR_KINDS``.
    When ``snr_meas_db`` is given, white Gaussian noise is scaled so the
    measurement SNR matches it exactly; ``None`` and ``inf`` give ``nu = 0``.
    NaN, ``-inf`` or an SNR whose noise is not finite is a ``ValueError``.
    """
    if r < 1 or r > min(m, n):
        raise ValueError(f"r must be in [1, {min(m, n)}], got {r}")
    if snr_meas_db is not None and (math.isnan(snr_meas_db) or snr_meas_db == -math.inf):
        raise ValueError(f"measurement SNR must be a number of dB or inf, got {snr_meas_db}")
    truth_rng = derive_rng(seed, "truth")
    yl = truth_rng.standard_normal((m, r))
    yr = truth_rng.standard_normal((n, r))
    x_true = yl @ yr.T

    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    op = OPERATOR_KINDS[kind](m, n, p, derive_seed(seed, "operator"))

    b_clean = op.apply(x_true)
    if snr_meas_db is None:
        nu = np.zeros(p)
    else:
        clean_norm = float(np.linalg.norm(b_clean))
        if clean_norm == 0.0:
            raise ValueError("cannot set a measurement SNR for zero measurements")
        g = derive_rng(seed, "noise").standard_normal(p)
        with np.errstate(over="ignore"):  # NumPy's power overflows to inf; Python's raises
            nu = g * (clean_norm / np.linalg.norm(g)) * np.float64(10.0) ** (-snr_meas_db / 20.0)
        if not np.all(np.isfinite(nu)):
            raise ValueError(f"measurement SNR {snr_meas_db} dB gives non-finite noise")
    return Problem(x_true, op, b_clean + nu, nu, r)


def snr_recon(x_true, x_hat) -> float:
    """Reconstruction SNR in dB; ``inf`` for an exact reconstruction."""
    x_true, x_hat = np.asarray(x_true, dtype=float), np.asarray(x_hat, dtype=float)
    if x_true.shape != x_hat.shape:
        raise ValueError(f"reconstruction has shape {x_hat.shape}, truth has {x_true.shape}")
    ref = frobenius_norm(x_true)
    if ref == 0.0:
        raise ValueError("reconstruction SNR is undefined for a zero truth")
    err = frobenius_norm(x_true - x_hat)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)


def solve(algorithm: str, op, b, rank: int, max_iter=None, residual_tol=None) -> AdmiraResult:
    """Run ``algorithm`` for a rank-``rank`` target on the measurements ``b``
    of ``op``: the one table from algorithm names to solvers. ``None`` keeps
    a parameter's default; pursuit's atom budget defaults to ``rank``."""
    if not 1 <= rank <= min(op.m, op.n):
        raise ValueError(f"rank must be in [1, {min(op.m, op.n)}] for a {op.m}x{op.n} "
                         f"matrix, got {rank}")
    # a chain rather than a dict of functions: each solver is looked up as a
    # module global at call time, so a rebound (traced) name takes effect
    tol = {} if residual_tol is None else {"residual_tol": residual_tol}
    if algorithm == "admira":
        return admira_solve(op, b, AdmiraConfig(rank=rank, max_iter=max_iter, **tol))
    if algorithm in ("omp", "mp"):
        budget = rank if max_iter is None else max_iter
        return rank_one_pursuit(op, b, PursuitConfig(max_atoms=budget, variant=algorithm, **tol))
    if algorithm == "svt":
        iters = {} if max_iter is None else {"max_iter": max_iter}
        return svt_solve(op, b, SvtConfig(**iters, **tol))
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def run_trial(problem: Problem, algorithm: str = "admira", max_iter=None,
              residual_tol=None) -> TrialReport:
    """Solve one problem with one algorithm and report the usual metrics."""
    start = time.perf_counter()
    result = solve(algorithm, problem.operator, problem.b, problem.r_true, max_iter, residual_tol)
    wall = time.perf_counter() - start
    return TrialReport(
        snr_recon_db=snr_recon(problem.x_true, result.matrix()),
        iterations=result.iterations,
        stop_reason=result.stop_reason,
        wall_time=wall,
    )


@functools.cache
def _openblas():
    """``(get, set, core)`` functions of NumPy's bundled OpenBLAS: the
    thread count's reader and setter, and the reader of its kernel set's
    name (say ``b'SkylakeX'``); ``None`` when the library or a symbol is
    not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            funcs = [getattr(lib, f"scipy_openblas_{name}{suffix}", None)
                     for name in ("get_num_threads", "set_num_threads", "get_corename")]
            if None not in funcs:
                get, put, core = funcs
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                core.argtypes, core.restype = [], ctypes.c_char_p
                return get, put, core
    return None


def _pin_blas() -> int | None:
    """Pin NumPy's OpenBLAS to one thread and return its previous count
    (``None`` when the library is not found). BLAS rounding depends on its
    thread count, so trials pinned to one give the same bits for any worker
    count, on one OpenBLAS build and kernel set."""
    blas = _openblas()
    if blas is None:
        return None
    old = blas[0]()
    blas[1](1)
    return old


def _start_worker() -> None:
    """Pin BLAS in a trial worker, and end the worker once the process that
    started it is gone (multiprocessing's parent sentinel), so a killed caller
    leaves no worker holding its pipes open. Under fork, a child that the
    caller forks after the pool started holds the sentinel open until it ends."""
    from multiprocessing import parent_process
    _pin_blas()

    def watch():
        parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _trial(n, m, r, p, kind, snr_meas_db, algorithm, seed, max_iter, residual_tol):
    prob = gen_problem(n, m, r, p, kind=kind, snr_meas_db=snr_meas_db, seed=seed)
    return run_trial(prob, algorithm, max_iter, residual_tol)


_workers = None  # this process's trial workers: (pid, count, executor, finalizer)
_workers_lock = threading.Lock()


def _pool(count):
    """The executor for trials on ``count`` workers, kept for later calls with
    that count; another count, a dead worker or another process gets a new one."""
    global _workers
    # imported here, so that importing the harness loads no multiprocessing (~1 MB)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize
    if _workers is None or _workers[:2] != (os.getpid(), count) or _workers[2]._broken:
        _drop_pool()
        pool = ProcessPoolExecutor(count, initializer=_start_worker)
        # at exit before the queues' feeders stop (priority 10), in multiprocessing children too
        _workers = (os.getpid(), count, pool, Finalize(pool, pool.shutdown, exitpriority=11))
    return _workers[2]


def _drop_pool():
    """Shut down this process's trial workers and wait for them to exit."""
    global _workers
    if _workers is not None:
        _workers[3]()
    _workers = None


def _run_cases(label, cases, trials, seed, threads, max_iter, residual_tol):
    """``trials`` reports per case ``(n, m, r, p, kind, snr_meas_db, algorithm,
    key)``, one list per case in case order. Trial t solves the problem seeded
    by ``derive_seed(seed, label, *key, t)`` on up to ``threads`` workers, so the
    reports do not depend on their count. The workers start once per process,
    serve later calls with the same count, and keep their memory until the
    process exits; they exit with it, also if it is killed."""
    if not cases:
        raise ValueError(f"the {label} grid is empty: each list needs at least one value")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    tasks = [(*case[:7], derive_seed(seed, label, *case[7], t), max_iter, residual_tol)
             for case in cases for t in range(trials)]
    workers = min(threads, len(tasks))
    old = _pin_blas()
    try:
        if workers == 1:
            reports = [_trial(*task) for task in tasks]
        else:
            with _workers_lock:
                reports = list(_pool(workers).map(_trial, *zip(*tasks)))
    finally:
        if old is not None:
            _openblas()[1](old)
    return [reports[k * trials:(k + 1) * trials] for k in range(len(cases))]


def _means(reports) -> list[float]:
    """Mean reconstruction SNR and mean iteration count of ``reports``."""
    return [float(np.mean([rep.snr_recon_db for rep in reports])),
            float(np.mean([rep.iterations for rep in reports]))]


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
):
    """Mean SNR and iteration count as the oversampling ratio p/d_r varies.

    Returns one row per ratio: ``[p_over_dr, p, mean_snr_db,
    mean_iterations]``.
    """
    ps = [measurement_count(n, m, r, ratio) for ratio in p_over_dr]
    groups = _run_cases("sweep", [(n, m, r, p, kind, snr_meas_db, algorithm, (p,)) for p in ps],
                        trials, seed, threads, max_iter, residual_tol)
    return [[ratio, p, *_means(group)] for ratio, p, group in zip(p_over_dr, ps, groups)]


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
) -> np.ndarray:
    """Success counts for matrix completion over a (p, r) grid.

    A trial succeeds when its reconstruction SNR reaches ``threshold_db``.
    Returns the integer counts, shape ``(len(r_grid), len(p_grid))``: row i
    holds ``r_grid[i]``.
    """
    if math.isnan(threshold_db):
        raise ValueError(f"the success threshold must be a number of dB, got {threshold_db}")
    p_values = [int(p) for p in p_grid]
    r_values = [int(r) for r in r_grid]
    cases = [(n, m, r, p, "entry", None, "admira", (r, p)) for r in r_values for p in p_values]
    groups = _run_cases("phase", cases, trials, seed, threads, max_iter, residual_tol)
    successes = [sum(rep.snr_recon_db >= threshold_db for rep in group) for group in groups]
    return np.array(successes).reshape(len(r_values), len(p_values))


def compare_table(
    n: int,
    m: int,
    r_list,
    p: int,
    trials: int,
    seed: int,
    max_iter: int | None = None,
    residual_tol: float | None = None,
    threads: int = 1,
):
    """Algorithm comparison on identical completion problems.

    Returns rows ``[r, p_over_n2, p_over_dr, alg, snr_db, iters]`` averaged
    over trials for each algorithm in ``COMPARE_ALGORITHMS``; each algorithm
    sees the same problems.
    """
    pairs = [(r, alg) for r in r_list for alg in COMPARE_ALGORITHMS]
    groups = _run_cases("compare", [(n, m, r, p, "entry", None, alg, (r,)) for r, alg in pairs],
                        trials, seed, threads, max_iter, residual_tol)
    return [[r, p / (n * m), p / degrees_of_freedom(n, m, r), alg, *_means(group)]
            for (r, alg), group in zip(pairs, groups)]
