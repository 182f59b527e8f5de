"""Greedy rank-r recovery loop over an abstract measurement operator.

Each iteration forms the proxy matrix A*(b - A x_hat), selects the 2r
dominant atoms of the proxy, merges them with the current atom set, solves
a least-squares fit over the merged span in measurement space, and
re-truncates the fit to rank r. The loop stops on a small relative
residual, a stalled residual, an iteration cap, or a zero proxy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .atoms import (
    AtomExpansion,
    AtomSet,
    assemble,
    empty_expansion,
    leading_atoms,
    merge,
    truncate_expansion,
)
from .linalg import as_matrix, frobenius_norm, least_squares_minnorm

__all__ = [
    "AdmiraConfig",
    "AdmiraState",
    "AdmiraResult",
    "TraceRow",
    "proxy",
    "admira_step",
    "restricted_least_squares",
    "scale_measurements",
    "admira_solve",
    "CONVERGED",
    "MAX_ITER",
    "STALLED",
    "ZERO_PROXY",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"
ZERO_PROXY = "zero_proxy"

# STALL_WINDOW consecutive relative residual changes below STALL_TOL stop
# the loop (operators without isometry behaviour, such as entry samplers,
# can cycle)
STALL_WINDOW = 3
STALL_TOL = 1e-6


@dataclass(frozen=True)
class AdmiraConfig:
    """Solver parameters.

    ``max_iter = None`` resolves to ``6 * (rank + 1)``, the point past which
    extra iterations stop paying off. ``residual_tol`` is relative to
    ``||b||_2``. The stall test (``STALL_TOL`` over ``STALL_WINDOW``
    iterations) and the least-squares rank cutoff (``DEFAULT_RANK_TOL``)
    are fixed.
    """

    rank: int
    max_iter: int | None = None
    residual_tol: float = 1e-7

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")

    @property
    def iteration_limit(self) -> int:
        return 6 * (self.rank + 1) if self.max_iter is None else self.max_iter


@dataclass
class AdmiraState:
    """One solver iterate: current expansion, iteration count, residual."""

    expansion: AtomExpansion
    iteration: int
    residual: np.ndarray
    zero_proxy: bool = False

    @property
    def atom_set(self) -> AtomSet:
        return self.expansion.atoms


@dataclass
class TraceRow:
    iteration: int
    residual_l2: float
    rel_residual: float
    error_fro: float | None = None


@dataclass
class AdmiraResult:
    """Final expansion plus the per-iteration trace and the stop reason."""

    expansion: AtomExpansion
    trace: list[TraceRow] = field(default_factory=list)
    stop_reason: str = MAX_ITER
    algorithm: str = "admira"

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def matrix(self) -> np.ndarray:
        return assemble(self.expansion)


def proxy(op, residual) -> np.ndarray:
    """Proxy matrix ``A*(b - A xhat)`` steering the atom selection, from the
    residual ``b - A xhat`` the loop already holds."""
    return op.adjoint(residual)


def restricted_least_squares(op, b, aset: AtomSet) -> AtomExpansion:
    """Least-squares fit of ``b`` over span(aset) in measurement space.

    Column j of the design matrix is the measurement of atom j; the
    coefficients are the minimum-norm minimizer, so duplicated or
    numerically dependent atoms are harmless.
    """
    if len(aset) == 0:
        raise ValueError("atom set must be non-empty")
    Phi = op.apply_atoms(aset)
    coeffs = least_squares_minnorm(Phi, b)
    return AtomExpansion(aset, coeffs)


def admira_step(state: AdmiraState, op, b, config: AdmiraConfig) -> AdmiraState:
    """Advance the solver by one iteration.

    Selects up to 2r new atoms from the proxy, merges them with the current
    set (at most 3r atoms total), re-fits over the merged span, truncates
    back to rank r, and recomputes the residual. A zero proxy cannot make
    progress and comes back flagged, with the iterate unchanged.
    """
    r = config.rank
    selection = leading_atoms(proxy(op, state.residual), 2 * r)
    if len(selection) == 0:
        return AdmiraState(state.expansion, state.iteration, state.residual, zero_proxy=True)
    merged = merge(selection.atoms, state.atom_set)
    fitted = restricted_least_squares(op, b, merged)
    truncated = truncate_expansion(fitted, r)
    residual = b - op.apply_expansion(truncated)
    return AdmiraState(truncated, state.iteration + 1, residual)


def scale_measurements(op, b) -> tuple[np.ndarray, int]:
    """``(b / 2^e, e)`` with ``max|b / 2^e|`` in [0.5, 1); ``b`` is checked
    against ``op`` first.

    No norm of the scaled vector under- or overflows at any finite scale of
    ``b``; a power of two scales exactly, and ``np.ldexp(., e)`` maps
    coefficients and norms back without rounding.
    """
    y = op.check_measurements(b)
    e = int(np.frexp(np.abs(y).max())[1])
    return np.ldexp(y, -e), e


def admira_solve(op, b, config: AdmiraConfig, truth=None) -> AdmiraResult:
    """Run the full greedy recovery loop.

    Parameters
    ----------
    op : MeasurementOperator
    b : array_like, shape (p,)
        Measurements, possibly noisy.
    config : AdmiraConfig
    truth : array_like, optional
        Known ground-truth matrix; when given, each trace row also records
        the Frobenius error against it. Never influences control flow.

    Returns
    -------
    AdmiraResult
        Stop reason is "converged" (relative residual <= residual_tol),
        "stalled", "max_iter", or "zero_proxy".
    """
    y, e = scale_measurements(op, b)
    if truth is not None:
        truth = np.ldexp(as_matrix(truth, "truth"), -e)

    b_norm = float(np.linalg.norm(y))
    state = AdmiraState(empty_expansion(op.m, op.n), 0, y.copy())
    trace: list[TraceRow] = []
    changes: deque[float] = deque(maxlen=STALL_WINDOW)
    prev_res = b_norm
    stop = MAX_ITER

    for _ in range(config.iteration_limit):
        state = admira_step(state, op, y, config)
        if state.zero_proxy:
            stop = ZERO_PROXY
            break
        res = float(np.linalg.norm(state.residual))
        rel = res / b_norm
        err = frobenius_norm(truth - assemble(state.expansion)) if truth is not None else None
        trace.append(TraceRow(state.iteration, float(np.ldexp(res, e)), rel,
                              None if err is None else float(np.ldexp(err, e))))
        if rel <= config.residual_tol:
            stop = CONVERGED
            break
        changes.append(abs(prev_res - res) / max(prev_res, 1e-300))
        prev_res = res
        if len(changes) == STALL_WINDOW and max(changes) < STALL_TOL:
            stop = STALLED
            break

    exp = state.expansion
    return AdmiraResult(AtomExpansion(exp.atoms, np.ldexp(exp.coeffs, e)), trace, stop)
