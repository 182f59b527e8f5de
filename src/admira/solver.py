"""Greedy rank-r recovery loop over an abstract measurement operator.

Each iteration forms the proxy matrix A*(b - A x_hat), selects the 2r
dominant atoms of the proxy, merges them with the current atom set, solves
a least-squares fit over the merged span in measurement space, and
re-truncates the fit to rank r. The loop stops on a small relative
residual, a stalled residual, an iteration cap, or a zero proxy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
from .linalg import as_matrix, frobenius_norm, least_squares_minnorm, rescale, unit_scale

__all__ = [
    "AdmiraConfig",
    "AdmiraResult",
    "TraceRow",
    "admira_step",
    "restricted_least_squares",
    "admira_solve",
    "check_stop_rule",
    "RESIDUAL_TOL",
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

# default relative-residual tolerance of every solver
RESIDUAL_TOL = 1e-7


def check_stop_rule(max_iter: int, residual_tol: float) -> None:
    """ValueError unless the iteration budget is at least 1 and the
    relative-residual tolerance is positive; NaN passes neither test."""
    if not max_iter >= 1:
        raise ValueError(f"iteration budget must be at least 1, got {max_iter}")
    if not residual_tol > 0:
        raise ValueError(f"residual tolerance must be positive, got {residual_tol}")


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
    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        check_stop_rule(self.iteration_limit, self.residual_tol)

    @property
    def iteration_limit(self) -> int:
        return 6 * (self.rank + 1) if self.max_iter is None else self.max_iter


@dataclass
class TraceRow:
    residual_l2: float
    rel_residual: float
    error_fro: float | None = None


@dataclass
class AdmiraResult:
    """Final expansion, the trace (row k is iteration k + 1) and the stop reason."""

    expansion: AtomExpansion
    trace: list[TraceRow]
    stop_reason: str

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def matrix(self) -> np.ndarray:
        return assemble(self.expansion)


def proxy(op, residual, work=None) -> np.ndarray:
    """Proxy matrix ``A*(b - A xhat)`` steering the atom selection, from the
    residual ``b - A xhat`` the loop already holds. Not exported: it is a
    module-level name so that perfbench's traced run can wrap ``solver.proxy``."""
    return op.adjoint(residual, work)


def restricted_least_squares(op, b, aset: AtomSet, work=None) -> AtomExpansion:
    """Least-squares fit of ``b`` over span(aset) in measurement space.

    Column j of the design matrix is the measurement of atom j; the
    coefficients are the minimum-norm minimizer, so duplicated or
    numerically dependent atoms are harmless. An empty set gives the empty
    expansion, whose measurement is zero.
    """
    Phi = op.apply_atoms(aset, work)
    coeffs = least_squares_minnorm(Phi, b)
    return AtomExpansion(aset, coeffs)


def admira_step(op, b, expansion: AtomExpansion, residual, rank: int,
                work=None) -> tuple[AtomExpansion, np.ndarray] | None:
    """One iteration from ``expansion`` and its residual ``b - A expansion``.

    Selects up to 2r new atoms from the proxy, merges them with the current
    set (at most 3r atoms total), re-fits over the merged span, truncates
    back to rank r, and returns the new ``(expansion, residual)``. A zero
    proxy cannot make progress and returns ``None``. ``work``, from
    ``op.scratch(3 * rank)``, holds the proxy and selection's float32 copy
    of it, then the fit's design with one row block of gathers past it.
    """
    selection = leading_atoms(proxy(op, residual, work), 2 * rank, work)
    if len(selection) == 0:
        return None
    merged = merge(selection.atoms, expansion.atoms)
    truncated = truncate_expansion(restricted_least_squares(op, b, merged, work), rank)
    measured = op.apply_expansion(truncated, work)
    return truncated, np.subtract(b, measured, out=measured)


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
        "stalled", "max_iter", or "zero_proxy"; past the double range, `rescale` raises.
    """
    y, e = unit_scale(op.check_measurements(b))
    if truth is not None:
        truth = as_matrix(truth, "truth")
        if truth.shape != (op.m, op.n):
            raise ValueError(f"truth has shape {truth.shape}, expected {(op.m, op.n)}")
        truth = np.ldexp(truth, -e)

    b_norm = float(np.linalg.norm(y))
    expansion, residual = empty_expansion(op.m, op.n), y
    trace: list[TraceRow] = []
    changes: deque[float] = deque(maxlen=STALL_WINDOW)
    prev_res = b_norm
    stop = MAX_ITER
    work = op.scratch(3 * config.rank)  # one per solve, never kept on the operator

    for _ in range(config.iteration_limit):
        step = admira_step(op, y, expansion, residual, config.rank, work)
        if step is None:
            stop = ZERO_PROXY
            break
        expansion, residual = step
        res = float(np.linalg.norm(residual))
        rel = res / b_norm
        err = frobenius_norm(truth - assemble(expansion)) if truth is not None else None
        trace.append(TraceRow(float(rescale(res, e, "the residual norm")), rel,
                              None if err is None else float(rescale(err, e, "the error norm"))))
        if rel <= config.residual_tol:
            stop = CONVERGED
            break
        changes.append(abs(prev_res - res) / prev_res)
        prev_res = res
        if len(changes) == STALL_WINDOW and max(changes) < STALL_TOL:
            stop = STALLED
            break

    return AdmiraResult(AtomExpansion(expansion.atoms, rescale(expansion.coeffs, e)), trace, stop)
