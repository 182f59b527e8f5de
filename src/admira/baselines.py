"""Comparison algorithms: greedy rank-one pursuit and singular value
thresholding.

Both emit the same result/trace shape as the main solver so the experiment
harness can treat every algorithm uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import AtomExpansion, AtomSet, empty_expansion, leading_atoms, merge
from .linalg import rescale, unit_scale
from .linalg import svd_truncated as svd
from .operators import EntrySampler
from .solver import (
    CONVERGED,
    MAX_ITER,
    RESIDUAL_TOL,
    STALLED,
    ZERO_PROXY,
    AdmiraResult,
    TraceRow,
    check_stop_rule,
    restricted_least_squares,
)

__all__ = [
    "PursuitConfig",
    "SvtConfig",
    "rank_one_pursuit",
    "svt_solve",
]


# rank increment of the SVT shrink when its predicted rank falls short
SVT_RANK_STEP = 5

# SVT threshold tau = SVT_TAU_SCALE * sqrt(m * n), the standard choice
SVT_TAU_SCALE = 5.0

# the shrink's Krylov stop (20 Gate 2 SVT solves: the same 5989 iterations, 5.6 s -> 3.4 s)
SVT_TOL = 1e-6


@dataclass(frozen=True)
class PursuitConfig:
    """Rank-one pursuit parameters; ``variant`` is "omp" or "mp"."""

    max_atoms: int
    residual_tol: float = RESIDUAL_TOL
    variant: str = "omp"

    def __post_init__(self):
        check_stop_rule(self.max_atoms, self.residual_tol)
        if self.variant not in ("omp", "mp"):
            raise ValueError(f"unknown pursuit variant {self.variant!r}")


def _mp_append(exp: AtomExpansion, atom_set: AtomSet, coeff: float) -> AtomExpansion:
    merged = merge(exp.atoms, atom_set)
    if len(merged) > len(exp):
        return AtomExpansion(merged, np.append(exp.coeffs, coeff))
    # merge dropped a re-selected direction: fold it into its closest atom
    inner = exp.atoms.inner_products(atom_set)[:, 0]
    j = int(np.abs(inner).argmax())
    coeffs = exp.coeffs.copy()
    coeffs[j] += coeff * np.sign(inner[j])
    return AtomExpansion(exp.atoms, coeffs)


def rank_one_pursuit(op, b, config: PursuitConfig) -> AdmiraResult:
    """Greedy pursuit selecting one atom per iteration from the proxy.

    The selected atom is the dominant singular pair of ``A*(b - A x_hat)``,
    which maximizes the correlation with the residual over all rank-one
    directions. The OMP variant re-fits all selected atoms by least squares
    each iteration (residual non-increasing); the MP variant only assigns
    the new atom its correlation coefficient
    ``<residual, A psi> / ||A psi||^2`` (the single-atom least-squares fit),
    so both variants coincide on the first iteration. Like ``admira_solve``
    it iterates on ``b`` scaled by a power of two and maps back by `rescale`.
    """
    y, e = unit_scale(op.check_measurements(b))
    b_norm = float(np.linalg.norm(y))
    exp = empty_expansion(op.m, op.n)
    residual = y
    trace: list[TraceRow] = []
    stop = MAX_ITER

    for _ in range(config.max_atoms):
        selection = leading_atoms(op.adjoint(residual), 1)
        if len(selection) == 0:
            stop = ZERO_PROXY
            break
        if config.variant == "omp":
            merged = merge(exp.atoms, selection.atoms)
            if len(merged) == len(exp.atoms):
                stop = STALLED
                break
            exp = restricted_least_squares(op, y, merged)
        else:
            phi = op.apply_atoms(selection.atoms)[:, 0]
            exp = _mp_append(exp, selection.atoms, float(phi @ residual / (phi @ phi)))
        residual = op.apply_expansion(exp)
        np.subtract(y, residual, out=residual)
        res = float(np.linalg.norm(residual))
        rel = res / b_norm
        trace.append(TraceRow(float(rescale(res, e, "the residual norm")), rel))
        if rel <= config.residual_tol:
            stop = CONVERGED
            break

    return AdmiraResult(AtomExpansion(exp.atoms, rescale(exp.coeffs, e)), trace, stop)


@dataclass(frozen=True)
class SvtConfig:
    """Singular value thresholding parameters.

    The threshold is always ``SVT_TAU_SCALE * sqrt(m * n)`` and the step
    size ``1.2 * m * n / p``, the standard choices from the SVT literature.
    The stopping rule mirrors the main solver's relative-residual tolerance
    for a fair iteration-count comparison.
    """

    max_iter: int = 500
    residual_tol: float = RESIDUAL_TOL

    def __post_init__(self):
        check_stop_rule(self.max_iter, self.residual_tol)


def _shrink_expansion(Y: np.ndarray, tau: float, s: int, prev: AtomExpansion) -> AtomExpansion:
    """Shrink the singular values of ``Y`` by ``tau``, dropping those <= tau.

    ``s`` predicts how many exceed tau; the top ``s`` triplets are computed,
    with ``s`` grown by ``SVT_RANK_STEP`` until the smallest is at or below
    tau, each time from the sum of ``prev``'s right factors (cold if empty).
    """
    kmax = min(Y.shape)
    s = min(s, kmax)
    while True:
        U, sigma, V = svd(Y, s, SVT_TOL, tau, prev.atoms.right.sum(axis=1))
        if len(sigma) < s or sigma[-1] <= tau or s == kmax:
            break
        s = min(s + SVT_RANK_STEP, kmax)
    keep = sigma > tau
    return AtomExpansion(AtomSet(U[:, keep], V[:, keep]), sigma[keep] - tau)


def _norm(v: np.ndarray) -> float:
    """``||v||_2`` taken at v's own power-of-two scale, so no square under- or
    overflows; ``inf``, without a warning, when the norm is past the double range."""
    y, e = unit_scale(v)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(y), e))


def svt_solve(sampler, b, config: SvtConfig | None = None) -> AdmiraResult:
    """Matrix completion by iterative singular value shrinkage.

    Maintains a dual variable supported on the observed entries, held as
    its length-p vector z of sampled values; each iteration shrinks the
    singular values of ``A*(z)``, its zero-filled matrix, by ``tau`` and
    takes a gradient step on the residual. Any operator but an entry
    sampler is a ``ValueError``.
    """
    if not isinstance(sampler, EntrySampler):
        raise ValueError("singular value thresholding requires an entry-sampling operator")
    config = config or SvtConfig()
    y = sampler.check_measurements(b)

    m, n, p = sampler.m, sampler.n, sampler.p
    tau = SVT_TAU_SCALE * np.sqrt(m * n)
    step = 1.2 * m * n / p

    # norms are taken at their own scale: the residual's is tau's, not y's
    b_norm = _norm(y)
    if b_norm == 0.0:
        return AdmiraResult(empty_expansion(m, n), [], ZERO_PROXY)
    # sigma_1 <= ||y||_2, so a finite norm keeps the kick's SVD in range
    if not math.isfinite(b_norm):
        raise ValueError("measurements too large for SVT: their 2-norm is not a finite double")

    sigma1 = float(svd(sampler.adjoint(y), 1)[1][0])
    # in Python floats, where overflow is inf, not a warning; z's multiplier must be finite
    kick = float(tau) / (step * sigma1)
    if not math.isfinite(kick * step):
        raise ValueError(f"measurements too small for the SVT threshold tau = {tau:g}")
    k0 = math.ceil(kick)
    z = (k0 * step) * y

    exp = empty_expansion(m, n)
    trace: list[TraceRow] = []
    stop = MAX_ITER
    for _ in range(config.max_iter):
        # the shrunk rank rarely rises by more than one per iteration
        exp = _shrink_expansion(sampler.adjoint(z), tau, len(exp) + 1, exp)
        residual = sampler.apply_expansion(exp)
        np.subtract(y, residual, out=residual)
        res = _norm(residual)
        rel = res / b_norm
        trace.append(TraceRow(res, rel))
        if rel <= config.residual_tol:
            stop = CONVERGED
            break
        z += step * residual

    return AdmiraResult(exp, trace, stop)
