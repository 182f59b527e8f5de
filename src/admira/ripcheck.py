"""Empirical rank-restricted isometry diagnostics.

The isometry constant of a measurement operator over rank-r matrices is
not computable in general, so `estimate_delta` reports a certified LOWER
bound from random low-rank samples: the true constant can only be larger.
`restricted_orthogonality_check` stress-tests the induced bound on inner
products of measured orthogonal low-rank pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_norm
from .seeding import derive_rng, derive_seed

__all__ = [
    "OrthogonalityReport",
    "random_low_rank",
    "estimate_delta",
    "restricted_orthogonality_check",
]

# samples per rank level behind the orthogonality check's delta_hat
DELTA_SAMPLES_PER_RANK = 200


@dataclass(frozen=True)
class OrthogonalityReport:
    """Outcome of the restricted-orthogonality stress test.

    Pair i has ``lhs[i] = |<A X_i, A Y_i>|`` and the constant-1 bound
    ``bound[i] = delta_hat * ||X_i||_F * ||Y_i||_F``. ``max_ratio`` is the
    largest ``lhs / bound`` (0 for a zero pair under a zero bound, else
    inf). Since ``delta_hat`` covers every tested pair's combinations, the
    constant-1 bound holds by construction up to rounding, and the sqrt(2)
    bound ``sqrt(2) * bound`` with room to spare. A ``delta_hat`` at
    rounding level (an exact isometry) leaves a ratio of noise over noise.
    """

    delta_hat: float
    max_ratio: float
    violations_sqrt2: int
    violations_1: int
    lhs: tuple[float, ...]
    bound: tuple[float, ...]


def random_low_rank(m: int, n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-Frobenius matrix of rank exactly ``rank`` (almost surely).

    Orthonormalized Gaussian factors with Gaussian coefficients, normalized
    so the Frobenius norm is 1.
    """
    Qu, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    Qv, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    c = rng.standard_normal(rank)
    c /= np.linalg.norm(c)
    return (Qu * c) @ Qv.T


def _deviation(op, Z) -> float:
    """``| ||A Z||^2 - 1 |`` for a unit-Frobenius ``Z``."""
    return abs(float(np.sum(op.apply(Z) ** 2)) - 1.0)


def estimate_delta(op, r: int, num_samples: int, seed: int) -> float:
    """Lower-bound the rank-r isometry constant by sampling.

    For each rank level s = 1..r, ``num_samples`` unit-Frobenius rank-s
    matrices are drawn from a substream derived from (seed, s); the bound
    returned is the largest observed ``| ||A Z||^2 - 1 |``. Reusing the
    per-rank substreams makes the estimate monotone non-decreasing in r.
    """
    if not 1 <= r <= min(op.m, op.n):
        raise ValueError(f"r must be in [1, {min(op.m, op.n)}], got {r}")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")

    def samples():
        for s in range(1, r + 1):
            rng = derive_rng(seed, "rip-rank", s)
            for _ in range(num_samples):
                yield _deviation(op, random_low_rank(op.m, op.n, s, rng))

    return max(samples())


def _orthogonal_pair(m, n, rank_x, rank_y, rng):
    # disjoint singular supports on both sides give <X, Y>_F = 0 exactly
    t = rank_x + rank_y
    Qu, _ = np.linalg.qr(rng.standard_normal((m, t)))
    Qv, _ = np.linalg.qr(rng.standard_normal((n, t)))
    cx = rng.standard_normal(rank_x)
    cy = rng.standard_normal(rank_y)
    X = (Qu[:, :rank_x] * cx) @ Qv[:, :rank_x].T
    Y = (Qu[:, rank_x:] * cy) @ Qv[:, rank_x:].T
    return X, Y


def restricted_orthogonality_check(op, r: int, trials: int, seed: int) -> OrthogonalityReport:
    """Verify the measured-inner-product bound for orthogonal low-rank pairs.

    Pairs (X, Y) with disjoint singular supports (Frobenius-orthogonal,
    rank(X) + rank(Y) <= r) are sampled; ``delta_hat`` is the plain
    `estimate_delta` raised to the deviation of every tested pair's
    normalized combinations ``X/||X|| +- Y/||Y||``. For the unit pair x, y
    and z = (x +- y)/||x +- y||, ``||x +- y||^2 = 2 +- 2<x, y>`` and the
    parallelogram identity give ``|<A x, A y>| <= delta_hat + |<x, y>|``,
    and ``<x, y>`` is at rounding level, so the constant-1 bound
    ``|<A X, A Y>| <= delta_hat * ||X||_F * ||Y||_F`` holds up to rounding
    in the real field, and the sqrt(2) bound with it. Unless ``delta_hat``
    is itself at rounding level, a violation is an implementation failure.
    """
    if r < 2:
        raise ValueError("r must be at least 2 to split between two matrices")
    if r > min(op.m, op.n):
        raise ValueError(f"r must be at most min(m, n) = {min(op.m, op.n)}, got {r}")
    if trials < 1:
        raise ValueError("trials must be positive")

    delta = estimate_delta(op, r, DELTA_SAMPLES_PER_RANK, derive_seed(seed, "rop-delta"))
    measured = []
    for i in range(trials):
        X, Y = _orthogonal_pair(op.m, op.n, (r + 1) // 2, r // 2, derive_rng(seed, "rop-pair", i))
        nx, ny = frobenius_norm(X), frobenius_norm(Y)
        for Z in (X / nx + Y / ny, X / nx - Y / ny):
            delta = max(delta, _deviation(op, Z / frobenius_norm(Z)))
        measured.append((abs(float(op.apply(X) @ op.apply(Y))), nx, ny))

    lhs, nx, ny = np.array(measured).T
    bound = delta * nx * ny
    ratio = np.divide(lhs, bound, out=np.where(lhs == 0.0, 0.0, np.inf), where=bound > 0.0)
    return OrthogonalityReport(delta, float(ratio.max()), int(np.sum(lhs > np.sqrt(2.0) * bound)),
                               int(np.sum(lhs > bound)), tuple(lhs.tolist()), tuple(bound.tolist()))
