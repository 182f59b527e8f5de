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
    "RipEstimate",
    "OrthogonalityReport",
    "PairCheck",
    "random_low_rank",
    "estimate_delta",
    "restricted_orthogonality_check",
]

# samples per rank level behind the orthogonality check's delta_hat
DELTA_SAMPLES_PER_RANK = 200


@dataclass(frozen=True)
class RipEstimate:
    """Sampled lower bound on the rank-r isometry constant.

    ``worst_rank``/``worst_index`` identify the sample achieving the bound
    within the substream derived from (seed, rank).
    """

    r: int
    delta_hat: float
    samples_used: int
    seed: int
    worst_rank: int
    worst_index: int


@dataclass(frozen=True)
class PairCheck:
    pair_id: int
    lhs: float
    rhs_sqrt2: float
    rhs_1: float


@dataclass(frozen=True)
class OrthogonalityReport:
    """Outcome of the restricted-orthogonality stress test.

    ``max_ratio`` is the largest ``lhs / (delta_hat * ||X||_F * ||Y||_F)``
    over the tested pairs; the sqrt(2) bound must never be violated, since
    ``delta_hat`` covers every tested pair's combinations, while the constant-1
    bound (real-field improvement) is tracked informationally.
    """

    trials: int
    delta_hat: float
    max_ratio: float
    violations_sqrt2: int
    violations_1: int
    pairs: tuple[PairCheck, ...]


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


def estimate_delta(op, r: int, num_samples: int, seed: int) -> RipEstimate:
    """Lower-bound the rank-r isometry constant by sampling.

    For each rank level s = 1..r, ``num_samples`` unit-Frobenius rank-s
    matrices are drawn from a substream derived from (seed, s), and
    ``delta_hat`` is the largest observed ``| ||A Z||^2 - 1 |``. Reusing the
    per-rank substreams makes the estimate monotone non-decreasing in r.
    """
    if not 1 <= r <= min(op.m, op.n):
        raise ValueError(f"r must be in [1, {min(op.m, op.n)}], got {r}")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")

    def samples():
        for s in range(1, r + 1):
            rng = derive_rng(seed, "rip-rank", s)
            for i in range(num_samples):
                yield _deviation(op, random_low_rank(op.m, op.n, s, rng)), s, i

    # max keeps the first of equal values: the earliest worst sample
    delta_hat, s, i = max(samples(), key=lambda item: item[0])
    return RipEstimate(r, delta_hat, r * num_samples, seed, s, i)


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
    normalized combinations ``X/||X|| +- Y/||Y||``, which makes
    ``|<A X, A Y>| <= sqrt(2) * delta_hat * ||X||_F * ||Y||_F`` hold by the
    parallelogram identity. Violations of the sqrt(2) bound are therefore
    implementation failures; the tighter constant-1 bound (real field) is
    only counted.
    """
    if r < 2:
        raise ValueError("r must be at least 2 to split between two matrices")
    if r > min(op.m, op.n):
        raise ValueError(f"r must be at most min(m, n) = {min(op.m, op.n)}, got {r}")
    if trials < 1:
        raise ValueError("trials must be positive")

    delta = estimate_delta(op, r, DELTA_SAMPLES_PER_RANK, derive_seed(seed, "rop-delta")).delta_hat
    measured = []
    for i in range(trials):
        X, Y = _orthogonal_pair(op.m, op.n, (r + 1) // 2, r // 2, derive_rng(seed, "rop-pair", i))
        nx, ny = frobenius_norm(X), frobenius_norm(Y)
        for Z in (X / nx + Y / ny, X / nx - Y / ny):
            delta = max(delta, _deviation(op, Z / frobenius_norm(Z)))
        measured.append((abs(float(op.apply(X) @ op.apply(Y))), nx, ny))

    checks = []
    max_ratio = 0.0
    bad_sqrt2 = 0
    bad_1 = 0
    for i, (lhs, nx, ny) in enumerate(measured):
        scale = delta * nx * ny  # the constant-1 bound
        rhs_sqrt2 = np.sqrt(2.0) * scale
        ratio = lhs / scale if scale > 0.0 else (0.0 if lhs == 0.0 else np.inf)
        max_ratio = max(max_ratio, ratio)
        bad_sqrt2 += lhs > rhs_sqrt2
        bad_1 += lhs > scale
        checks.append(PairCheck(i, lhs, rhs_sqrt2, scale))

    return OrthogonalityReport(trials, delta, max_ratio, bad_sqrt2, bad_1, tuple(checks))
