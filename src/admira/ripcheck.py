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
    within the substream derived from (seed, rank); "extra" marks an
    externally supplied sample.
    """

    r: int
    delta_hat: float
    samples_used: int
    seed: int
    worst_rank: object
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
    over the tested pairs; the sqrt(2) bound must never be violated when
    ``delta_hat`` comes from the augmented sample set, while the constant-1
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


def estimate_delta(op, r: int, num_samples: int, seed: int, extra=None) -> RipEstimate:
    """Lower-bound the rank-r isometry constant by sampling.

    For each rank level s = 1..r, ``num_samples`` unit-Frobenius rank-s
    matrices are drawn from a substream derived from (seed, s), and
    ``delta_hat`` is the largest observed ``| ||A Z||^2 - 1 |``. Reusing the
    per-rank substreams makes the estimate monotone non-decreasing in r.
    ``extra`` matrices (normalized internally) join the sample set; the
    orthogonality check uses this to make its bound airtight.
    """
    if not 1 <= r <= min(op.m, op.n):
        raise ValueError(f"r must be in [1, {min(op.m, op.n)}], got {r}")
    if num_samples < 1:
        raise ValueError("num_samples must be positive")

    def samples():
        for s in range(1, r + 1):
            rng = derive_rng(seed, "rip-rank", s)
            for i in range(num_samples):
                yield (s, i), random_low_rank(op.m, op.n, s, rng)
        for i, Z in enumerate(() if extra is None else extra):
            Z = np.asarray(Z, dtype=float)
            nrm = frobenius_norm(Z)
            if nrm != 0.0:
                yield ("extra", i), Z / nrm

    # max keeps the first of equal values: the earliest worst sample
    measured = [(abs(float(np.sum(op.apply(Z) ** 2)) - 1.0), label) for label, Z in samples()]
    delta_hat, worst = max(measured, key=lambda item: item[0])
    return RipEstimate(r, delta_hat, len(measured), seed, worst[0], worst[1])


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
    rank(X) + rank(Y) <= r) are sampled; ``delta_hat`` is estimated over a
    sample set augmented with the normalized combinations
    ``X/||X|| +- Y/||Y||`` of every tested pair, which makes
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
    rank_x = (r + 1) // 2
    rank_y = r - rank_x

    pairs_xy = []
    combos = []
    for i in range(trials):
        rng = derive_rng(seed, "rop-pair", i)
        X, Y = _orthogonal_pair(op.m, op.n, rank_x, rank_y, rng)
        Xu = X / frobenius_norm(X)
        Yu = Y / frobenius_norm(Y)
        combos.extend([Xu + Yu, Xu - Yu])
        pairs_xy.append((X, Y))

    delta = estimate_delta(op, r, DELTA_SAMPLES_PER_RANK, derive_seed(seed, "rop-delta"),
                           extra=combos).delta_hat

    checks = []
    max_ratio = 0.0
    bad_sqrt2 = 0
    bad_1 = 0
    for i, (X, Y) in enumerate(pairs_xy):
        lhs = abs(float(op.apply(X) @ op.apply(Y)))
        scale = delta * frobenius_norm(X) * frobenius_norm(Y)
        rhs_1 = scale
        rhs_sqrt2 = np.sqrt(2.0) * scale
        ratio = lhs / scale if scale > 0.0 else (0.0 if lhs == 0.0 else np.inf)
        max_ratio = max(max_ratio, ratio)
        bad_sqrt2 += lhs > rhs_sqrt2
        bad_1 += lhs > rhs_1
        checks.append(PairCheck(i, lhs, rhs_sqrt2, rhs_1))

    return OrthogonalityReport(trials, delta, max_ratio, bad_sqrt2, bad_1, tuple(checks))
