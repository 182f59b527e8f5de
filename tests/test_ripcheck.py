import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from admira.atoms import vectorize
from admira.linalg import frobenius_norm
from admira.operators import EntrySampler, GaussianOperator, MeasurementOperator
from admira.ripcheck import (
    _orthogonal_pair,
    estimate_delta,
    random_low_rank,
    restricted_orthogonality_check,
)
from admira.seeding import derive_rng, derive_seed


class ScaledFullSampler(MeasurementOperator):
    """Every entry observed, scaled by a constant: ||A Z||^2 = c^2 ||Z||_F^2."""

    kind = "scaled"

    def __init__(self, m, n, c):
        super().__init__(m, n, m * n)
        self.c = c

    def apply(self, X):
        return self.c * self._check_matrix(X).ravel()

    def adjoint(self, y):
        return self.c * self._check_vector(y).reshape(self.m, self.n)

    def apply_atoms(self, aset):
        return self.c * vectorize(aset)


class RankParity:
    """Not linear: measures Z as the unit vector e_(rank(Z) mod 2), so every
    sampled deviation, and with it the bound, is exactly 0."""

    m = n = 4

    def apply(self, X):
        return np.eye(2)[np.linalg.matrix_rank(X) % 2]


class TestRandomLowRank:
    def test_unit_norm_and_rank(self, rng):
        for rank in (1, 2, 3):
            Z = random_low_rank(6, 5, rank, rng)
            assert abs(np.linalg.norm(Z, "fro") - 1.0) <= 1e-12
            assert np.linalg.matrix_rank(Z) == rank


class TestEstimateDelta:
    def test_exact_isometry(self):
        op = EntrySampler.random(4, 4, 16, seed=0)
        for r in (1, 2, 4):
            assert estimate_delta(op, r, 100, seed=1) <= 1e-12

    def test_scaled_isometry(self):
        # doubling every measurement gives ||A Z||^2 = 4, so delta = 3 exactly
        op = ScaledFullSampler(4, 4, 2.0)
        np.testing.assert_allclose(estimate_delta(op, 2, 50, seed=2), 3.0, atol=1e-10)

    def test_gaussian_concentration(self):
        # recorded seed: heavily oversampled rank-1 isometry constant stays small
        op = GaussianOperator(10, 10, 600, seed=31)
        assert estimate_delta(op, 1, 2000, seed=32) < 0.5

    def test_monotone_in_r(self):
        op = GaussianOperator(8, 8, 200, seed=5)
        deltas = [estimate_delta(op, r, 100, seed=6) for r in (1, 2, 3, 4)]
        assert all(deltas[i + 1] >= deltas[i] for i in range(3))

    def test_deterministic(self):
        op = GaussianOperator(6, 6, 100, seed=7)
        assert estimate_delta(op, 2, 200, seed=8) == estimate_delta(op, 2, 200, seed=8)

    def test_bound_is_the_largest_sampled_deviation(self):
        # every sample recomputed from its (seed, rank) substream
        op = GaussianOperator(6, 6, 100, seed=9)
        delta_hat = estimate_delta(op, 3, 50, seed=10)
        deviations = []
        for s in (1, 2, 3):
            rng = derive_rng(10, "rip-rank", s)
            for _ in range(50):
                Z = random_low_rank(6, 6, s, rng)
                deviations.append(abs(float(np.sum(op.apply(Z) ** 2)) - 1.0))
        assert type(delta_hat) is float
        assert delta_hat == max(deviations)

    def test_invalid_rank(self):
        op = GaussianOperator(4, 4, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_delta(op, 5, 10, seed=0)

    def test_no_samples_rejected(self):
        op = GaussianOperator(4, 4, 10, seed=0)
        with pytest.raises(ValueError, match="num_samples must be positive"):
            estimate_delta(op, 1, 0, 0)


class TestRestrictedOrthogonality:
    def test_full_sampler_exact_orthogonality(self):
        # isometry preserves orthogonality: measured inner products vanish
        op = EntrySampler.random(6, 6, 36, seed=1)
        rep = restricted_orthogonality_check(op, 2, 50, seed=2)
        assert rep.violations_sqrt2 == 0
        assert rep.max_ratio <= 1e-6 or rep.delta_hat <= 1e-10

    def test_gaussian_no_sqrt2_violations(self):
        # recorded seed; the augmented sample set makes the bound airtight
        op = GaussianOperator(10, 10, 600, seed=41)
        rep = restricted_orthogonality_check(op, 2, 100, seed=42)
        assert rep.violations_sqrt2 == 0
        assert len(rep.lhs) == len(rep.bound) == 100
        assert np.all(np.isfinite(rep.lhs)) and np.all(np.isfinite(rep.bound))

    def test_delta_hat_is_raised_by_pair_combinations(self, monkeypatch):
        # recomputed here: the plain estimate, raised by |<A Z, A Z> - 1| for
        # each normalized Z = X/||X|| +- Y/||Y|| of the tested pairs; one
        # sample per rank leaves room for a combination to set the bound
        from admira import ripcheck

        monkeypatch.setattr(ripcheck, "DELTA_SAMPLES_PER_RANK", 1)
        op = GaussianOperator(8, 8, 40, seed=43)
        rep = restricted_orthogonality_check(op, 3, 30, seed=44)
        plain = estimate_delta(op, 3, 1, derive_seed(44, "rop-delta"))
        combos = []
        for i in range(30):
            X, Y = ripcheck._orthogonal_pair(8, 8, 2, 1, derive_rng(44, "rop-pair", i))
            Xu, Yu = X / frobenius_norm(X), Y / frobenius_norm(Y)
            for Z in (Xu + Yu, Xu - Yu):
                Z = Z / frobenius_norm(Z)
                combos.append(abs(float(np.sum(op.apply(Z) ** 2)) - 1.0))
        assert max(combos) > plain
        assert rep.delta_hat == max(plain, *combos)
        assert rep.violations_sqrt2 == 0

    def test_pairs_are_orthogonal_low_rank(self, rng):
        for _ in range(20):
            X, Y = _orthogonal_pair(8, 7, 2, 1, rng)
            assert abs(np.sum(X * Y)) <= 1e-10
            assert np.linalg.matrix_rank(X) <= 2
            assert np.linalg.matrix_rank(Y) <= 1

    def test_requires_r_at_least_two(self):
        op = GaussianOperator(4, 4, 20, seed=3)
        with pytest.raises(ValueError):
            restricted_orthogonality_check(op, 1, 10, seed=4)

    def test_no_trials_rejected(self):
        op = GaussianOperator(4, 4, 20, seed=3)
        with pytest.raises(ValueError, match="trials must be positive"):
            restricted_orthogonality_check(op, 2, 0, 0)

    def test_report_counts_are_ints(self):
        # plain ints, so a report goes through json like any other record
        op = GaussianOperator(6, 6, 40, seed=1)
        rep = restricted_orthogonality_check(op, 2, 5, seed=1)
        assert type(rep.violations_sqrt2) is int and type(rep.violations_1) is int
        assert all(type(x) is float for x in rep.lhs + rep.bound)
        json.dumps(dataclasses.asdict(rep))

    def test_rank_above_matrix_size_rejected(self):
        # a 5x1 matrix has no rank-2 pair to split
        op = GaussianOperator(5, 1, 5, seed=3)
        with pytest.raises(ValueError, match=r"r must be at most min\(m, n\) = 1, got 2"):
            restricted_orthogonality_check(op, 2, 10, seed=4)

    def test_bound_holds_pairwise(self):
        op = GaussianOperator(8, 8, 300, seed=51)
        rep = restricted_orthogonality_check(op, 2, 50, seed=52)
        assert len(rep.lhs) == len(rep.bound) == 50
        for lhs, bound in zip(rep.lhs, rep.bound):
            assert lhs <= np.sqrt(2.0) * bound

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 6), n=st.integers(2, 6), r=st.integers(2, 6),
           full=st.booleans(), op_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
           trials=st.integers(1, 6))
    def test_summaries_recomputed_from_each_pair(self, m, n, r, full, op_seed, seed, trials):
        # small Gaussian operators, or every entry observed (bound near 0);
        # each pair is redrawn from its substream and measured again
        r = min(r, m, n)
        op = (EntrySampler.random(m, n, m * n, op_seed) if full
              else GaussianOperator(m, n, 3 * m * n, op_seed))
        rep = restricted_orthogonality_check(op, r, trials, seed)
        pairs = list(zip(rep.lhs, rep.bound))
        assert len(pairs) == trials
        for i, (lhs, bound) in enumerate(pairs):
            X, Y = _orthogonal_pair(m, n, (r + 1) // 2, r // 2, derive_rng(seed, "rop-pair", i))
            assert lhs == abs(float(op.apply(X) @ op.apply(Y)))
            assert bound == rep.delta_hat * frobenius_norm(X) * frobenius_norm(Y)
        ratios = [a / b if b > 0 else (0.0 if a == 0 else np.inf) for a, b in pairs]
        assert rep.max_ratio == max(ratios)
        assert rep.violations_sqrt2 == sum(a > np.sqrt(2.0) * b for a, b in pairs) == 0
        assert rep.violations_1 == sum(a > b for a, b in pairs)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(3, 8), n=st.integers(3, 8), r=st.integers(2, 8), entry=st.booleans(),
           frac=st.floats(0.2, 3.0), op_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
           trials=st.integers(1, 10))
    def test_constant_one_bound_holds(self, m, n, r, entry, frac, op_seed, seed, trials):
        # for the unit pair x, y, delta_hat covers | ||A z||^2 - 1 | at
        # z = (x +- y)/||x +- y||, and ||x +- y||^2 = 2 +- 2<x, y>, so the
        # parallelogram identity gives |<A x, A y>| <= delta_hat + |<x, y>|,
        # where <x, y> is at rounding level; a delta_hat at rounding level
        # leaves noise over noise (an exact isometry), so it is skipped
        r = min(r, m, n)
        p = max(1, round(frac * m * n))
        op = (EntrySampler.random(m, n, min(p, m * n - 1), op_seed) if entry
              else GaussianOperator(m, n, p, op_seed))
        rep = restricted_orthogonality_check(op, r, trials, seed)
        assume(rep.delta_hat > 1e-6)
        assert rep.violations_1 == 0
        assert rep.max_ratio <= 1.0

    @pytest.mark.parametrize("r, lhs, max_ratio, violations", [
        (3, 0.0, 0.0, 0), (2, 1.0, np.inf, 1)])
    def test_zero_bound(self, r, lhs, max_ratio, violations):
        # r = 3 measures X (rank 2) and Y (rank 1) as e_0 and e_1, so the
        # pair is 0 under a 0 bound; r = 2 measures both as e_1
        rep = restricted_orthogonality_check(RankParity(), r, 3, seed=6)
        assert rep.delta_hat == 0.0
        assert rep.lhs == (lhs,) * 3 and rep.bound == (0.0,) * 3
        assert rep.max_ratio == max_ratio
        assert rep.violations_sqrt2 == rep.violations_1 == 3 * violations
