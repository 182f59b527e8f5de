import numpy as np
import pytest

from admira.atoms import vectorize
from admira.linalg import frobenius_norm
from admira.operators import EntrySampler, GaussianOperator, MeasurementOperator
from admira.ripcheck import (
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
            est = estimate_delta(op, r, 100, seed=1)
            assert est.delta_hat <= 1e-12

    def test_scaled_isometry(self):
        # doubling every measurement gives ||A Z||^2 = 4, so delta = 3 exactly
        op = ScaledFullSampler(4, 4, 2.0)
        est = estimate_delta(op, 2, 50, seed=2)
        np.testing.assert_allclose(est.delta_hat, 3.0, atol=1e-10)

    def test_gaussian_concentration(self):
        # recorded seed: heavily oversampled rank-1 isometry constant stays small
        op = GaussianOperator(10, 10, 600, seed=31)
        est = estimate_delta(op, 1, 2000, seed=32)
        assert est.delta_hat < 0.5

    def test_monotone_in_r(self):
        op = GaussianOperator(8, 8, 200, seed=5)
        deltas = [estimate_delta(op, r, 100, seed=6).delta_hat for r in (1, 2, 3, 4)]
        assert all(deltas[i + 1] >= deltas[i] for i in range(3))

    def test_deterministic(self):
        op = GaussianOperator(6, 6, 100, seed=7)
        a = estimate_delta(op, 2, 200, seed=8)
        b = estimate_delta(op, 2, 200, seed=8)
        assert a.delta_hat == b.delta_hat
        assert (a.worst_rank, a.worst_index) == (b.worst_rank, b.worst_index)

    def test_samples_used_counts_all_ranks(self):
        op = GaussianOperator(6, 6, 100, seed=9)
        est = estimate_delta(op, 3, 50, seed=10)
        assert est.samples_used == 150

    def test_worst_sample_is_named_and_reproduced(self):
        op = GaussianOperator(6, 6, 100, seed=9)
        est = estimate_delta(op, 3, 50, seed=10)
        assert type(est.worst_rank) is int and 1 <= est.worst_rank <= 3
        rng = derive_rng(10, "rip-rank", est.worst_rank)
        for _ in range(est.worst_index + 1):
            Z = random_low_rank(6, 6, est.worst_rank, rng)
        assert abs(np.sum(op.apply(Z) ** 2) - 1.0) == est.delta_hat

    def test_invalid_rank(self):
        op = GaussianOperator(4, 4, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_delta(op, 5, 10, seed=0)


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
        assert rep.trials == 100
        assert len(rep.pairs) == 100
        assert all(np.isfinite(c.lhs) for c in rep.pairs)

    def test_delta_hat_is_raised_by_pair_combinations(self, monkeypatch):
        # recomputed here: the plain estimate, raised by |<A Z, A Z> - 1| for
        # each normalized Z = X/||X|| +- Y/||Y|| of the tested pairs; one
        # sample per rank leaves room for a combination to set the bound
        from admira import ripcheck

        monkeypatch.setattr(ripcheck, "DELTA_SAMPLES_PER_RANK", 1)
        op = GaussianOperator(8, 8, 40, seed=43)
        rep = restricted_orthogonality_check(op, 3, 30, seed=44)
        plain = estimate_delta(op, 3, 1, derive_seed(44, "rop-delta")).delta_hat
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
        from admira.ripcheck import _orthogonal_pair

        for _ in range(20):
            X, Y = _orthogonal_pair(8, 7, 2, 1, rng)
            assert abs(np.sum(X * Y)) <= 1e-10
            assert np.linalg.matrix_rank(X) <= 2
            assert np.linalg.matrix_rank(Y) <= 1

    def test_requires_r_at_least_two(self):
        op = GaussianOperator(4, 4, 20, seed=3)
        with pytest.raises(ValueError):
            restricted_orthogonality_check(op, 1, 10, seed=4)

    def test_rank_above_matrix_size_rejected(self):
        # a 5x1 matrix has no rank-2 pair to split
        op = GaussianOperator(5, 1, 5, seed=3)
        with pytest.raises(ValueError, match=r"r must be at most min\(m, n\) = 1, got 2"):
            restricted_orthogonality_check(op, 2, 10, seed=4)

    def test_bound_holds_pairwise(self):
        op = GaussianOperator(8, 8, 300, seed=51)
        rep = restricted_orthogonality_check(op, 2, 50, seed=52)
        for check in rep.pairs:
            assert check.lhs <= check.rhs_sqrt2
