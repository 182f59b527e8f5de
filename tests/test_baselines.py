import numpy as np
import pytest

from admira import baselines, harness, linalg
from admira.atoms import SELECT_TOL, empty_expansion, leading_atoms
from admira.baselines import (
    PursuitConfig,
    SvtConfig,
    UnsupportedOperatorError,
    rank_one_pursuit,
    svt_solve,
)
from admira.operators import EntrySampler, GaussianOperator
from admira.seeding import derive_seed
from admira.solver import CONVERGED, ZERO_PROXY, AdmiraConfig, admira_solve, admira_step


def full_sampler(m, n):
    return EntrySampler.random(m, n, m * n, seed=0)


class TestRankOnePursuit:
    def test_rank_one_identity_measurements(self, rng):
        op = full_sampler(5, 5)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        X = 2.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        b = op.apply(X)
        res = rank_one_pursuit(op, b, PursuitConfig(max_atoms=3))
        assert res.stop_reason == CONVERGED
        assert res.iterations == 1
        np.testing.assert_allclose(res.matrix(), X, atol=1e-10)

    def test_zero_measurements(self):
        op = full_sampler(3, 3)
        res = rank_one_pursuit(op, np.zeros(9), PursuitConfig(max_atoms=2))
        assert res.stop_reason == ZERO_PROXY
        assert res.iterations == 0

    def test_omp_residual_monotone(self):
        # recorded-seed regression: residual never increases for the re-fitting variant
        for t in range(10):
            seed = derive_seed(555, t)
            rng = np.random.default_rng(derive_seed(seed, "x"))
            op = GaussianOperator(10, 10, 120, seed=derive_seed(seed, "op"))
            X = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
            b = op.apply(X)
            res = rank_one_pursuit(op, b, PursuitConfig(max_atoms=8))
            rels = [row.residual_l2 for row in res.trace]
            assert all(rels[i + 1] <= rels[i] + 1e-10 for i in range(len(rels) - 1))

    def test_omp_strictly_decreasing_noiseless(self, rng):
        op = GaussianOperator(8, 8, 100, seed=3)
        X = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        b = op.apply(X)
        res = rank_one_pursuit(op, b, PursuitConfig(max_atoms=2))
        rels = [row.residual_l2 for row in res.trace]
        assert all(rels[i + 1] < rels[i] for i in range(len(rels) - 1))

    def test_mp_and_omp_agree_on_first_iteration(self, rng):
        op = GaussianOperator(7, 7, 60, seed=5)
        b = rng.standard_normal(60)
        omp = rank_one_pursuit(op, b, PursuitConfig(max_atoms=1, variant="omp"))
        mp = rank_one_pursuit(op, b, PursuitConfig(max_atoms=1, variant="mp"))
        np.testing.assert_allclose(mp.matrix(), omp.matrix(), atol=1e-8)

    def test_first_atom_matches_two_r_selection(self, rng):
        # same proxy, same decomposition: pursuit's first atom is the top of the 2r set
        op = GaussianOperator(6, 6, 40, seed=7)
        b = rng.standard_normal(40)
        top1 = leading_atoms(op.adjoint(b), 1)
        top4 = leading_atoms(op.adjoint(b), 4)
        np.testing.assert_allclose(top1.atoms.left[:, 0], top4.atoms.left[:, 0])
        np.testing.assert_allclose(top1.atoms.right[:, 0], top4.atoms.right[:, 0])

    def test_mp_folds_duplicate_directions(self):
        # all proxies share one direction; MP must accumulate, not duplicate atoms
        op = full_sampler(4, 4)
        X = np.zeros((4, 4))
        X[1, 2] = 5.0
        b = op.apply(X)
        res = rank_one_pursuit(op, b, PursuitConfig(max_atoms=4, variant="mp"))
        assert len(res.expansion) == 1
        np.testing.assert_allclose(res.matrix(), X, atol=1e-10)

    def test_mp_folds_alternating_directions(self):
        # a 1x2 matrix space holds two orthogonal directions, so MP keeps
        # re-selecting them and folds every later coefficient into one
        op = GaussianOperator(1, 2, 3, seed=5)
        b = np.random.default_rng(1).standard_normal(3)
        res = rank_one_pursuit(op, b, PursuitConfig(max_atoms=8, variant="mp"))
        assert res.iterations == 8
        assert len(res.expansion) == 2
        rels = [row.rel_residual for row in res.trace]
        assert all(later <= earlier for earlier, later in zip(rels, rels[1:]))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            PursuitConfig(max_atoms=1, variant="greedy")


class TestSvt:
    def test_requires_sampler(self):
        op = GaussianOperator(4, 4, 10, seed=1)
        with pytest.raises(UnsupportedOperatorError):
            svt_solve(op, np.zeros(10))

    def test_zero_measurements(self):
        op = EntrySampler.random(4, 4, 8, seed=2)
        res = svt_solve(op, np.zeros(8))
        assert res.stop_reason == ZERO_PROXY
        np.testing.assert_array_equal(res.matrix(), np.zeros((4, 4)))

    def test_small_tau_approaches_zero_fill(self, rng, monkeypatch):
        # with an exhaustive sampler and vanishing threshold the output is the data
        monkeypatch.setattr(baselines, "SVT_TAU_SCALE", 2e-9)
        op = full_sampler(5, 5)
        X = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
        b = op.apply(X)
        res = svt_solve(op, b, SvtConfig(max_iter=50))
        np.testing.assert_allclose(res.matrix(), op.adjoint(b), atol=1e-5)

    def test_completion_recovery(self):
        # recorded-seed regression: desk-scale completion succeeds
        seed = derive_seed(888, 0)
        rng = np.random.default_rng(derive_seed(seed, "x"))
        op = EntrySampler.random(60, 60, 1800, seed=derive_seed(seed, "op"))
        X = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 60))
        b = op.apply(X)
        res = svt_solve(op, b, SvtConfig(max_iter=600))
        err = np.linalg.norm(res.matrix() - X, "fro") / np.linalg.norm(X, "fro")
        assert 20 * np.log10(1.0 / err) >= 70

    def test_short_prediction_grows_by_rank_step(self, monkeypatch):
        # the same growth rule on both sides of GKL_MIN_DIM, capped at min(m, n)
        calls = []
        real = baselines.svd
        monkeypatch.setattr(baselines, "svd", lambda Y, s: calls.append(s) or real(Y, s))
        exp = baselines._shrink_expansion(np.diag(np.arange(20.0, 0.0, -1.0)), 0.5, 1)
        assert calls == [1, 6, 11, 16, 20]
        np.testing.assert_allclose(exp.coeffs, np.arange(19.5, 0.0, -1.0))

    def test_trace_shape_matches_solver(self, rng):
        op = EntrySampler.random(10, 10, 60, seed=4)
        X = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 10))
        res = svt_solve(op, op.apply(X), SvtConfig(max_iter=20))
        assert res.algorithm == "svt"
        assert res.iterations == len(res.trace)
        assert all(np.isfinite(row.rel_residual) for row in res.trace)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales_keep_finite_residuals(self, scale, rng):
        op = EntrySampler.random(10, 10, 60, seed=4)
        X = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 10))
        b = op.apply(X) * scale
        res = svt_solve(op, b, SvtConfig(max_iter=20))
        assert res.stop_reason != ZERO_PROXY and res.iterations == 20
        assert np.isfinite([[row.rel_residual, row.residual_l2] for row in res.trace]).all()
        # the residual recomputed on b / 2^e, where no norm under- or overflows
        e = int(np.frexp(np.abs(b).max())[1])
        r = np.ldexp(b - op.apply(res.matrix()), -e)
        want = np.linalg.norm(r) / np.linalg.norm(np.ldexp(b, -e))
        assert res.trace[-1].rel_residual == pytest.approx(want, rel=1e-9)
        assert res.trace[-1].residual_l2 == pytest.approx(np.ldexp(np.linalg.norm(r), e), rel=1e-9)


@pytest.mark.parametrize("solve", [
    lambda prob: admira_solve(prob.operator, prob.b, AdmiraConfig(rank=2, max_iter=150)),
    lambda prob: svt_solve(prob.operator, prob.b),
], ids=["admira", "svt"])
def test_krylov_path_repeats_exactly(solve, monkeypatch):
    # a 30x30 completion problem forced onto the Krylov kernel, solved on
    # freshly generated copies with other allocations held in between
    monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1)
    runs, held = [], []
    for size in (1, 777, 4099):
        held.append(np.empty(size))
        res = solve(harness.gen_problem(30, 30, 2, 700, seed=3))
        runs.append((res.stop_reason, res.matrix().tobytes(),
                     [t.residual_l2 for t in res.trace]))
    assert runs[0][0] == CONVERGED
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_selection_loose_svt_tight(monkeypatch):
    # admira's selection stops the Krylov kernel at SELECT_TOL; SVT compares
    # singular values with tau, so its shrink and sigma_1 keep GKL_TOL
    monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1)
    kernel, tols = linalg._gkl_topk, []
    monkeypatch.setattr(linalg, "_gkl_topk",
                        lambda A, k, tol: tols.append(tol) or kernel(A, k, tol))
    prob = harness.gen_problem(30, 30, 2, 700, seed=3)
    op = prob.operator
    assert admira_step(op, prob.b, empty_expansion(op.m, op.n), prob.b, rank=2) is not None
    assert tols == [SELECT_TOL]
    tols.clear()
    svt_solve(op, prob.b, SvtConfig(max_iter=5))
    assert len(tols) >= 6 and set(tols) == {linalg.GKL_TOL}
