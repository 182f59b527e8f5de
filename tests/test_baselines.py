import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admira import baselines, harness, linalg
from admira.atoms import SELECT_TOL, AtomExpansion, AtomSet, empty_expansion, leading_atoms
from admira.baselines import (
    PursuitConfig,
    SvtConfig,
    UnsupportedOperatorError,
    rank_one_pursuit,
    svt_solve,
)
from admira.operators import EntrySampler, GaussianOperator
from admira.seeding import derive_seed
from admira.solver import (
    CONVERGED,
    STALLED,
    ZERO_PROXY,
    AdmiraConfig,
    admira_solve,
    admira_step,
)


def full_sampler(m, n):
    return EntrySampler.random(m, n, m * n, seed=0)


def near_tau_problem(shape, tau, head, tail_top, c, eta, seed):
    """An m x n matrix with singular values ``head``, then a tail drawn below
    ``tail_top`` (its largest at it), and a previous SVT iterate of c atoms:
    the leading left singular vectors, and right ones tilted by ``eta``."""
    rng = np.random.default_rng(seed)
    m, n = shape
    d = min(shape)
    tail = np.sort(rng.uniform(0.0, tail_top, d - len(head)))[::-1]
    tail[0] = tail_top
    qu, _ = np.linalg.qr(rng.standard_normal((m, d)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, d)))
    Y = (qu * np.concatenate([head, tail])) @ qv.T
    right = qv[:, :c] + eta * rng.standard_normal((n, c))
    prev = AtomExpansion(AtomSet(qu[:, :c], right / np.linalg.norm(right, axis=0)), np.ones(c))
    return Y, prev


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

    def test_omp_stalls_when_merge_drops_the_new_atom(self):
        # the fit reaches a relative residual of 8e-17 at iteration 2; with
        # the tolerance below that, a later proxy's top atom duplicates one
        # already held, merge drops it, and OMP stops before its atom budget
        prob = harness.gen_problem(2, 6, 1, 3, kind="entry", seed=3)
        res = rank_one_pursuit(prob.operator, prob.b,
                               PursuitConfig(max_atoms=6, residual_tol=1e-300))
        assert res.stop_reason == STALLED
        assert res.iterations == len(res.expansion) == 4

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
        # the same growth rule on both sides of GKL_MIN_DIM, capped at min(m, n);
        # every call stops at SVT_TOL, its spare triplet at tau
        calls = []
        real = baselines.svd
        monkeypatch.setattr(baselines, "svd", lambda Y, s, tol, floor, start:
                            calls.append((s, tol, floor)) or real(Y, s, tol, floor, start))
        exp = baselines._shrink_expansion(np.diag(np.arange(20.0, 0.0, -1.0)), 0.5, 1,
                                          empty_expansion(20, 20))
        assert calls == [(s, baselines.SVT_TOL, 0.5) for s in (1, 6, 11, 16, 20)]
        np.testing.assert_allclose(exp.coeffs, np.arange(19.5, 0.0, -1.0))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 60), n=st.integers(2, 50), k=st.integers(1, 6),
           s=st.integers(1, 8), gaps=st.lists(st.floats(0.025, 0.5), min_size=49, max_size=49),
           where=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
    # cases where a floor on the first triplet would drop a singular value above tau
    @example(m=39, n=49, k=2, s=1, gaps=[0.25] * 49, where=1.0, scale=1.0, seed=396)
    @example(m=15, n=49, k=1, s=3, gaps=[0.025] * 49, where=1.0, scale=1.0, seed=901)
    def test_shrink_matches_full_svd(self, m, n, k, s, gaps, where, scale, seed):
        # k singular values above tau, consecutive ones at least 2.5% apart,
        # tau at least 1% from its neighbours; the Krylov path, whose spare
        # triplet stops at tau, keeps the rank and coefficients of LAPACK's
        # full-SVD shrink
        rng = np.random.default_rng(seed)
        d = min(m, n)
        k = min(k, d - 1)
        sigma = scale * np.cumprod([1.0, *(1.0 - np.array(gaps[: d - 1]))])
        tau = 1.01 * sigma[k] + where * (0.99 * sigma[k - 1] - 1.01 * sigma[k])
        qu, _ = np.linalg.qr(rng.standard_normal((m, d)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, d)))
        Y = (qu * sigma) @ qv.T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "GKL_MIN_DIM", 1)
            exp = baselines._shrink_expansion(Y, tau, s, empty_expansion(m, n))
        full = np.linalg.svd(Y, compute_uv=False)
        want = full[full > tau] - tau
        assert len(exp) == len(want) == k
        assert np.abs(exp.coeffs - want).max() <= 1e-12 * full[0]

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(120, 120), (150, 110), (110, 150)]), above=st.integers(0, 4),
           gaps=st.lists(st.floats(0.05, 0.5), min_size=4, max_size=4),
           side=st.sampled_from([-1.0, 1.0]), log_d=st.floats(-12, -5),
           log_tau=st.floats(-3, 3), spare=st.booleans(), log_eta=st.floats(-6, -1),
           seed=st.integers(0, 2**31))
    # draws where a sigma just above tau met SVT_TOL with its Ritz value at or
    # below tau: without the GKL_TOL wait for such a triplet it is dropped
    @example(shape=(120, 120), above=3, gaps=[0.3] * 4, side=1.0, log_d=-12.0,
             log_tau=2.0, spare=False, log_eta=-4.0, seed=2022848208)
    @example(shape=(110, 150), above=1, gaps=[0.2] * 4, side=1.0, log_d=-11.9,
             log_tau=-2.9, spare=False, log_eta=-4.4, seed=1990664737)
    # warm only
    @example(shape=(150, 110), above=2, gaps=[0.1] * 4, side=1.0, log_d=-11.9,
             log_tau=0.4, spare=True, log_eta=-3.2, seed=1714321611)
    def test_near_tau_sigma_lands_on_its_side(self, shape, above, gaps, side, log_d, log_tau,
                                              spare, log_eta, seed):
        # one sigma at tau (1 +- d), d in [1e-12, 1e-5], the ones above it at
        # least 5% apart and the rest at or below 0.9 tau: the Krylov shrink,
        # cold or started from a previous iterate's right factors, keeps
        # exactly the count of LAPACK's full SVD
        tau = 10.0**log_tau
        near = tau * (1.0 + side * 10.0**log_d)
        top = near * np.cumprod(1.0 + np.array(gaps[:above]))[::-1]
        Y, prev = near_tau_problem(shape, tau, [*top, near], 0.9 * tau, above + spare,
                                   10.0**log_eta, seed)
        full = np.linalg.svd(Y, compute_uv=False)
        for start in (empty_expansion(*shape), prev):
            exp = baselines._shrink_expansion(Y, tau, len(prev) + 1, start)
            assert len(exp) == np.sum(full > tau)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(120, 120), (150, 110), (110, 150)]), above=st.integers(0, 4),
           gaps=st.lists(st.floats(0.05, 0.5), min_size=4, max_size=4),
           log_x=st.floats(-3, np.log10(0.05)), log_depth=st.floats(-4, -1),
           log_tau=st.floats(-3, 3), spare=st.booleans(), log_eta=st.floats(-6, -1),
           seed=st.integers(0, 2**31))
    def test_kept_triplets_lie_above_tau(self, shape, above, gaps, log_x, log_depth, log_tau,
                                         spare, log_eta, seed):
        # one sigma 0.1-5% above tau over a dense tail up to tau (1 - 10^-4 ...
        # 10^-1): the floor stop may drop a sigma above tau here (the residual
        # bound places some sigma near the Ritz value, not always sigma_i),
        # but Ritz values are lower bounds, so every kept triplet's sigma
        # exceeds tau and its coefficient is at most sigma - tau
        tau = 10.0**log_tau
        first = tau * (1.0 + 10.0**log_x)
        top = first * np.cumprod(1.0 + np.array(gaps[:above]))[::-1]
        Y, prev = near_tau_problem(shape, tau, [*top, first], tau * (1.0 - 10.0**log_depth),
                                   above + spare, 10.0**log_eta, seed)
        full = np.linalg.svd(Y, compute_uv=False)
        for start in (empty_expansion(*shape), prev):
            exp = baselines._shrink_expansion(Y, tau, len(prev) + 1, start)
            k = len(exp)
            assert k <= np.sum(full > tau)
            assert np.all(exp.coeffs <= full[:k] - tau + 1e-12 * full[0])

    def test_solve_shrinks_keep_the_dense_rank(self, monkeypatch):
        # 300 SVT iterations on a 120 x 120 completion problem, p = 0.2 m n, on
        # the Krylov path: every warm-started shrink keeps the rank of a full
        # SVD, with its coefficients within 1e-9 sigma_1
        prob = harness.gen_problem(120, 120, 2, 2880, seed=20117)
        real, seen = baselines._shrink_expansion, []

        def checked(Y, tau, s, prev):
            exp = real(Y, tau, s, prev)
            full = np.linalg.svd(Y, compute_uv=False)
            want = full[full > tau] - tau
            assert len(exp) == len(want)
            assert np.abs(exp.coeffs - want).max(initial=0.0) <= 1e-9 * full[0]
            seen.append(len(prev))
            return exp

        monkeypatch.setattr(baselines, "_shrink_expansion", checked)
        res = svt_solve(prob.operator, prob.b, SvtConfig(max_iter=300))
        assert len(seen) == res.iterations == 300 and max(seen) >= 2

    def test_trace_shape_matches_solver(self, rng):
        op = EntrySampler.random(10, 10, 60, seed=4)
        X = rng.standard_normal((10, 1)) @ rng.standard_normal((1, 10))
        res = svt_solve(op, op.apply(X), SvtConfig(max_iter=20))
        assert res.iterations == len(res.trace)
        assert all(np.isfinite(row.rel_residual) for row in res.trace)

    def test_tiny_measurements_rejected(self, rng):
        # the first kick tau / (step * sigma_1) is too large for a double
        op = EntrySampler.random(20, 20, 200, seed=1)
        X = rng.standard_normal((20, 1)) @ rng.standard_normal((1, 20))
        with pytest.raises(ValueError, match="measurements too small for the SVT threshold"):
            svt_solve(op, op.apply(X) * 1e-312)

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

    @pytest.mark.parametrize("scale", [1e-300, 1e-307])
    def test_residual_norm_far_above_tiny_measurements(self, scale):
        # the first shrink lives at the scale of tau, so the residual is some
        # 2^1000 above b: each norm must be taken at its own vector's scale
        prob = harness.gen_problem(20, 20, 1, 200, kind="entry", seed=1)
        b = prob.b * scale
        res = svt_solve(prob.operator, b, SvtConfig(max_iter=1))
        r = b - prob.operator.apply(res.matrix())
        want = np.abs(r).max() * np.linalg.norm(r / np.abs(r).max())
        assert res.trace[0].residual_l2 == pytest.approx(want, rel=1e-9)
        b_norm = np.abs(b).max() * np.linalg.norm(b / np.abs(b).max())
        assert res.trace[0].rel_residual == pytest.approx(want / b_norm, rel=1e-9)

    def test_measurement_norm_past_the_double_range_rejected(self):
        # sigma_1 of A*(b) is 2e308: the kick's SVD would return no triplet
        op = EntrySampler(2, 2, np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]))
        with pytest.raises(ValueError, match="2-norm is not a finite double"):
            svt_solve(op, np.full(4, 1e308))


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
    # admira's selection stops the Krylov kernel at SELECT_TOL, from the
    # seeded start. SVT's sigma_1 keeps GKL_TOL, since the first step's
    # multiple ceil(tau / (step * sigma_1)) depends on it; its shrinks stop at
    # SVT_TOL with tau as the floor, and start from the previous iterate's
    # right factors (a zero start, so cold, on the first)
    monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1)
    kernel, calls = linalg._gkl_topk, []
    monkeypatch.setattr(linalg, "_gkl_topk", lambda matvec, rmatvec, m, n, k, tol, floor, start:
                        calls.append((tol, floor, start))
                        or kernel(matvec, rmatvec, m, n, k, tol, floor, start))
    prob = harness.gen_problem(30, 30, 2, 700, seed=3)
    op = prob.operator
    assert admira_step(op, prob.b, empty_expansion(op.m, op.n), prob.b, rank=2) is not None
    assert calls == [(SELECT_TOL, -np.inf, None)]
    calls.clear()
    svt_solve(op, prob.b, SvtConfig(max_iter=5))
    tau = baselines.SVT_TAU_SCALE * 30
    assert len(calls) >= 6 and calls[0] == (linalg.GKL_TOL, -np.inf, None)
    assert {call[:2] for call in calls[1:]} == {(baselines.SVT_TOL, tau)}
    assert not calls[1][2].any() and calls[-1][2].any()
