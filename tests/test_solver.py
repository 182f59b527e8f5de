import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admira.atoms import AtomSet, assemble, empty_expansion, leading_atoms, merge
from admira.baselines import PursuitConfig, SvtConfig, rank_one_pursuit
from admira.harness import gen_problem, solve
from admira.linalg import unit_scale
from admira.operators import EntrySampler, GaussianOperator
from admira.seeding import derive_seed
from admira.solver import (
    CONVERGED,
    STALL_TOL,
    STALL_WINDOW,
    STALLED,
    ZERO_PROXY,
    AdmiraConfig,
    admira_solve,
    admira_step,
    proxy,
    restricted_least_squares,
)


def full_sampler(m, n):
    return EntrySampler.random(m, n, m * n, seed=0)


def rank_r_matrix(m, n, r, rng):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


class TestConfig:
    def test_default_iteration_limit(self):
        assert AdmiraConfig(rank=2).iteration_limit == 18
        assert AdmiraConfig(rank=2, max_iter=60).iteration_limit == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmiraConfig(rank=0)
        with pytest.raises(ValueError):
            AdmiraConfig(rank=1, residual_tol=0.0)
        with pytest.raises(ValueError):
            AdmiraConfig(rank=1, max_iter=0)

    # every solver config goes through the one stop-rule check
    CONFIGS = {
        "admira": lambda **kw: AdmiraConfig(rank=1, **kw),
        "pursuit": lambda budget=1, **kw: PursuitConfig(max_atoms=budget, **kw),
        "svt": lambda **kw: SvtConfig(**kw),
    }

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("tol", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_tolerance_must_be_positive(self, config, tol):
        with pytest.raises(ValueError, match=f"residual tolerance must be positive, got {tol}"):
            self.CONFIGS[config](residual_tol=tol)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_budget_must_be_at_least_one(self, config):
        key = "budget" if config == "pursuit" else "max_iter"
        with pytest.raises(ValueError, match="iteration budget must be at least 1, got 0"):
            self.CONFIGS[config](**{key: 0})


class TestProxy:
    def test_initialization_is_adjoint_of_b(self, rng):
        op = GaussianOperator(4, 4, 10, seed=1)
        b = rng.standard_normal(10)
        np.testing.assert_allclose(proxy(op, b), op.adjoint(b), atol=1e-14)

    def test_fixed_point_is_zero(self, rng):
        op = full_sampler(4, 4)
        X = rank_r_matrix(4, 4, 2, rng)
        b = op.apply(X)
        xhat = leading_atoms(X, 2)
        residual = b - op.apply_expansion(xhat)
        np.testing.assert_allclose(proxy(op, residual), np.zeros((4, 4)), atol=1e-12)

    def test_sampler_proxy_zero_fills(self, rng):
        op = EntrySampler.random(5, 5, 10, seed=3)
        b = rng.standard_normal(10)
        P = proxy(op, b)
        mask = np.zeros((5, 5), dtype=bool)
        mask[op.rows, op.cols] = True
        assert np.all(P[~mask] == 0.0)
        np.testing.assert_allclose(P[op.rows, op.cols], b)


class TestRestrictedLeastSquares:
    def test_consistent_system(self, rng):
        op = GaussianOperator(5, 5, 30, seed=2)
        X = rank_r_matrix(5, 5, 2, rng)
        b = op.apply(X)
        exp = restricted_least_squares(op, b, leading_atoms(X, 2).atoms)
        res = b - op.apply_expansion(exp)
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(b)

    def test_residual_orthogonal_to_measured_atoms(self, rng):
        op = GaussianOperator(6, 6, 20, seed=4)
        b = rng.standard_normal(20)
        aset = leading_atoms(rng.standard_normal((6, 6)), 3).atoms
        exp = restricted_least_squares(op, b, aset)
        res = b - op.apply_expansion(exp)
        Phi = op.apply_atoms(aset)
        scale = np.linalg.norm(Phi) * np.linalg.norm(b)
        assert np.abs(Phi.T @ res).max() <= 1e-8 * scale

    def test_single_atom_scalar_normal_equation(self, rng):
        op = GaussianOperator(4, 4, 12, seed=5)
        aset = leading_atoms(rng.standard_normal((4, 4)), 1).atoms
        b = rng.standard_normal(12)
        phi = op.apply_atoms(aset)[:, 0]
        exp = restricted_least_squares(op, b, aset)
        np.testing.assert_allclose(exp.coeffs, [phi @ b / (phi @ phi)])

    def test_duplicate_atoms_same_fit(self, rng):
        op = GaussianOperator(4, 4, 12, seed=6)
        b = rng.standard_normal(12)
        single = leading_atoms(rng.standard_normal((4, 4)), 1).atoms
        doubled = AtomSet(
            np.column_stack([single.left, single.left]),
            np.column_stack([single.right, single.right]),
        )
        a = restricted_least_squares(op, b, single)
        c = restricted_least_squares(op, b, doubled)
        np.testing.assert_allclose(assemble(c), assemble(a), atol=1e-10)

    def test_empty_set_rejected(self):
        op = GaussianOperator(3, 3, 5, seed=0)
        with pytest.raises(ValueError):
            restricted_least_squares(op, np.zeros(5), empty_expansion(3, 3).atoms)


class TestAdmiraStep:
    def test_identity_measurements_one_step(self, rng):
        op = full_sampler(5, 5)
        X = rank_r_matrix(5, 5, 1, rng)
        b = op.apply(X)
        expansion, residual = admira_step(op, b, empty_expansion(5, 5), b, 1)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(assemble(expansion), X, atol=1e-10)

    def test_zero_measurements_flagged(self):
        # a zero proxy cannot make progress: the step returns no iterate
        op = full_sampler(3, 3)
        b = np.zeros(9)
        assert admira_step(op, b, empty_expansion(3, 3), b, 1) is None

    def test_atom_budget_invariants(self, rng):
        r = 2
        op = GaussianOperator(10, 10, 80, seed=8)
        X = rank_r_matrix(10, 10, r, rng)
        b = op.apply(X)
        expansion, residual = empty_expansion(10, 10), b
        for _ in range(5):
            # the step's proxy reuses the residual: it must be b - A x_hat exactly
            np.testing.assert_array_equal(residual, b - op.apply_expansion(expansion))
            sel = leading_atoms(proxy(op, residual), 2 * r)
            merged = merge(sel.atoms, expansion.atoms)
            expansion, residual = admira_step(op, b, expansion, residual, r)
            assert len(sel) <= 2 * r
            assert len(merged) <= 3 * r
            assert len(expansion) <= r
            assert np.linalg.matrix_rank(assemble(expansion)) <= r

    def test_first_step_reduces_residual(self):
        # regression over recorded seeds: one step always makes progress here
        hits = 0
        for t in range(100):
            seed = derive_seed(777, t)
            rng = np.random.default_rng(derive_seed(seed, "x"))
            op = GaussianOperator(20, 20, 380, seed=derive_seed(seed, "op"))
            X = rank_r_matrix(20, 20, 2, rng)
            b = op.apply(X)
            _, residual = admira_step(op, b, empty_expansion(20, 20), b, 2)
            hits += np.linalg.norm(residual) < np.linalg.norm(b)
        assert hits >= 95


class TestAdmiraSolve:
    def test_identity_measurements(self, rng):
        op = full_sampler(6, 6)
        X = rank_r_matrix(6, 6, 2, rng)
        b = op.apply(X)
        res = admira_solve(op, b, AdmiraConfig(rank=2))
        assert res.stop_reason == CONVERGED
        assert res.iterations == 1
        err = np.linalg.norm(res.matrix() - X, "fro") / np.linalg.norm(X, "fro")
        assert 20 * np.log10(1.0 / err) >= 140

    def test_zero_measurements(self):
        op = full_sampler(4, 4)
        res = admira_solve(op, np.zeros(16), AdmiraConfig(rank=1))
        assert res.stop_reason == ZERO_PROXY
        assert res.iterations == 0
        np.testing.assert_array_equal(res.matrix(), np.zeros((4, 4)))

    def test_rejects_nonfinite(self):
        op = full_sampler(3, 3)
        with pytest.raises(ValueError):
            admira_solve(op, np.full(9, np.nan), AdmiraConfig(rank=1))

    def test_deterministic(self, rng):
        op = GaussianOperator(10, 10, 80, seed=10)
        b = op.apply(rank_r_matrix(10, 10, 2, rng))
        r1 = admira_solve(op, b, AdmiraConfig(rank=2))
        r2 = admira_solve(op, b, AdmiraConfig(rank=2))
        np.testing.assert_array_equal(r1.matrix(), r2.matrix())
        assert [t.residual_l2 for t in r1.trace] == [t.residual_l2 for t in r2.trace]

    def test_trace_bounded_by_max_iter(self, rng):
        op = EntrySampler.random(12, 12, 40, seed=12)
        b = op.apply(rank_r_matrix(12, 12, 2, rng))
        res = admira_solve(op, b, AdmiraConfig(rank=2, max_iter=7))
        assert res.iterations <= 7
        assert all(np.isfinite(t.residual_l2) for t in res.trace)

    def test_noise_floor_stops_stalled(self):
        # at 60 dB the residual settles on the noise floor long before the
        # 1e-7 tolerance; the stall rule ends the run at iteration 96 of 200
        prob = gen_problem(20, 20, 2, 380, kind="gaussian", snr_meas_db=60.0, seed=0)
        res = admira_solve(prob.operator, prob.b, AdmiraConfig(rank=2, max_iter=200))
        assert res.stop_reason == STALLED
        assert res.iterations < 200
        rel = [row.rel_residual for row in res.trace]
        changes = [abs(a - b) / a for a, b in zip(rel[:-1], rel[1:])]
        assert max(changes[-STALL_WINDOW:]) < STALL_TOL

    def test_step6_optimality_each_iteration(self, rng):
        # after the merged fit, the residual is orthogonal to every measured atom;
        # checked indirectly: re-fitting the final atom set cannot reduce the residual
        op = GaussianOperator(8, 8, 100, seed=14)
        X = rank_r_matrix(8, 8, 2, rng)
        b = op.apply(X)
        res = admira_solve(op, b, AdmiraConfig(rank=2, max_iter=5))
        refit = restricted_least_squares(op, b, res.expansion.atoms)
        r_now = np.linalg.norm(b - op.apply_expansion(res.expansion))
        r_refit = np.linalg.norm(b - op.apply_expansion(refit))
        assert r_refit <= r_now + 1e-10

    def test_well_sampled_gaussian_recovery(self):
        # recorded-seed regression in the fast regime (p = 4 * m * n)
        ok = 0
        for t in range(5):
            seed = derive_seed(4321, t)
            rng = np.random.default_rng(derive_seed(seed, "x"))
            op = GaussianOperator(12, 12, 576, seed=derive_seed(seed, "op"))
            X = rank_r_matrix(12, 12, 2, rng)
            b = op.apply(X)
            res = admira_solve(op, b, AdmiraConfig(rank=2, max_iter=40), truth=X)
            ok += res.stop_reason == CONVERGED and res.trace[-1].rel_residual <= 1e-7
        assert ok == 5

    def test_truth_column_never_changes_flow(self, rng):
        op = GaussianOperator(8, 8, 60, seed=15)
        X = rank_r_matrix(8, 8, 2, rng)
        b = op.apply(X)
        with_truth = admira_solve(op, b, AdmiraConfig(rank=2), truth=X)
        without = admira_solve(op, b, AdmiraConfig(rank=2))
        assert [t.residual_l2 for t in with_truth.trace] == [t.residual_l2 for t in without.trace]
        assert all(t.error_fro is not None for t in with_truth.trace)
        assert all(t.error_fro is None for t in without.trace)

    def test_one_scratch_array_per_solve(self, rng, monkeypatch):
        # 120x120 takes the Krylov selection; every operator call of the loop
        # writes into the one array the solve asked for
        op = EntrySampler.random(120, 120, 4000, seed=17)
        b = op.apply(rank_r_matrix(120, 120, 2, rng))
        seen = {"scratch": [], "adjoint": [], "apply_atoms": [], "apply_expansion": []}

        def spy(name):
            original = getattr(EntrySampler, name)

            def wrapped(self, *args):
                result = original(self, *args)
                seen[name].append(result if name == "scratch" else args[-1])
                return result
            monkeypatch.setattr(EntrySampler, name, wrapped)

        for name in seen:
            spy(name)
        res = admira_solve(op, b, AdmiraConfig(rank=2, max_iter=5))
        assert len(seen["scratch"]) == 1 and seen["scratch"][0] is not None
        # apply_atoms serves the fit and, through apply_expansion, the residual
        for name, per_iter in (("adjoint", 1), ("apply_atoms", 2), ("apply_expansion", 1)):
            assert len(seen[name]) == per_iter * res.iterations
            assert all(work is seen["scratch"][0] for work in seen[name])

    def test_truth_of_another_shape_rejected(self, rng):
        # a (1, 6) truth would broadcast against every row of the 6x6 iterate
        op = GaussianOperator(6, 6, 30, seed=16)
        b = op.apply(rank_r_matrix(6, 6, 1, rng))
        with pytest.raises(ValueError, match="truth has shape"):
            admira_solve(op, b, AdmiraConfig(rank=1), truth=np.ones((1, 6)))

    @pytest.mark.parametrize("truth, expect", [
        (np.ones(36), r"^truth must be 2-dimensional, got shape \(36,\)$"),
        (np.full((6, 6), np.nan), "^truth contains non-finite entries$"),
    ], ids=["vector", "nan"])
    def test_truth_checked_as_a_matrix(self, rng, truth, expect):
        op = GaussianOperator(6, 6, 30, seed=16)
        b = op.apply(rank_r_matrix(6, 6, 1, rng))
        with pytest.raises(ValueError, match=expect):
            admira_solve(op, b, AdmiraConfig(rank=1), truth=truth)


def scaled_problem(seed):
    # a well-sampled (p = 4 * m * n) 10x10 rank-2 problem
    rng = np.random.default_rng(derive_seed(seed, "x"))
    op = GaussianOperator(10, 10, 400, seed=derive_seed(seed, "op"))
    X = rank_r_matrix(10, 10, 2, rng)
    return op, X, op.apply(X)


class TestScaleEquivariance:
    """solve(c * b) = c * solve(b): the loop's decisions are scale-free."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(-900, 900))
    def test_power_of_two_scales_exactly(self, seed, k):
        op, X, b = scaled_problem(seed)
        c = 2.0 ** k
        base = admira_solve(op, b, AdmiraConfig(rank=2), truth=X)
        scaled = admira_solve(op, c * b, AdmiraConfig(rank=2), truth=c * X)
        assert scaled.stop_reason == base.stop_reason
        np.testing.assert_array_equal(scaled.expansion.atoms.left, base.expansion.atoms.left)
        np.testing.assert_array_equal(scaled.expansion.coeffs, c * base.expansion.coeffs)
        assert [t.residual_l2 for t in scaled.trace] == [c * t.residual_l2 for t in base.trace]
        assert [t.rel_residual for t in scaled.trace] == [t.rel_residual for t in base.trace]
        assert [t.error_fro for t in scaled.trace] == [c * t.error_fro for t in base.trace]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.sampled_from([1e-300, 1e300]))
    def test_extreme_scales(self, seed, c):
        op, X, b = scaled_problem(seed)
        base = admira_solve(op, b, AdmiraConfig(rank=2, max_iter=40))
        scaled = admira_solve(op, c * b, AdmiraConfig(rank=2, max_iter=40))
        assert scaled.stop_reason == base.stop_reason == CONVERGED
        err = np.linalg.norm(scaled.matrix() / c - base.matrix()) / np.linalg.norm(base.matrix())
        assert err <= 1e-9
        assert all(np.isfinite(t.residual_l2) and np.isfinite(t.rel_residual)
                   for t in scaled.trace)

    @pytest.mark.parametrize("variant", ["omp", "mp"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(-900, 900))
    def test_pursuit_power_of_two_scales_exactly(self, variant, seed, k):
        op, _, b = scaled_problem(seed)
        c = 2.0 ** k
        config = PursuitConfig(max_atoms=6, variant=variant)
        base = rank_one_pursuit(op, b, config)
        scaled = rank_one_pursuit(op, c * b, config)
        assert scaled.stop_reason == base.stop_reason
        np.testing.assert_array_equal(scaled.expansion.atoms.left, base.expansion.atoms.left)
        np.testing.assert_array_equal(scaled.expansion.coeffs, c * base.expansion.coeffs)
        assert [t.residual_l2 for t in scaled.trace] == [c * t.residual_l2 for t in base.trace]
        assert [t.rel_residual for t in scaled.trace] == [t.rel_residual for t in base.trace]

    @pytest.mark.parametrize("variant", ["omp", "mp"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**31), c=st.sampled_from([1e-300, 1e300]))
    def test_pursuit_extreme_scales(self, variant, seed, c):
        op, _, b = scaled_problem(seed)
        config = PursuitConfig(max_atoms=6, variant=variant)
        base = rank_one_pursuit(op, b, config)
        scaled = rank_one_pursuit(op, c * b, config)
        assert scaled.stop_reason == base.stop_reason
        assert scaled.iterations == base.iterations
        err = np.linalg.norm(scaled.matrix() / c - base.matrix()) / np.linalg.norm(base.matrix())
        assert err <= 1e-9
        assert all(np.isfinite(t.residual_l2) and np.isfinite(t.rel_residual)
                   for t in scaled.trace)

    # the 20x20 rank-1 problems at the top of the double range: on the Gaussian
    # one (p = 200) every greedy answer overflows; on the entry one (p = 100)
    # ||b||_2 is finite but ADMiRA's sigma_1 is not, while OMP's and MP's
    # coefficients stay finite doubles
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alg, kind, p, norm, size", [
        ("admira", "gaussian", 200, np.inf, 1.7e308),
        ("omp", "gaussian", 200, np.inf, 1.7e308),
        ("mp", "gaussian", 200, np.inf, 1.7e308),
        ("admira", "entry", 100, 2, 1.5e308),
    ])
    def test_answer_past_the_double_range_is_an_error(self, alg, kind, p, norm, size):
        prob = gen_problem(20, 20, 1, p, kind=kind, seed=1)
        b = prob.b / np.linalg.norm(prob.b, norm) * size
        with pytest.raises(ValueError, match="past the double range at the scale of b"):
            solve(alg, prob.operator, b, 1)

    # unit-scale answers reach 1.1-3.1, so only k >= 1023 overflows: half the
    # draws come from the top exponents
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(alg=st.sampled_from(["admira", "omp", "mp"]),
           kind=st.sampled_from(["gaussian", "entry"]),
           k=st.integers(900, 1024) | st.integers(1020, 1024))
    @example(alg="admira", kind="entry", k=1023)
    def test_top_of_the_range_scales_exactly_or_raises(self, alg, kind, k):
        prob = gen_problem(20, 20, 1, 200 if kind == "gaussian" else 100, kind=kind, seed=1)
        y, _ = unit_scale(prob.b)
        base = solve(alg, prob.operator, y, 1)
        with np.errstate(over="ignore"):
            coeffs = np.ldexp(base.expansion.coeffs, k)
            norms = np.ldexp([t.residual_l2 for t in base.trace], k)
        fits = np.isfinite(coeffs).all() and np.isfinite(norms).all()
        try:
            scaled = solve(alg, prob.operator, np.ldexp(y, k), 1)
        except ValueError as exc:
            assert not fits and "past the double range" in str(exc)
            return
        assert fits
        assert scaled.stop_reason == base.stop_reason
        np.testing.assert_array_equal(scaled.expansion.coeffs, coeffs)
        np.testing.assert_array_equal([t.residual_l2 for t in scaled.trace], norms)
