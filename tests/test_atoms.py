import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admira import harness, linalg
from admira.atoms import (
    SELECT_TOL,
    AtomExpansion,
    AtomSet,
    assemble,
    empty_expansion,
    leading_atoms,
    merge,
    truncate_expansion,
)
from admira.linalg import frobenius_norm
from admira.solver import admira_step

from oracles import projection, projection_norm_orthonormal, random_orthonormal_atoms

RT2 = np.sqrt(2.0)


def basis_atom(m, n, i, j):
    """One-atom set holding the coordinate matrix e_i e_j^T."""
    left = np.zeros((m, 1))
    right = np.zeros((n, 1))
    left[i] = right[j] = 1.0
    return AtomSet(left, right)


class TestTypes:
    def test_set_requires_unit_norm(self):
        with pytest.raises(ValueError):
            AtomSet([[2.0], [0.0]], [[1.0], [0.0]])
        with pytest.raises(ValueError):
            AtomSet([[1.0], [0.0]], [[0.6], [0.0]])

    def test_expansion_coeff_count(self):
        with pytest.raises(ValueError):
            AtomExpansion(basis_atom(2, 2, 0, 0), np.zeros(2))

    def test_set_of_no_atoms(self):
        aset = AtomSet(np.zeros((4, 0)), np.zeros((3, 0)))
        assert (len(aset), aset.m, aset.n) == (0, 4, 3)

    def test_set_requires_equal_atom_counts(self):
        with pytest.raises(ValueError, match="factor shapes are inconsistent"):
            AtomSet(np.eye(3, 2), np.eye(3, 1))


class TestLeadingAtoms:
    def test_diagonal_top1(self):
        exp = leading_atoms(np.diag([3.0, 1.0]), 1)
        assert len(exp) == 1
        np.testing.assert_allclose(exp.coeffs, [3.0])
        np.testing.assert_allclose(assemble(exp), [[3.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_nonpositive_k_rejected(self):
        # the check lives in svd_truncated
        with pytest.raises(ValueError):
            leading_atoms(np.eye(3), 0)

    def test_non_matrix_rejected(self):
        # checked before the shape is read, with svd_truncated's message
        with pytest.raises(ValueError, match=r"^matrix must be 2-dimensional, got shape \(\)$"):
            leading_atoms(np.float64(3.0), 1)

    def test_zero_matrix_empty(self):
        exp = leading_atoms(np.zeros((2, 2)), 5)
        assert len(exp) == 0
        np.testing.assert_array_equal(assemble(exp), np.zeros((2, 2)))

    def test_ones_matrix(self):
        # top atom u = v = (1, 1)/sqrt(2), coefficient 2 (char-poly oracle)
        exp = leading_atoms(np.ones((2, 2)), 1)
        np.testing.assert_allclose(exp.coeffs, [2.0])
        np.testing.assert_allclose(exp.atoms.left[:, 0], [1 / RT2, 1 / RT2])
        np.testing.assert_allclose(exp.atoms.right[:, 0], [1 / RT2, 1 / RT2])

    def test_returned_set_orthonormal(self, rng):
        M = rng.standard_normal((6, 5))
        exp = leading_atoms(M, 3)
        gram = exp.atoms.inner_products(exp.atoms)
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)

    def test_selection_optimality(self, rng):
        # no random orthonormal atom set beats the leading atoms
        for _ in range(200):
            M = rng.standard_normal((8, 8))
            for k in (1, 2, 3):
                best = projection_norm_orthonormal(
                    leading_atoms(M, k).atoms.left, leading_atoms(M, k).atoms.right, M
                )
                for _ in range(100):
                    qu, qv = random_orthonormal_atoms(8, 8, k, rng)
                    assert best >= projection_norm_orthonormal(qu, qv, M) - 1e-10

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 60), n=st.integers(1, 50), k=st.integers(1, 4),
           gaps=st.lists(st.floats(0.01, 0.5), min_size=49, max_size=49),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
    def test_loose_selection_within_tolerance(self, m, n, k, gaps, scale, seed):
        # distinct singular values, consecutive ones at least 1% apart; the
        # Krylov kernel runs whatever the size, as it does on large proxies
        rng = np.random.default_rng(seed)
        d = min(m, n)
        k = min(k, d)
        sigma = scale * np.cumprod([1.0, *(1.0 - np.array(gaps[: d - 1]))])
        qu, _ = np.linalg.qr(rng.standard_normal((m, d)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, d)))
        M = (qu * sigma) @ qv.T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "GKL_MIN_DIM", 1)
            exp = leading_atoms(M, k)
        U, s, V = exp.atoms.left, exp.coeffs, exp.atoms.right
        assert len(exp) == k
        # each triplet's residual, and the energy of M captured by the atoms
        res = np.maximum(np.linalg.norm(M @ V - U * s, axis=0),
                         np.linalg.norm(M.T @ U - V * s, axis=0))
        assert res.max() <= (SELECT_TOL + 1e-12) * sigma[0]
        captured = np.sum(np.einsum("mk,mn,nk->k", U, M, V) ** 2)
        assert captured >= np.sum(sigma[:k] ** 2) - k * SELECT_TOL * sigma[0] ** 2
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)

    def test_loose_selection_keeps_small_triplets(self, rng, monkeypatch):
        # the loose stop does not loosen the breakdown floor: a triplet far
        # below SELECT_TOL * sigma_1 but above the negligible cut is kept
        monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1)
        qu, _ = np.linalg.qr(rng.standard_normal((120, 3)))
        qv, _ = np.linalg.qr(rng.standard_normal((110, 3)))
        exp = leading_atoms((qu * [1.0, 1e-7, 1e-9]) @ qv.T, 3)
        np.testing.assert_allclose(exp.coeffs, [1.0, 1e-7, 1e-9], rtol=1e-6)

    def test_loose_selection_finds_repeats_a_closed_block_hides(self, rng, monkeypatch):
        # the first block closes on one copy of 1e-6; its complement holds
        # two more, below SELECT_TOL * sigma_1 but far above rounding, so
        # only a negligible-block test at GKL_TOL keeps looking for them (a
        # tail of 1e-8 would sit at GKL_CLOSE, where the block rarely closes)
        monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1)
        qu, _ = np.linalg.qr(rng.standard_normal((60, 5)))
        qv, _ = np.linalg.qr(rng.standard_normal((50, 5)))
        exp = leading_atoms((qu * [1.0, 1e-6, 1e-6, 1e-6, 1e-9]) @ qv.T, 4)
        np.testing.assert_allclose(exp.coeffs, [1.0, 1e-6, 1e-6, 1e-6], rtol=1e-6)

    @pytest.mark.parametrize("size", [30, 120], ids=["dense", "krylov"])
    def test_atoms_share_no_memory_with_the_matrix(self, size, rng):
        # the solver overwrites the proxy with the fit's gathers while it still
        # holds the selected atoms
        assert (size >= linalg.GKL_MIN_DIM) == (size == 120)
        M = rng.standard_normal((size, size))
        exp = leading_atoms(M, 4)
        assert len(exp) == 4
        for part in (exp.atoms.left, exp.atoms.right, exp.coeffs):
            assert not np.shares_memory(part, M)


class TestSingleSelection:
    """Selection from ``linalg.SINGLE_MIN_DIM`` rows and columns, whose Krylov
    products read a float32 copy of the proxy."""

    @settings(max_examples=30, deadline=None)
    @given(extra=st.integers(0, 40), wide=st.booleans(), k=st.integers(1, 4),
           gaps=st.lists(st.floats(0.01, 0.5), min_size=49, max_size=49),
           scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
    def test_within_tolerance(self, extra, wide, k, gaps, scale, seed):
        # test_loose_selection_within_tolerance's contract, in float64, on
        # rank-50 spectra whose consecutive values are at least 1% apart
        rng = np.random.default_rng(seed)
        m, n = linalg.SINGLE_MIN_DIM + extra, linalg.SINGLE_MIN_DIM
        if wide:
            m, n = n, m
        sigma = scale * np.cumprod([1.0, *(1.0 - np.array(gaps))])
        qu, _ = np.linalg.qr(rng.standard_normal((m, 50)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, 50)))
        M = (qu * sigma) @ qv.T
        exp = leading_atoms(M, k)
        U, s, V = exp.atoms.left, exp.coeffs, exp.atoms.right
        assert len(exp) == k
        res = np.maximum(np.linalg.norm(M @ V - U * s, axis=0),
                         np.linalg.norm(M.T @ U - V * s, axis=0))
        assert res.max() <= (SELECT_TOL + 1e-12) * sigma[0]
        captured = np.sum(np.einsum("mk,mn,nk->k", U, M, V) ** 2)
        assert captured >= np.sum(sigma[:k] ** 2) - k * SELECT_TOL * sigma[0] ** 2
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)

    def test_copy_lives_in_work_and_atoms_share_nothing(self, rng):
        # the solver's work array holds the proxy at its head; the float32
        # copy goes past it, and the atoms own their memory
        n = linalg.SINGLE_MIN_DIM
        work = np.full(3 * n * n, np.nan)
        M = work[:n * n].reshape(n, n)
        M[...] = rng.standard_normal((n, n))
        want = M.copy()
        exp = leading_atoms(M, 4, work)
        assert len(exp) == 4
        np.testing.assert_array_equal(M, want)
        np.testing.assert_array_equal(work[n * n:].view(np.float32)[:n * n],
                                      want.astype(np.float32).ravel())
        for part in (exp.atoms.left, exp.atoms.right, exp.coeffs):
            assert not np.shares_memory(part, work)
        np.testing.assert_array_equal(exp.coeffs, leading_atoms(want, 4).coeffs)

    def test_complete_1000_selection_runs_the_kernel_once(self, monkeypatch):
        # the benchmark's complete-1000 problem (seed 1): each of the solve's
        # first three selections passes the float64 check on its first run;
        # a path that always fell back would pass every other test
        prob = harness.gen_problem(1000, 1000, 2, 200_000, seed=1)
        op, b = prob.operator, prob.b
        kernel, calls = linalg._gkl_topk, []
        monkeypatch.setattr(linalg, "_gkl_topk", lambda *args: calls.append(1)
                            or kernel(*args))
        work = op.scratch(6)
        expansion, residual = empty_expansion(1000, 1000), b
        for step in range(1, 4):
            expansion, residual = admira_step(op, b, expansion, residual, 2, work)
            assert len(calls) == step


class TestMerge:
    def test_empty_identity(self):
        merged = merge(basis_atom(2, 2, 0, 0), empty_expansion(2, 2).atoms)
        assert len(merged) == 1

    def test_duplicate_dropped(self):
        a = basis_atom(2, 2, 0, 0)
        assert len(merge(a, a)) == 1

    def test_orthogonal_union(self):
        assert len(merge(basis_atom(2, 2, 0, 0), basis_atom(2, 2, 1, 1))) == 2

    def test_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="different matrix spaces"):
            merge(basis_atom(3, 3, 0, 0), basis_atom(4, 3, 0, 0))

    def test_sign_flipped_duplicate_dropped(self):
        a = AtomSet([[1.0], [0.0]], [[0.0], [1.0]])
        b = AtomSet([[-1.0], [0.0]], [[0.0], [1.0]])
        assert len(merge(a, b)) == 1

    def test_never_reduces_span(self, rng):
        for _ in range(20):
            qu, qv = random_orthonormal_atoms(6, 6, 2, rng)
            a = AtomSet(qu, qv)
            bu, bv = random_orthonormal_atoms(6, 6, 2, rng)
            b = AtomSet(bu, bv)
            coeffs = rng.standard_normal(2)
            M = (qu * coeffs) @ qv.T  # lies in span(a)
            merged = merge(a, b)
            err_merged = frobenius_norm(projection(merged.left, merged.right, M) - M)
            err_a = frobenius_norm(projection(qu, qv, M) - M)
            assert err_merged <= err_a + 1e-10


class TestAssemble:
    def test_empty(self):
        np.testing.assert_array_equal(assemble(empty_expansion(2, 3)), np.zeros((2, 3)))

    def test_single_atom(self):
        exp = AtomExpansion(basis_atom(2, 3, 0, 1), [7.0])
        want = np.zeros((2, 3))
        want[0, 1] = 7.0
        np.testing.assert_array_equal(assemble(exp), want)

    def test_full_reconstruction(self, rng):
        M = rng.standard_normal((5, 4))
        exp = leading_atoms(M, 4)
        assert frobenius_norm(assemble(exp) - M) <= 1e-10 * frobenius_norm(M)


class TestTruncateExpansion:
    def test_orthonormal_passthrough(self, rng):
        M = rng.standard_normal((6, 6))
        exp = leading_atoms(M, 2)
        out = truncate_expansion(exp, 2)
        np.testing.assert_allclose(assemble(out), assemble(exp), atol=1e-10)

    def test_collinear_collapse(self):
        # two copies of the same direction with coefficients 1 and 2 fold to 3
        left = np.column_stack([[1.0, 0.0], [1.0, 0.0]])
        right = np.column_stack([[0.0, 1.0], [0.0, 1.0]])
        exp = AtomExpansion(AtomSet(left, right), np.array([1.0, 2.0]))
        out = truncate_expansion(exp, 1)
        assert len(out) == 1
        np.testing.assert_allclose(out.coeffs, [3.0], atol=1e-12)
        np.testing.assert_allclose(assemble(out), [[0.0, 3.0], [0.0, 0.0]], atol=1e-12)

    def test_matches_dense_path(self, rng):
        for _ in range(20):
            left = rng.standard_normal((7, 6))
            left /= np.linalg.norm(left, axis=0)
            right = rng.standard_normal((5, 6))
            right /= np.linalg.norm(right, axis=0)
            exp = AtomExpansion(AtomSet(left, right), rng.standard_normal(6))
            dense = assemble(exp)
            out = truncate_expansion(exp, 2)
            want = assemble(leading_atoms(dense, 2))
            assert frobenius_norm(assemble(out) - want) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 8), n=st.integers(1, 8), t=st.integers(1, 10),
           r=st.integers(1, 10), seed=st.integers(0, 2**31))
    def test_eckart_young_tail(self, m, n, t, r, seed):
        # ||E - trunc_r(E)||_F^2 = sum_{j>r} sigma_j^2, with t > min(m, n)
        # atoms (a degenerate stack) included
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((m, t))
        left /= np.linalg.norm(left, axis=0)
        right = rng.standard_normal((n, t))
        right /= np.linalg.norm(right, axis=0)
        exp = AtomExpansion(AtomSet(left, right), rng.standard_normal(t))
        dense = assemble(exp)
        s = np.linalg.svd(dense, compute_uv=False)
        err = frobenius_norm(assemble(truncate_expansion(exp, r)) - dense)
        assert abs(err**2 - np.sum(s[r:] ** 2)) <= 1e-10 * np.sum(np.abs(exp.coeffs)) ** 2

    def test_rank_bound(self, rng):
        left = rng.standard_normal((6, 4))
        left /= np.linalg.norm(left, axis=0)
        right = rng.standard_normal((6, 4))
        right /= np.linalg.norm(right, axis=0)
        exp = AtomExpansion(AtomSet(left, right), rng.standard_normal(4))
        out = truncate_expansion(exp, 2)
        assert len(out) <= 2
        assert np.linalg.matrix_rank(assemble(out)) <= 2

    def test_empty_expansion(self):
        out = truncate_expansion(empty_expansion(4, 3), 2)
        assert out.atoms.left.shape == (4, 0) and out.atoms.right.shape == (3, 0)
        assert out.coeffs.shape == (0,)
        np.testing.assert_array_equal(assemble(out), np.zeros((4, 3)))

    def test_nonpositive_rank_rejected(self):
        exp = AtomExpansion(basis_atom(3, 3, 0, 0), np.ones(1))
        with pytest.raises(ValueError, match="r must be positive"):
            truncate_expansion(exp, 0)
