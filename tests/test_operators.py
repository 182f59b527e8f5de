import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admira import linalg
from admira.atoms import AtomExpansion, AtomSet, assemble, empty_expansion, leading_atoms
from admira.operators import OPERATOR_KINDS, EntrySampler, GaussianOperator


def random_expansion(m, n, t, rng):
    left = rng.standard_normal((m, t))
    left /= np.linalg.norm(left, axis=0)
    right = rng.standard_normal((n, t))
    right /= np.linalg.norm(right, axis=0)
    return AtomExpansion(AtomSet(left, right), rng.standard_normal(t))


class TestGaussianOperator:
    def test_deterministic_for_seed(self):
        a = GaussianOperator(3, 4, 6, seed=42)
        b = GaussianOperator(3, 4, 6, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_linearity_on_zero(self):
        op = GaussianOperator(3, 3, 5, seed=0)
        np.testing.assert_array_equal(op.apply(np.zeros((3, 3))), np.zeros(5))

    def test_mean_energy_near_isometry(self):
        # E||A X||^2 = ||X||_F^2 under entry variance 1/p
        vals = [
            np.sum(GaussianOperator(2, 2, 4, seed=s).apply(np.eye(2)) ** 2)
            for s in range(100)
        ]
        assert abs(np.mean(vals) - 2.0) <= 0.4  # within 20% of ||I||_F^2 = 2

    def test_empirical_isometry_rank1(self, rng):
        m = n = 8
        op = GaussianOperator(m, n, 10 * (m + n), seed=7)
        vals = []
        for _ in range(500):
            u = rng.standard_normal(m)
            v = rng.standard_normal(n)
            X = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
            vals.append(np.sum(op.apply(X) ** 2))
        assert 0.9 <= np.mean(vals) <= 1.1

    def test_apply_is_matrix_times_vec(self, rng):
        op = GaussianOperator(3, 4, 7, seed=1)
        X = rng.standard_normal((3, 4))
        np.testing.assert_allclose(op.apply(X), op.matrix @ X.ravel())

    def test_memory_budget(self):
        # 8 * 20000 * 100 * 100 bytes = 1.6 GB: refused before anything is allocated
        with pytest.raises(MemoryError, match="dense operator needs"):
            GaussianOperator(100, 100, 20000, seed=0)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError, match="m, n and p must be positive"):
            GaussianOperator(0, 3, 3, seed=0)

    def test_shape_validation(self):
        op = GaussianOperator(3, 4, 5, seed=0)
        with pytest.raises(ValueError):
            op.apply(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(6))


class TestEntrySampler:
    def test_exhaustive_sampling(self):
        op = EntrySampler.random(2, 2, 4, seed=3)
        assert sorted(zip(op.rows, op.cols)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_apply_adjoint_identity_on_measurements(self, rng):
        op = EntrySampler.random(5, 6, 12, seed=1)
        y = rng.standard_normal(12)
        np.testing.assert_allclose(op.apply(op.adjoint(y)), y)

    def test_adjoint_apply_masks(self, rng):
        op = EntrySampler.random(4, 4, 16, seed=2)
        X = rng.standard_normal((4, 4))
        np.testing.assert_allclose(op.adjoint(op.apply(X)), X)

    def test_adjoint_support(self, rng):
        op = EntrySampler.random(5, 5, 7, seed=4)
        Z = op.adjoint(rng.standard_normal(7))
        mask = np.zeros((5, 5), dtype=bool)
        mask[op.rows, op.cols] = True
        assert np.all(Z[~mask] == 0.0)

    def test_apply_order_matches_omega(self, rng):
        op = EntrySampler.random(6, 3, 9, seed=5)
        X = rng.standard_normal((6, 3))
        np.testing.assert_array_equal(op.apply(X), X[op.rows, op.cols])

    def test_deterministic_for_seed(self):
        a = EntrySampler.random(8, 8, 20, seed=11)
        b = EntrySampler.random(8, 8, 20, seed=11)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            EntrySampler.random(2, 2, 5, seed=0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            EntrySampler(2, 2, [0, 0], [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EntrySampler(2, 2, [0, 2], [0, 0])
        with pytest.raises(ValueError, match="column index out of range"):
            EntrySampler(3, 3, [0], [3])

    def test_unequal_index_lengths_rejected(self):
        with pytest.raises(ValueError, match="rows and cols must have equal length"):
            EntrySampler(3, 3, [0, 1], [0])

    @pytest.mark.parametrize("rows, cols", [
        ([0.5, 1.7], [0, 1]),
        ([0, 1], [0.0, 1.0]),
        ([True, False], [0, 1]),
    ])
    def test_non_integer_indices_rejected(self, rows, cols):
        # 0.5 and 1.7 used to be truncated to rows 0 and 1 without a word
        with pytest.raises(ValueError, match="indices must be integers"):
            EntrySampler(3, 3, rows, cols)

    def test_indices_are_private_copies(self):
        # a later write to the caller's array cannot bypass the range check
        r, c = np.array([0, 1]), np.array([0, 1])
        op = EntrySampler(3, 3, r, c)
        r[0], c[0] = 7, 2
        assert op.rows.tolist() == [0, 1] and op.cols.tolist() == [0, 1]
        assert op.flat.tolist() == [0, 4]
        assert not np.shares_memory(op.rows, r) and not np.shares_memory(op.cols, c)
        assert not np.shares_memory(op.flat, r) and not np.shares_memory(op.flat, c)

    def test_indices_read_only(self):
        op = EntrySampler(3, 3, [0, 1], [0, 1])
        with pytest.raises(ValueError, match="read-only"):
            op.rows[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            op.cols[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            op.flat[0] = 1

    def test_shape_past_the_index_range_rejected(self):
        # rows * n would wrap to 0 for both positions, so they looked like one
        with pytest.raises(ValueError, match="a 8589934592x8589934592 matrix has more "
                                             "entries than np.intp holds"):
            EntrySampler(2**33, 2**33, [0, 2**31], [0, 0])

    def test_atoms_of_another_shape_rejected(self, rng):
        # "clip" gathers would clamp the rows of a smaller matrix
        op = EntrySampler.random(6, 5, 14, seed=6)
        with pytest.raises(ValueError, match="atoms of a 4x5 matrix"):
            op.apply_atoms(random_expansion(4, 5, 2, rng).atoms)

    @pytest.mark.parametrize("t", [0, 1, 6])
    def test_gathers_equal_fancy_indexing_exactly(self, t, rng):
        op = EntrySampler.random(40, 30, 500, seed=6)
        exp = random_expansion(op.m, op.n, t, rng)
        s = exp.atoms
        want = s.left[op.rows, :] * s.right[op.cols, :]
        # no work array, a fresh one, and one holding NaN from an earlier use
        for work in (None, op.scratch(6), np.full_like(op.scratch(6), np.nan)):
            assert np.array_equal(op.apply_atoms(s, work), want)
            assert np.array_equal(op.apply_expansion(exp, work), want @ exp.coeffs)


@st.composite
def positions(draw):
    """(m, n, flat) with m, n in [1, 9] and distinct flat positions in [0, mn)."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    flat = draw(st.lists(st.integers(0, m * n - 1), min_size=1, max_size=m * n, unique=True))
    return m, n, flat


class TestFlatIndex:
    # apply and adjoint read the flat index; fancy indexing on (rows, cols)
    # is the reference, and gathers and scatters must match it bit for bit

    @settings(max_examples=100, deadline=None)
    @given(case=positions(), seed=st.integers(0, 2**31))
    def test_apply_equals_fancy_indexing(self, case, seed):
        m, n, flat = case
        op = EntrySampler(m, n, *np.divmod(flat, n))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, n))
        strided = rng.standard_normal((2 * m + 1, 3 * n))[1::2, ::3]
        for Y in (X, np.asfortranarray(X), strided):
            got = op.apply(Y)
            assert got.dtype == Y.dtype and np.array_equal(got, Y[op.rows, op.cols])

    @settings(max_examples=100, deadline=None)
    @given(case=positions(), seed=st.integers(0, 2**31))
    def test_adjoint_equals_scatter(self, case, seed):
        m, n, flat = case
        op = EntrySampler(m, n, *np.divmod(flat, n))
        y = np.random.default_rng(seed).standard_normal(len(flat))
        want = np.zeros((m, n))
        want[op.rows, op.cols] = y
        for work in (None, np.full_like(op.scratch(2), np.nan)):
            got = op.adjoint(y, work)
            assert got.shape == (m, n) and np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(case=positions(), data=st.data())
    def test_distinctness(self, case, data):
        m, n, flat = case
        assert EntrySampler(m, n, *np.divmod(flat, n)).flat.tolist() == flat
        copy = data.draw(st.sampled_from(flat))
        repeated = list(flat)
        repeated.insert(data.draw(st.integers(0, len(flat))), copy)
        with pytest.raises(ValueError, match="sample positions must be distinct"):
            EntrySampler(m, n, *np.divmod(repeated, n))


@st.composite
def pairing_cases(draw):
    """(m, n, p, rank, seed) with p <= mn, so an entry sampler exists too."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    return (m, n, draw(st.integers(1, m * n)), draw(st.integers(1, min(m, n))),
            draw(st.integers(0, 2**31)))


class TestAdjointPairing:
    @pytest.mark.parametrize("make_op", [
        lambda m, n, p, seed: GaussianOperator(m, n, p, seed),
        lambda m, n, p, seed: EntrySampler.random(m, n, p, seed),
    ])
    @settings(max_examples=100, deadline=None)
    @given(case=pairing_cases())
    def test_pairing(self, make_op, case):
        # <A X, y> == <X, A* y>_F on rank-r matrices of any shape
        m, n, p, r, seed = case
        op = make_op(m, n, p, seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        y = rng.standard_normal(p)
        lhs = op.apply(X) @ y
        rhs = np.sum(X * op.adjoint(y))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(y) * np.sqrt(m * n)

    @pytest.mark.parametrize("make_op", [
        lambda: GaussianOperator(7, 4, 11, seed=13),
        lambda: EntrySampler.random(7, 4, 11, seed=13),
    ])
    def test_linearity(self, make_op, rng):
        op = make_op()
        X = rng.standard_normal((7, 4))
        Y = rng.standard_normal((7, 4))
        got = op.apply(2.0 * X - 3.0 * Y)
        want = 2.0 * op.apply(X) - 3.0 * op.apply(Y)
        scale = max(np.linalg.norm(want), 1.0)
        assert np.abs(got - want).max() <= 1e-10 * scale


class TestScratch:
    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @settings(max_examples=60, deadline=None)
    @given(case=pairing_cases(), t_max=st.integers(0, 6))
    def test_work_changes_no_bit(self, kind, case, t_max):
        # one work array reused across calls in mixed order: adjoint, gathers
        # of every width up to t_max, adjoint again
        m, n, p, _, seed = case
        op = OPERATOR_KINDS[kind](m, n, p, seed)
        rng = np.random.default_rng(seed)
        work = op.scratch(t_max)
        assert (work is None) == (kind == "gaussian")
        y = rng.standard_normal(p)
        assert np.array_equal(op.adjoint(y, work), op.adjoint(y))
        for t in range(t_max + 1):
            exp = random_expansion(m, n, t, rng)
            cols = op.apply_atoms(exp.atoms, work)
            assert cols.shape == (p, t)
            # the sampler's design keeps today's layout, and so its BLAS path
            assert cols.flags.c_contiguous or kind == "gaussian"
            assert np.array_equal(cols, op.apply_atoms(exp.atoms))
            assert np.array_equal(op.apply_expansion(exp, work), op.apply_expansion(exp))
        y = rng.standard_normal(p)
        assert np.array_equal(op.adjoint(y, work), op.adjoint(y))

    @pytest.mark.parametrize("t", [1, 6])
    def test_gather_without_work_allocates_its_result(self, t, rng):
        # a 4000^2 sampler with p = 4e5: the m*n scratch array would be 128 MB,
        # the (p, t) result a few MB and its buffer of right rows one block
        m = n = 4000
        flat = np.arange(400_000) * 40
        op = EntrySampler(m, n, *np.divmod(flat, n))
        exp = random_expansion(m, n, t, rng)
        for call, arg in ((op.apply_atoms, exp.atoms), (op.apply_expansion, exp)):
            tracemalloc.start()
            try:
                call(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * op.p * t * 8

    def test_adjoint_without_work_allocates_its_result(self, rng):
        op = EntrySampler.random(400, 400, 8000, seed=7)
        y = rng.standard_normal(op.p)
        tracemalloc.start()
        try:
            op.adjoint(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the m x n result and np.put's p-entry temporary; scratch(0) is 1.5 m n
        assert op.m * op.n * 8 <= peak < (op.m * op.n + op.p) * 8 + 4096

    @pytest.mark.parametrize("n, p, size", [
        (1000, 200_000, 1_500_000),  # complete-1000: the proxy and its float32 copy
        (200, 8000, 96_000),  # complete-200: the design and one whole second gather
        (150, 2980, 35_760),  # sweep-threads at p/d_r = 5
        (400, 8000, 240_000),
    ])
    def test_scratch_size(self, n, p, size):
        flat = np.arange(p) * (n * n // p)
        assert EntrySampler(n, n, *np.divmod(flat, n)).scratch(6).size == size

    def test_scratch_holds_every_smaller_call(self, rng):
        # the size never falls as t grows; (p + BLOCK_ENTRIES // t) t doubles
        # would: 181 samples of 362 atoms need one more than of 363
        op = EntrySampler.random(20, 15, 181, seed=11)
        sizes = [op.scratch(t).size for t in range(400)]
        assert sizes == sorted(sizes)
        s = random_expansion(op.m, op.n, 362, rng).atoms
        want = s.left[op.rows, :] * s.right[op.cols, :]
        assert np.array_equal(op.apply_atoms(s, op.scratch(363)), want)

    def test_selection_copy_lives_in_work(self):
        # 400^2 at p = 8000, where 2 p 3r falls short of 1.5 m n: the float32
        # path's copy of the proxy has room in the solver's work array
        op = EntrySampler.random(400, 400, 8000, seed=8)
        rng = np.random.default_rng(8)
        truth = rng.standard_normal((400, 2)) @ rng.standard_normal((2, 400))
        work = op.scratch(6)
        M = op.adjoint(op.apply(truth), work)
        tracemalloc.start()
        try:
            exp = leading_atoms(M, 4, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(exp) == 4 and min(op.m, op.n) >= linalg.SINGLE_MIN_DIM
        assert peak < op.m * op.n * 4

    def test_gathers_with_work_allocate_less_than_a_block(self, rng):
        op = EntrySampler.random(1000, 1000, 200_000, seed=9)
        atoms = random_expansion(op.m, op.n, 6, rng).atoms
        work = op.scratch(6)
        tracemalloc.start()
        try:
            op.apply_atoms(atoms, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * linalg.BLOCK_ENTRIES


class TestBlockedGathers:
    # the sampler gathers and multiplies a row block of BLOCK_ENTRIES entries
    # at a time; every block count must give fancy indexing's bits

    @pytest.mark.parametrize("t", [1, 6])
    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_equal_fancy_indexing_across_blocks(self, t, extra, rng):
        rows = linalg.BLOCK_ENTRIES // t
        p = 3 * rows + 5 if extra is None else rows + extra
        op = EntrySampler.random(500, 400, p, seed=10)
        s = random_expansion(op.m, op.n, t, rng).atoms
        want = s.left[op.rows, :] * s.right[op.cols, :]
        for work in (None, op.scratch(t), np.full_like(op.scratch(t + 1), np.nan)):
            got = op.apply_atoms(s, work)
            assert got.flags.c_contiguous and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 200), t=st.integers(0, 12), t_max=st.integers(0, 12),
           seed=st.integers(0, 2**31))
    def test_small_blocks(self, p, t, t_max, seed):
        # blocks of 64 entries, and a work array for t_max >= t atoms
        t_max = max(t, t_max)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "BLOCK_ENTRIES", 64)
            op = EntrySampler.random(20, 15, p, seed)
            rng = np.random.default_rng(seed)
            s = random_expansion(op.m, op.n, t, rng).atoms
            want = s.left[op.rows, :] * s.right[op.cols, :]
            for work in (None, np.full_like(op.scratch(t_max), np.nan)):
                assert np.array_equal(op.apply_atoms(s, work), want)


class TestExpansionPaths:
    @pytest.mark.parametrize("make_op", [
        lambda: GaussianOperator(6, 5, 14, seed=21),
        lambda: EntrySampler.random(6, 5, 14, seed=21),
    ])
    def test_apply_expansion_matches_dense(self, make_op, rng):
        op = make_op()
        for _ in range(100):
            exp = random_expansion(op.m, op.n, rng.integers(1, 5), rng)
            got = op.apply_expansion(exp)
            want = op.apply(assemble(exp))
            scale = max(np.linalg.norm(want), 1.0)
            assert np.abs(got - want).max() <= 1e-10 * scale

    def test_empty_expansion(self):
        op = EntrySampler.random(4, 4, 9, seed=2)
        np.testing.assert_array_equal(op.apply_expansion(empty_expansion(4, 4)), np.zeros(9))

    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("make_op", [
        lambda: GaussianOperator(6, 5, 14, seed=8),
        lambda: EntrySampler.random(6, 5, 14, seed=8),
    ], ids=["gaussian", "entry"])
    def test_apply_atoms_columns(self, make_op, t, rng):
        op = make_op()
        exp = random_expansion(op.m, op.n, t, rng)
        cols = op.apply_atoms(exp.atoms)
        assert cols.shape == (op.p, t)
        for j in range(t):
            want = op.apply(np.outer(exp.atoms.left[:, j], exp.atoms.right[:, j]))
            scale = max(np.linalg.norm(want), 1.0)
            assert np.abs(cols[:, j] - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(10, 10), (3, 3)], ids=["equal_mn", "unequal_mn"])
    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_atoms_of_another_shape_rejected(self, kind, shape, rng):
        # 10x10 atoms have the 100 entries of the 4x25 matrices the operator measures
        op = OPERATOR_KINDS[kind](4, 25, 30, 1)
        exp = random_expansion(*shape, 2, rng)
        with pytest.raises(ValueError, match=f"atoms of a {shape[0]}x{shape[1]} matrix, "
                                             "expected 4x25"):
            op.apply_atoms(exp.atoms)
        with pytest.raises(ValueError):
            op.apply_expansion(exp)

    def test_sampler_single_atom_full_sampling(self, rng):
        op = EntrySampler.random(3, 3, 9, seed=6)
        exp = random_expansion(3, 3, 1, rng)
        np.testing.assert_allclose(
            op.apply_expansion(exp), assemble(exp)[op.rows, op.cols], atol=1e-14
        )


def test_library_calls_no_hash_based_unique():
    # np.unique hashes its input, 30-40x slower than a sort and an adjacent
    # compare on 2e5 integers; the samplers' set-up checks duplicates by sorting
    src = pathlib.Path(linalg.__file__).parent
    calls = [path.name for path in sorted(src.glob("*.py"))
             if re.search(r"\bunique\s*\(", path.read_text(encoding="utf-8"))]
    assert calls == []
