import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import admira
from admira import baselines, linalg
from admira.atoms import DUPLICATE_TOL, SELECT_TOL
from admira.linalg import frobenius_norm, least_squares_minnorm, rescale, svd_truncated, unit_scale

from oracles import least_squares_exact, reconstruct, singular_values_charpoly

RT2 = np.sqrt(2.0)


def svd(M):
    """Every triplet svd_truncated keeps: the library's full SVD."""
    return svd_truncated(M, min(np.shape(M)))


class TestSvd:
    def test_identity(self):
        _, sigma, _ = svd(np.eye(2))
        np.testing.assert_allclose(sigma, [1.0, 1.0])

    def test_diagonal(self):
        U, sigma, V = svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigma, [3.0, 1.0])
        np.testing.assert_allclose(U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(V, np.eye(2), atol=1e-14)

    def test_ones_matrix(self):
        # char poly of the Gram matrix [[2,2],[2,2]] is l^2 - 4l, roots {4, 0};
        # the zero singular value is negligible and dropped
        U, sigma, V = svd(np.ones((2, 2)))
        np.testing.assert_allclose(sigma, [2.0], atol=1e-14)
        np.testing.assert_allclose(U[:, 0], [1 / RT2, 1 / RT2])
        np.testing.assert_allclose(V[:, 0], [1 / RT2, 1 / RT2])

    def test_reconstructs(self, rng):
        M = rng.standard_normal((7, 4))
        U, sigma, V = svd(M)
        assert len(sigma) == 4
        np.testing.assert_allclose(reconstruct(U, sigma, V), M, atol=1e-10 * frobenius_norm(M))

    def test_orthonormal_factors(self, rng):
        U, _, V = svd(rng.standard_normal((5, 6)))
        np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(5), atol=1e-10)

    def test_sign_convention(self, rng):
        for _ in range(20):
            U, _, _ = svd(rng.standard_normal((4, 4)))
            for col in U.T:
                lead = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
                assert col[lead] > 0

    def test_deterministic(self, rng):
        M = rng.standard_normal((6, 6))
        (U1, _, V1), (U2, _, V2) = svd(M), svd(M.copy())
        np.testing.assert_array_equal(U1, U2)
        np.testing.assert_array_equal(V1, V2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="must be 2-dimensional"):
            svd_truncated(np.ones(3), 1)

    def test_matches_charpoly_oracle(self, rng):
        for _ in range(100):
            m, n = rng.integers(2, 4, size=2)
            M = rng.standard_normal((m, n))
            _, got, _ = svd(M)
            want = singular_values_charpoly(M)
            assert np.abs(got - want).max() <= 1e-8 * max(got[0], 1.0)


class TestSvdTruncated:
    def test_diagonal_truncation(self):
        _, sigma, _ = svd_truncated(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(sigma, [3.0, 2.0])

    def test_rank_deficient_drops_triplets(self, rng):
        u = rng.standard_normal(5)
        v = rng.standard_normal(4)
        M = 2.5 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        _, sigma, _ = svd_truncated(M, 3)
        assert len(sigma) == 1
        np.testing.assert_allclose(sigma, [2.5])

    def test_ones_matrix_top1(self):
        _, sigma, _ = svd_truncated(np.ones((2, 2)), 1)
        np.testing.assert_allclose(sigma, [2.0], atol=1e-14)

    def test_agrees_with_full(self, rng):
        M = rng.standard_normal((8, 6))
        _, full, _ = svd(M)
        for k in (1, 3, 6):
            _, sigma, _ = svd_truncated(M, k)
            np.testing.assert_allclose(sigma, full[:k], atol=1e-8)

    def test_zero_matrix(self):
        U, sigma, V = svd_truncated(np.zeros((3, 4)), 2)
        assert U.shape == (3, 0) and sigma.shape == (0,) and V.shape == (4, 0)

    def test_zero_matrix_on_the_float32_path(self, monkeypatch):
        # the float32 triplets fail the check, and the float64 rerun finds none
        calls = kernel_calls(monkeypatch)
        U, sigma, V = svd_truncated(np.zeros((450, 420)), 2, SELECT_TOL)
        assert U.shape == (450, 0) and sigma.shape == (0,) and V.shape == (420, 0)
        assert len(calls) == 2

    def test_empty_operand_has_no_valid_k(self):
        with pytest.raises(ValueError, match=r"^k must be in \[1, 0\], got 1$"):
            svd_truncated(np.zeros((0, 5)), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            svd_truncated(np.eye(3), 4)
        with pytest.raises(ValueError):
            svd_truncated(np.eye(3), 0)

    def test_eckart_young_tail(self, rng):
        # ||M - M_k||_F^2 equals the sum of the squared trailing singular values
        for _ in range(50):
            M = rng.standard_normal((8, 8))
            _, full, _ = svd(M)
            for k in (1, 2, 3):
                tail = np.sum(full[k:] ** 2)
                got = frobenius_norm(M - reconstruct(*svd_truncated(M, k))) ** 2
                assert abs(got - tail) <= 1e-9 * frobenius_norm(M) ** 2


def spectrum_matrix(rng, m, n, sigma):
    """Random orthogonal factors around a prescribed singular spectrum."""
    qu, _ = np.linalg.qr(rng.standard_normal((m, len(sigma))))
    qv, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    return (qu * sigma) @ qv.T


KERNEL_CASES = {
    "tall": (lambda rng: rng.standard_normal((40, 25)), 3),
    "wide": (lambda rng: rng.standard_normal((25, 40)), 3),
    "row": (lambda rng: rng.standard_normal((1, 9)), 1),
    "column": (lambda rng: rng.standard_normal((9, 1)), 1),
    "k_is_min": (lambda rng: rng.standard_normal((30, 20)), 20),
    "rank_deficient": (lambda rng: rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20)), 6),
    "zero": (lambda rng: np.zeros((6, 5)), 2),
    "repeated_leading": (
        lambda rng: spectrum_matrix(rng, 14, 12, [3.0, 3.0, 3.0, 2.0, 1.5, 1.0, 0.5]), 4),
    "repeated_diagonal": (lambda rng: np.diag([3.0, 3.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1]), 4),
    "large_gapless": (lambda rng: rng.standard_normal((200, 150)), 4),
    # the Krylov space closes on the range, and a second Gram-Schmidt pass runs
    **{f"rank_{r}_150": (lambda rng, r=r: rng.standard_normal((150, r))
                         @ rng.standard_normal((r, 150)), r + 2) for r in (1, 3, 6)},
}


@pytest.fixture(params=["krylov", "dense"])
def path(request, monkeypatch):
    """Force one of svd_truncated's two paths, whatever the matrix size."""
    monkeypatch.setattr(linalg, "GKL_MIN_DIM", 1 if request.param == "krylov" else 10**9)
    return request.param


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_dense_svd(case, rng, path):
    """Either path agrees with LAPACK's full SVD to 1e-12 * sigma_1."""
    build, k = KERNEL_CASES[case]
    M = build(rng)
    fU, fsigma, fV = svd_truncated(M, k)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    want = int(np.sum(s[:k] > 1e-12 * s[0])) if s[0] > 0 else 0
    assert len(fsigma) == want
    if want == 0:
        return
    tol = 1e-12 * s[0]
    assert np.abs(fsigma - s[:want]).max() <= tol
    dense = (U[:, :want] * s[:want]) @ Vt[:want]
    assert np.abs(reconstruct(fU, fsigma, fV) - dense).max() <= tol
    np.testing.assert_allclose(fU.T @ fU, np.eye(want), atol=1e-12)
    np.testing.assert_allclose(fV.T @ fV, np.eye(want), atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 60), n=st.integers(2, 50), k=st.integers(2, 5),
       gaps=st.lists(st.floats(0.025, 0.5), min_size=49, max_size=49),
       where=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
# an early Ritz value of the first triplet, below the floor and within its
# residual of sigma_2: a floor applied to it would end the call there
@example(m=33, n=33, k=2, gaps=[0.25] * 49, where=0.5, scale=1.0, seed=34)
@example(m=54, n=16, k=2, gaps=[0.1] * 49, where=0.5, scale=1.0, seed=168)
def test_floor_stops_only_the_spare(m, n, k, gaps, where, scale, seed):
    # consecutive singular values at least 2.5% apart, and a floor between
    # sigma_{k-1} and sigma_k at least 1% from both: the k - 1 triplets above
    # it meet the GKL_TOL bound, the spare lies below it (or is dropped)
    rng = np.random.default_rng(seed)
    d = min(m, n)
    k = min(k, d)
    sigma = scale * np.cumprod([1.0, *(1.0 - np.array(gaps[: d - 1]))])
    floor = 1.01 * sigma[k - 1] + where * (0.99 * sigma[k - 2] - 1.01 * sigma[k - 1])
    M = spectrum_matrix(rng, m, n, sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "GKL_MIN_DIM", 1)
        fU, fsigma, fV = svd_truncated(M, k, floor=floor)
    assert len(fsigma) >= k - 1 and np.all(fsigma[k - 1:] <= floor)
    U, s, V = fU[:, : k - 1], fsigma[: k - 1], fV[:, : k - 1]
    res = np.maximum(np.linalg.norm(M @ V - U * s, axis=0),
                     np.linalg.norm(M.T @ U - V * s, axis=0))
    assert res.max() <= (linalg.GKL_TOL + 1e-12) * sigma[0]
    assert np.abs(s - sigma[: k - 1]).max() <= 1e-12 * sigma[0]
    np.testing.assert_allclose(fU.T @ fU, np.eye(len(fsigma)), atol=1e-12)
    np.testing.assert_allclose(fV.T @ fV, np.eye(len(fsigma)), atol=1e-12)


def test_floor_saves_products(rng):
    # a rank-2 signal over a 200 x 200 noise bulk (top near 28): the spare
    # third triplet sits in the bulk, slow to converge but soon known to lie
    # below the floor, while the top two come out the same either way
    M = spectrum_matrix(rng, 200, 200, [100.0, 80.0]) + rng.standard_normal((200, 200))
    runs = []
    for floor in (-np.inf, 50.0):
        steps = []

        def matvec(v):
            steps.append(1)
            return M @ v

        _, s, _ = linalg._gkl_topk(matvec, M.T.__matmul__, 200, 200, 3, linalg.GKL_TOL, floor)
        runs.append((len(steps), s))
    (tight, s_tight), (floored, s_floored) = runs
    assert floored < tight and s_floored[2] <= 50.0
    np.testing.assert_allclose(s_floored[:2], s_tight[:2], rtol=1e-12)


@pytest.mark.parametrize("shape", [(300, 120), (120, 300)], ids=["tall", "wide"])
def test_warm_start_gives_the_cold_triplets(rng, shape):
    # a start near the top right singular vectors (V's side, of either
    # shape) changes the Krylov path, not the triplets: values within
    # tol * sigma_1 and vectors within tol * sigma_1 / gap of the cold call
    m, n = shape
    sigma = np.array([10.0, 7.0, 5.0, 3.5, *np.linspace(1.0, 0.01, 116)])
    qu, _ = np.linalg.qr(rng.standard_normal((m, 120)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, 120)))
    M = (qu * sigma) @ qv.T
    start = qv[:, :3].sum(axis=1) + 1e-3 * rng.standard_normal(n)
    tol = 1e-6
    cold, warm = svd_truncated(M, 4, tol), svd_truncated(M, 4, tol, start=start)
    assert np.abs(warm[1] - cold[1]).max() <= tol * sigma[0]
    for w, c in ((warm[0], cold[0]), (warm[2], cold[2])):
        assert np.abs(w - c).max() <= tol * sigma[0] / 1.5


@pytest.mark.parametrize("shape", [(300, 120), (120, 300)], ids=["tall", "wide"])
def test_kernel_starts_on_its_right_side(rng, monkeypatch, shape):
    # the kernel runs on M, or on M^T when M is wide, so its start is the
    # given right vector, or M @ start; a zero start (an empty previous SVT
    # iterate's) leaves the seeded start, bit for bit
    M = rng.standard_normal(shape)
    start = rng.standard_normal(shape[1])
    kernel, starts = linalg._gkl_topk, []
    monkeypatch.setattr(linalg, "_gkl_topk", lambda *args: starts.append(args[7])
                        or kernel(*args))
    svd_truncated(M, 3, start=start)
    np.testing.assert_array_equal(starts[0], start if shape[0] >= shape[1] else M @ start)
    for got, want in zip(svd_truncated(M, 3, start=np.zeros(shape[1])), svd_truncated(M, 3)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("left", [1e-1, 1e-5, 1e-9])
def test_unit_complement_second_pass(rng, left):
    # w lies in the basis's span but for a part of norm ``left``: one
    # Gram-Schmidt pass leaves that part tilted by about rounding / left, and
    # the second pass, taken when the first cancels most of w, removes it
    Q, _ = np.linalg.qr(rng.standard_normal((150, 7)))
    basis = Q[:, :6].T
    w = basis.T @ rng.standard_normal(6) + left * Q[:, 6]
    norm, unit = linalg._unit_complement(w, basis, rng, linalg.GKL_TOL)
    assert norm == pytest.approx(left, rel=1e-5)
    assert np.abs(basis @ unit).max() <= 1e-12
    assert abs(unit @ unit - 1.0) <= 1e-15


def test_kernel_reads_only_a_product_pair(rng):
    # a 10^4 x 10^4 rank-6 operator given only as its two products: no
    # m x n array exists, and the kernel's top 4 triplets are the operator's
    n, sigma = 10**4, np.array([10.0, 7.0, 5.0, 3.0, 2.0, 1.0])
    qu, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    U, s, V = linalg._gkl_topk(lambda v: qu @ (sigma * (qv.T @ v)),
                               lambda u: qv @ (sigma * (qu.T @ u)), n, n, 4, linalg.GKL_TOL)
    np.testing.assert_allclose(s, sigma[:4], rtol=1e-12)
    # u_i = +-qu_i and v_i = the same sign times qv_i
    np.testing.assert_allclose((qu[:, :4].T @ U) * (qv[:, :4].T @ V), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-12)


def test_kernel_holds_only_the_steps_it_takes(rng):
    # the Lanczos bases grow with the steps taken, at most doubling, so the
    # traced allocations of a call stay within a few blocks of steps x n
    # floats; bases reserved for all n steps up front would hold 2 n^2
    n, sigma = 4000, np.array([10.0, 7.0, 5.0, 3.0, 2.0, 1.0])
    qu, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    steps = []

    def matvec(v):
        steps.append(1)
        return qu @ (sigma * (qv.T @ v))

    tracemalloc.start()
    try:
        _, s, _ = linalg._gkl_topk(matvec, lambda u: qv @ (sigma * (qu.T @ u)), n, n, 4,
                                   linalg.GKL_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(s, sigma[:4], rtol=1e-12)
    assert 4 < len(steps) < 50
    assert peak <= 8 * len(steps) * n * 8


def test_kernel_runs_in_a_one_gib_address_space():
    # the implicit 10^4 x 10^4 operator's top 4 triplets, in a process whose
    # address space is capped at 1 GiB: Lanczos bases reserved for all n
    # steps (1.6 GB) would raise MemoryError before the first product
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(admira.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    code = (
        "import resource\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "import numpy as np\n"
        "from admira import linalg\n"
        "rng = np.random.default_rng(20240501)\n"
        "n, sigma = 10**4, np.array([10.0, 7.0, 5.0, 3.0, 2.0, 1.0])\n"
        "qu, _ = np.linalg.qr(rng.standard_normal((n, 6)))\n"
        "qv, _ = np.linalg.qr(rng.standard_normal((n, 6)))\n"
        "matvec = lambda v: qu @ (sigma * (qv.T @ v))\n"
        "rmatvec = lambda u: qv @ (sigma * (qu.T @ u))\n"
        "print(*linalg._gkl_topk(matvec, rmatvec, n, n, 4, linalg.GKL_TOL)[1].tolist())"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    np.testing.assert_allclose([float(x) for x in out.stdout.split()],
                               [10.0, 7.0, 5.0, 3.0], rtol=1e-12)


def test_import_leaves_scipy_unloaded():
    # the library runs on NumPy alone; a fresh interpreter shows what it
    # loads, also from function bodies once both solvers have run
    src = os.path.dirname(os.path.dirname(admira.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, admira\n"
        "prob = admira.gen_problem(100, 100, 1, 1500, seed=3)\n"
        "admira.admira_solve(prob.operator, prob.b, admira.AdmiraConfig(rank=1, max_iter=2))\n"
        "admira.svt_solve(prob.operator, prob.b, admira.SvtConfig(max_iter=2))\n"
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def at_offset(M, words):
    """Copy of ``M`` starting ``words`` float64s past a 64-byte boundary."""
    buf = np.empty(M.size + 8)
    start = (words - buf.ctypes.data // 8) % 8
    out = buf[start:start + M.size].reshape(M.shape)
    out[...] = M
    return out


@pytest.mark.parametrize("shape", [(40, 30), (30, 40), (120, 110)])
def test_repeat_calls_bit_identical(rng, path, shape):
    # the input at every 8-byte offset in a cache line, with allocations of
    # varying size in between so the kernel's own buffers land elsewhere too
    M = rng.standard_normal(shape)
    M[rng.random(shape) < 0.8] = 0.0
    first = svd_truncated(M, 4)
    held = []
    for words in range(8):
        held.append(np.empty(int(rng.integers(1, 5000))))
        for got, want in zip(svd_truncated(at_offset(M, words), 4), first):
            np.testing.assert_array_equal(got, want)


def test_global_random_state_untouched(rng, path):
    M = rng.standard_normal((12, 9))
    np.random.seed(7)
    want = np.random.random(3)
    np.random.seed(7)
    svd_truncated(M, 3)
    svd_truncated(np.zeros((4, 4)), 2)
    svd_truncated(np.diag([2.0, 2.0, 1.0, 0.0]), 3)
    np.testing.assert_array_equal(np.random.random(3), want)


class TestLeastSquaresMinnorm:
    def test_identity_design(self):
        x = least_squares_minnorm(np.eye(2), [3.0, 4.0])
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_normal_equation(self):
        # 2 alpha = 4 from the normal equations
        x = least_squares_minnorm(np.array([[1.0], [1.0]]), [1.0, 3.0])
        np.testing.assert_allclose(x, [2.0])

    def test_duplicate_columns_split(self):
        x = least_squares_minnorm(np.ones((2, 2)), [2.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_zero_rhs(self):
        x = least_squares_minnorm(np.ones((3, 2)), np.zeros(3))
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_residual_orthogonality(self, rng):
        Phi = rng.standard_normal((20, 5))
        b = rng.standard_normal(20)
        x = least_squares_minnorm(Phi, b)
        grad = Phi.T @ (b - Phi @ x)
        assert np.abs(grad).max() <= 1e-8 * frobenius_norm(Phi) * np.linalg.norm(b)

    def test_minimum_norm_among_minimizers(self, rng):
        # perturbing along the null space can only increase the norm
        Phi = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 8))
        b = rng.standard_normal(6)
        x = least_squares_minnorm(Phi, b)
        _, s, Vt = np.linalg.svd(Phi)
        null = Vt[(s > 1e-10 * s[0]).sum():, :].T
        for _ in range(100):
            alt = x + null @ rng.standard_normal(null.shape[1])
            assert np.linalg.norm(x) <= np.linalg.norm(alt) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_minnorm(np.eye(3), np.ones(2))

    def test_rejects_nonfinite_rhs(self):
        with pytest.raises(ValueError, match="b contains non-finite entries"):
            least_squares_minnorm(np.eye(2), [1.0, np.nan])

    def test_rejects_a_one_dimensional_design(self):
        with pytest.raises(ValueError, match=r"^Phi must be 2-dimensional, got shape \(3,\)$"):
            least_squares_minnorm(np.ones(3), np.ones(3))


def conditioned_design(rng, p, t, log_cond):
    """p x t design with singular values log-spaced over ``10**log_cond``."""
    U, _ = np.linalg.qr(rng.standard_normal((p, t)))
    V, _ = np.linalg.qr(rng.standard_normal((t, t)))
    return (U * np.logspace(0, -log_cond, t)) @ V.T


def lstsq(Phi, b):
    return np.linalg.lstsq(Phi, b, rcond=linalg.DEFAULT_RANK_TOL)[0]


def assert_within_error_bound(seed, p, t, log_cond, misfit, scale):
    """A drawn design below the Gram cut-off is fitted as accurately as a
    backward-stable solve, against the exact solution in Fractions."""
    # misfit: residual norm over fit norm, up to 100
    rng = np.random.default_rng(seed)
    t = min(t, p)
    Phi = conditioned_design(rng, p, t, log_cond) * 2.0 ** scale
    fit = Phi @ rng.standard_normal(t)
    noise = rng.standard_normal(p)
    noise -= Phi @ lstsq(Phi, noise)
    if np.linalg.norm(noise) > 0:
        fit += misfit * np.linalg.norm(fit) * noise / np.linalg.norm(noise)
    assume(np.linalg.cond(Phi.T @ Phi) < linalg.GRAM_COND_MAX)
    exact = least_squares_exact(Phi, fit)
    x = least_squares_minnorm(Phi, fit)
    err = np.linalg.norm([float(Fraction(xi) - ei) for xi, ei in zip(x.tolist(), exact)])
    # the least-squares error model: eps * (kappa + kappa^2 * rho) * ||x*||,
    # rho = ||b - Phi x*|| / ||Phi x*||
    want = np.array([float(e) for e in exact])
    kappa = np.linalg.cond(Phi)
    rho = np.linalg.norm(fit - Phi @ want) / np.linalg.norm(Phi @ want)
    eps = np.finfo(float).eps
    assert err <= 2 * eps * (kappa + kappa**2 * rho) * np.linalg.norm(want)


class TestLeastSquaresPaths:
    """Below the cut-off the Gram path is as accurate as a backward-stable
    least-squares solve; above it, lstsq runs."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), p=st.integers(1, 300), t=st.integers(1, 12),
           log_cond=st.floats(0.0, 2.5), misfit=st.floats(0.0, 100.0),
           scale=st.integers(-40, 40))
    # lstsq itself is 1.14e-12 from the exact solution here, the Gram path 8.2e-14
    @example(seed=975, p=9, t=3, log_cond=1.3545, misfit=27.0, scale=0)
    def test_within_error_bound_below_cutoff(self, seed, p, t, log_cond, misfit, scale):
        assert_within_error_bound(seed, p, t, log_cond, misfit, scale)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), p=st.integers(2, 60), t=st.integers(2, 12),
           kind=st.sampled_from(["ill", "collinear", "rank_deficient", "wide"]))
    def test_is_lstsq_above_cutoff(self, seed, p, t, kind):
        rng = np.random.default_rng(seed)
        if kind == "wide":
            Phi = rng.standard_normal((p, p + t))
        else:
            t = min(t, p)
            Phi = conditioned_design(rng, p, t, rng.uniform(1.5, 12.0))
            if kind == "collinear":
                # two columns at cosine 1 - DUPLICATE_TOL, as merged atoms can be
                a = Phi[:, 0] / np.linalg.norm(Phi[:, 0])
                w = rng.standard_normal(p)
                w -= a * (a @ w)
                if np.linalg.norm(w) > 0:
                    cos = 1.0 - DUPLICATE_TOL
                    Phi[:, -1] = cos * a + np.sqrt(1 - cos**2) * w / np.linalg.norm(w)
            elif kind == "rank_deficient":
                Phi[:, -1] = Phi[:, :-1] @ rng.standard_normal(t - 1)
        assume(Phi.shape[1] > p or np.linalg.cond(Phi.T @ Phi) >= linalg.GRAM_COND_MAX)
        b = rng.standard_normal(p)
        np.testing.assert_array_equal(least_squares_minnorm(Phi, b), lstsq(Phi, b))


# blocks of 64 entries: 5 to 64 rows of a design up to 12 columns wide
SMALL_BLOCK = 64


class TestBlockedLeastSquares:
    """Designs over many row blocks, with the block shrunk to SMALL_BLOCK."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), p=st.integers(1, 400), t=st.integers(1, 12),
           log_cond=st.floats(0.0, 2.5), misfit=st.floats(0.0, 100.0),
           scale=st.integers(-40, 40))
    @example(seed=1, p=16, t=4, log_cond=1.0, misfit=1.0, scale=0)  # one whole block
    @example(seed=2, p=32, t=4, log_cond=1.0, misfit=1.0, scale=0)  # two whole blocks
    @example(seed=3, p=395, t=7, log_cond=2.0, misfit=30.0, scale=3)  # 44 blocks, ragged
    def test_within_error_bound(self, seed, p, t, log_cond, misfit, scale):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "BLOCK_ENTRIES", SMALL_BLOCK)
            assert_within_error_bound(seed, p, t, log_cond, misfit, scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 1, 50, 95, 99])
    def test_nonfinite_in_any_block_raises(self, monkeypatch, rng, bad, row):
        # 100 x 4 in blocks of 16 rows: the first, a middle and the ragged last block
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", SMALL_BLOCK)
        Phi = rng.standard_normal((100, 4))
        b = rng.standard_normal(100)
        bad_b = b.copy()
        bad_b[row] = bad
        with pytest.raises(ValueError, match="^b contains non-finite entries$"):
            least_squares_minnorm(Phi, bad_b)
        Phi[row, row % 4] = bad
        with pytest.raises(ValueError, match="^Phi contains non-finite entries$"):
            least_squares_minnorm(Phi, b)

    @pytest.mark.parametrize("shape, log_cond", [((100, 0), 0.0), ((50, 70), 0.0),
                                                 ((300, 6), 6.0), ((1, 0), 0.0)])
    def test_other_designs_are_lstsq(self, monkeypatch, rng, shape, log_cond):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", SMALL_BLOCK)
        p, t = shape
        if 0 < t <= p:
            Phi = conditioned_design(rng, p, t, log_cond)
            assert np.linalg.cond(Phi.T @ Phi) >= linalg.GRAM_COND_MAX
        else:
            Phi = rng.standard_normal(shape)
        b = rng.standard_normal(p)
        np.testing.assert_array_equal(least_squares_minnorm(Phi, b), lstsq(Phi, b))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), t=st.integers(1, 12), data=st.data())
    def test_one_block_is_the_whole_array_formula(self, seed, t, data):
        # a design of at most BLOCK_ENTRIES entries makes the unblocked calls
        p = data.draw(st.integers(t, linalg.BLOCK_ENTRIES // t))
        rng = np.random.default_rng(seed)
        Phi = conditioned_design(rng, p, t, 1.0)
        b = rng.standard_normal(p)
        G = Phi.T @ Phi
        x = np.linalg.solve(G, Phi.T @ b)
        want = x + np.linalg.solve(G, Phi.T @ (b - Phi @ x))
        np.testing.assert_array_equal(least_squares_minnorm(Phi, b), want)

    def test_allocates_a_block_not_the_design(self, rng):
        # complete-1000's design shape: the whole-array passes allocated a
        # 1.2 MB finiteness mask and two 1.6 MB vectors
        Phi = rng.standard_normal((200_000, 6))
        b = Phi @ rng.standard_normal(6) + rng.standard_normal(200_000)
        tracemalloc.start()
        try:
            least_squares_minnorm(Phi, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * linalg.BLOCK_ENTRIES


class TestNorms:
    def test_identity(self):
        np.testing.assert_allclose(frobenius_norm(np.eye(2)), RT2)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"^matrix must be 2-dimensional, got shape \(3,\)$"):
            frobenius_norm(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_entries(self, bad):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            frobenius_norm([[1.0, bad]])

    def test_ones_matrix(self):
        # sigma = (2, 0) by the characteristic-polynomial oracle
        np.testing.assert_allclose(frobenius_norm(np.ones((2, 2))), 2.0)

    def test_norm_ordering(self, rng):
        # frobenius >= spectral for every matrix
        for _ in range(50):
            M = rng.standard_normal((5, 7))
            assert frobenius_norm(M) >= svd_truncated(M, 1)[1][0] - 1e-12


class TestScaleRule:
    @pytest.mark.parametrize("k", [-1060, -600, 0, 600, 1023])
    def test_unit_scale_is_exact(self, rng, k):
        v = np.ldexp(rng.standard_normal(7), k)
        y, e = unit_scale(v)
        assert 0.5 <= np.abs(y).max() < 1.0
        np.testing.assert_array_equal(rescale(y, e), v)

    @pytest.mark.parametrize("v", [np.zeros(3), np.zeros((2, 0))], ids=["zero", "empty"])
    def test_zero_and_empty_come_back_at_zero_scale(self, v):
        y, e = unit_scale(v)
        assert e == 0
        np.testing.assert_array_equal(y, v)

    @pytest.mark.filterwarnings("error")
    def test_rescale_past_the_range_is_one_error(self):
        assert rescale(0.75, 1024) == 0.75 * 2.0**1023 * 2
        with pytest.raises(ValueError, match="^the residual norm is past the double range"):
            rescale(1.0, 1024, "the residual norm")
        with pytest.raises(ValueError, match="^the solution is past the double range"):
            rescale(np.array([1.0, 0.5]), 1024)


# one shape per path: LAPACK's, the Krylov kernel's in float64 (wide), and
# the kernel's with float32 products (tall, at SINGLE_MIN_DIM)
SCALE_SHAPES = {"dense": (50, 47), "float64": (120, 127),
                "float32": (linalg.SINGLE_MIN_DIM + 7, linalg.SINGLE_MIN_DIM)}


@pytest.mark.parametrize("side", sorted(SCALE_SHAPES))
@settings(max_examples=25, deadline=None)
@given(e=st.integers(-1000, 1000), seed=st.integers(0, 2**31))
# unscaled, the kernel's dot of the 2^-540 matrix underflows (no triplets
# came back) and one of the 2^510 matrix overflows (it never stopped), and
# LAPACK rescales both by factors that are not powers of two; a floor that
# reached the kernel unscaled was off by 2^e from its Ritz values
@example(e=-540, seed=0)
@example(e=510, seed=0)
@example(e=40, seed=0)
def test_exact_at_any_scale(side, e, seed):
    # entries are multiples of 2^-20 below 2^10 in size, so 2^e M is exact;
    # also SVT's call, at SVT_TOL with a floor between sigma_2 and sigma_3
    shape = SCALE_SHAPES[side]
    assert (min(shape) >= linalg.GKL_MIN_DIM) == (side != "dense")
    assert (min(shape) >= linalg.SINGLE_MIN_DIM) == (side == "float32")
    rng = np.random.default_rng(seed)
    M = np.ldexp(np.round(np.ldexp(rng.standard_normal(shape), 20)), -20)
    full = np.linalg.svd(M, compute_uv=False)
    for tol, floor in ((linalg.SINGLE_MIN_TOL, -np.inf),
                       (baselines.SVT_TOL, 0.5 * (full[1] + full[2]))):
        U, sigma, V = svd_truncated(M, 4, tol, floor)
        got = svd_truncated(np.ldexp(M, e), 4, tol, np.ldexp(floor, e))
        assert len(sigma) == 4
        for have, want in zip(got, (U, np.ldexp(sigma, e), V)):
            np.testing.assert_array_equal(have, want)


def kernel_calls(monkeypatch) -> list:
    """Record every run of the Krylov kernel from here on."""
    kernel, calls = linalg._gkl_topk, []
    monkeypatch.setattr(linalg, "_gkl_topk", lambda *args: calls.append(args[2:4])
                        or kernel(*args))
    return calls


@pytest.mark.parametrize("spectrum", [[1.0, 1e-7, 1e-9], [1.0, 1e-6, 1e-6, 1e-6, 1e-9]],
                         ids=["small", "closed_block"])
def test_single_fallback_is_the_float64_call(rng, monkeypatch, spectrum):
    # triplets this far below sigma_1 are float32 noise that a residual below
    # SELECT_TOL * sigma_1 cannot tell apart, so the float32 path hands the
    # call back, and it ends bit for bit where the float64 call does
    n = linalg.SINGLE_MIN_DIM
    M = spectrum_matrix(rng, n + 10, n, spectrum)
    k = min(len(spectrum), 4)
    calls = kernel_calls(monkeypatch)
    got = svd_truncated(M, k, linalg.SINGLE_MIN_TOL)
    assert len(calls) == 2
    monkeypatch.setattr(linalg, "SINGLE_MIN_DIM", 10**9)
    want = svd_truncated(M, k, linalg.SINGLE_MIN_TOL)
    assert len(calls) == 3
    for have, expected in zip(got, want):
        np.testing.assert_array_equal(have, expected)
    np.testing.assert_allclose(got[1], spectrum[:k], rtol=1e-6)


@pytest.mark.parametrize("n", [150, linalg.SINGLE_MIN_DIM], ids=["float64", "float32"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_krylov_paths_reject_nonfinite(rng, n, bad):
    M = rng.standard_normal((n, n))
    M[7, 3] = bad
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        svd_truncated(M, 4, linalg.SINGLE_MIN_TOL)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [150, linalg.SINGLE_MIN_DIM], ids=["float64", "float32"])
def test_entry_past_float32_range_is_finite(rng, n):
    # 1e300 is past float32's range but finite: the call scales M, and the
    # entry's rank-one triplet leaves the others below the negligible cut
    M = rng.standard_normal((n, n))
    M[7, 3] = 1e300
    U, sigma, V = svd_truncated(M, 4, linalg.SINGLE_MIN_TOL)
    np.testing.assert_allclose(sigma, [1e300], rtol=1e-12)
    np.testing.assert_allclose([U[7, 0], V[3, 0]], [1.0, 1.0], rtol=1e-12)
