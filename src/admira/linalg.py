"""Linear-algebra kernel shared by every other module.

All routines operate on real matrices and are deterministic: singular
vectors follow a fixed sign convention (first nonzero entry of each left
singular vector is non-negative), so repeated calls on identical input
return identical factors.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "svd_truncated",
    "least_squares_minnorm",
    "frobenius_norm",
    "as_matrix",
    "unit_scale",
    "rescale",
]

# singular values below NEGLIGIBLE_SIGMA * sigma_1 count as numerical noise
NEGLIGIBLE_SIGMA = 1e-12

# relative cutoff deciding the numerical rank in least squares (lstsq's rcond)
DEFAULT_RANK_TOL = 1e-10

# least squares solves the t x t Gram system, refined once, while the Gram's
# condition number is below this; at or above it lstsq takes over (12000
# random tall designs, t <= 12, residual up to 100 times the fit: relative
# distance from lstsq's coefficients at most 9e-14 below 1e3, up to 6e-12
# at 1e4-1e5, and 1.4e-12 just below 1e3 without the refinement step)
GRAM_COND_MAX = 1e3

# a Krylov top-k selection takes 16-24 Lanczos steps of a few NumPy calls
# each at atoms.SELECT_TOL (24-36 at GKL_TOL); below this min(m, n), one
# LAPACK SVD of the whole matrix is truncated instead (GKL at SELECT_TOL /
# dense time on p = 0.2 m n completion proxies, top 4 triplets, one BLAS
# thread of a 2-core x86-64 Xeon VM: 1.2-1.9 at 50, 0.9-1.6 at 70, 0.4-0.7
# at 85-100, 0.2 at 150). The cut sits above the crossover, near 70; it
# waits for a workload between 70 and 99 to place it
GKL_MIN_DIM = 100

# svd_truncated's default stop: every requested Ritz residual below GKL_TOL *
# sigma_1; a Krylov space that exhausts min(m, n) is exact anyway
GKL_TOL = 1e-13

# the convergence test costs an SVD of the j x j bidiagonal, as much as
# several Lanczos steps on a 200 x 200 matrix, so it runs every few steps
# (at SELECT_TOL, every 3-8 steps tie within noise; every 1-2 cost 15-45% more)
GKL_CHECK_EVERY = 4

# floor stop at s + FLOOR_MARGIN * r <= floor (near-tau SVT shrinks: 10/30000 wrong at 1, 0 at 8)
FLOOR_MARGIN = 8

# beta below GKL_CLOSE (about sqrt(machine epsilon)) times the scale of the
# current Lanczos block marks that block's Krylov space as invariant
GKL_CLOSE = 1e-8

# start and restart vectors come from a local generator with this seed, so
# results are deterministic and the global NumPy random state is never read
GKL_SEED = 20090106

# svd_truncated reads M as given while ||M||_F^2 lies in [1/SCALE_RANGE,
# SCALE_RANGE], where neither the kernel's float32 products nor its float64
# squares come near over- or underflow; any other M, zero included, goes in
# through unit_scale (a dot product of 2^-540 M underflows, one of 2^510 M
# overflows, and LAPACK rescales by factors that are not powers of two)
SCALE_RANGE = 2.0**60

# at a tol of at least SINGLE_MIN_TOL and from min(m, n) = SINGLE_MIN_DIM,
# the kernel's products read a float32 copy of M: a float32 GEMV carries
# about sqrt(n) 2^-24 relative error (2e-6 at n = 1000), so SVT_TOL and
# GKL_TOL stay float64. The GEMV costs half once M no longer fits in cache;
# the copy and the float64 check cost about five GEMVs (ms per ADMiRA
# iteration, p = 0.2 m n completion, rank 2, one BLAS thread of a 2-core
# x86-64 Xeon VM, float64 -> float32: 1.10 -> 1.17 at 150, 1.23 -> 1.24 at
# 200, 1.76 -> 1.76 at 300, 2.31 -> 2.23 at 350, 2.75 -> 2.46 at 400, 4.19
# -> 3.43 at 500, 9.99 -> 7.11 at 700, 18.9 -> 15.7 at 1000)
SINGLE_MIN_TOL = 1e-5
SINGLE_MIN_DIM = 400

# float32 products blur singular values near 1e-6 sigma_1, which a residual
# below tol * sigma_1 cannot tell from noise: the float32 path's triplets
# hold only with sigma_k above SINGLE_MIN_SIGMA * sigma_1
SINGLE_MIN_SIGMA = 1e-3

# row blocks of at most BLOCK_ENTRIES entries (512 KB of doubles) let one
# read from memory serve several products while the block is in cache (see
# `_row_blocks`). The float64 check of the float32 path reads M this way
# (ms at 1000^2, k = 4: 0.44 in blocks of 2^16 or 2^17, 0.97 in one GEMM,
# which also packs M into 0.5 MB more of BLAS buffers; one GEMV takes 0.23),
# and so do the completion fit's gathers and least squares (ms per call on
# the 2e5 x 6 design of complete-1000, whole arrays -> blocks: the two gathers
# and their product 4.5 -> 3.5, least_squares_minnorm 6.5 -> 5.1)
BLOCK_ENTRIES = 2**16


def _as_2d(M, name: str = "matrix") -> np.ndarray:
    """``M`` as a float array; a ``ValueError`` unless it is 2-d."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    return A


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``M`` to a 2-d float array with finite entries."""
    A = _as_2d(M, name)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices that cut ``n`` rows of ``width`` entries each into blocks of at
    most ``BLOCK_ENTRIES`` entries (at least one row); the last may be
    shorter. Rows that fit one block give the one slice ``0:n``."""
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _finalize_triplets(U, s, V, k, e: int = 0):
    """The top k triplets without negligible ones (none for k = 0 or a zero
    sigma_1), each pair (u_j, v_j) flipped so the first nonzero entry of u_j
    is positive; the kept sigmas are mapped back from the scale ``2^-e``
    that `unit_scale` took."""
    s = np.asarray(s[:k], dtype=float)
    if not s.size or s[0] <= 0.0:
        return np.zeros((U.shape[0], 0)), np.zeros(0), np.zeros((V.shape[0], 0))
    keep = s > NEGLIGIBLE_SIGMA * s[0]
    # boolean indexing copies, so the flips leave the inputs alone; each kept
    # u_j is a unit vector, so it has a nonzero entry, whose sign is exactly +-1.0
    U, V = U[:, :k][:, keep], V[:, :k][:, keep]
    mag = np.abs(U)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    sign = np.sign(U[lead, np.arange(U.shape[1])])
    U *= sign
    V *= sign
    s = s[keep]
    return U, rescale(s, e, "a singular value", "the matrix") if e else s, V


def svd_truncated(M, k: int, tol: float = GKL_TOL, floor: float = -np.inf, start=None,
                  work=None) -> tuple:
    """Top-k singular triplets ``(U, sigma, V)`` of ``M ~ U @ diag(sigma) @ V.T``.

    ``U`` (m, k) and ``V`` (n, k) have orthonormal columns (``V``, not the
    ``Vt`` of ``np.linalg.svd``); ``sigma`` is non-negative and non-increasing.

    Computed by Golub-Kahan-Lanczos bidiagonalization (see `_gkl_topk`),
    which touches ``M`` only through products with vectors; below
    ``GKL_MIN_DIM`` rows or columns, LAPACK's full SVD is cheaper and is
    truncated instead, whatever ``tol``, ``floor`` and ``start``. Triplets
    with sigma below ``NEGLIGIBLE_SIGMA * sigma_1`` are dropped, so the
    returned factor count can be smaller than ``k`` (zero for a zero matrix).

    Either path runs on ``M`` scaled by a power of two into a safe range
    (see ``SCALE_RANGE``), ``floor`` with it, so ``svd_truncated(2^e M)``
    gives ``U``, ``2^e sigma`` and ``V`` at any finite scale; a sigma past the double range is
    a ``ValueError``. At a ``tol`` of at least ``SINGLE_MIN_TOL`` and from
    ``SINGLE_MIN_DIM`` rows and columns, the kernel's products read a
    float32 copy of ``M``; the triplets it returns are checked once against
    ``M`` in float64, and kept only if each has ``max(||M v - sigma u||,
    ||M^T u - sigma v||) <= tol * sigma_1`` and sigma_k exceeds
    ``SINGLE_MIN_SIGMA * sigma_1``. Otherwise the call runs again in float64
    from the seeded start, as it would have without the copy.

    Parameters
    ----------
    M : array_like, shape (m, n)
        Finite entries, else ``ValueError("matrix contains non-finite entries")``.
    k : int
        Number of triplets requested, ``1 <= k <= min(m, n)``.
    tol : float
        Krylov stop: every Ritz residual below ``tol * sigma_1``. The default
        gives the triplets to rounding; atom selection passes a looser one.
    floor : float
        Krylov stop under triplets that met ``tol``: sigma + FLOOR_MARGIN residuals <= floor.
    start : array_like, shape (n,), optional
        Warm Krylov start, near the top right singular vectors; a zero one is ignored.
    work : float64 array, optional
        Scratch whose part past its first m n entries holds the float32
        copy (the solver's ``op.scratch``, whose head holds ``M`` and which
        always has the room); without room there, or without ``work``, the
        copy is a new array.
    """
    A = _as_2d(M)
    kmax = min(A.shape)
    copy = _single_copy(A, work) if tol >= SINGLE_MIN_TOL and kmax >= SINGLE_MIN_DIM else None
    X, e = _scaled(A, A if copy is None else copy)
    if not 1 <= k <= kmax:
        raise ValueError(f"k must be in [1, {kmax}], got {k}")
    if kmax < GKL_MIN_DIM:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        return _finalize_triplets(U, s, Vt.T, k, e)
    if e:  # the floor is compared with the Ritz values of X
        with np.errstate(over="ignore"):  # past the range, it is above every sigma
            floor = np.ldexp(floor, -e)
    if copy is not None:
        if e:
            copy[...] = X
        found = _krylov(copy, X, k, tol, floor, start)
        if _holds(X, *found, tol):
            return _finalize_triplets(*found, k, e)
    return _finalize_triplets(*_krylov(X, X, k, tol, floor, start), k, e)


def _scaled(A, x) -> tuple[np.ndarray, int]:
    """``(A, 0)`` while the sum of squares of ``x``, ``A`` or its float32
    copy, lies in [1/SCALE_RANGE, SCALE_RANGE], else `unit_scale(A)` (a zero
    A at e = 0); a ``ValueError`` when A holds a NaN or an infinity."""
    with np.errstate(over="ignore"):
        squares = float(np.vdot(x, x))
    if 1.0 / SCALE_RANGE <= squares <= SCALE_RANGE:
        return A, 0
    if not math.isfinite(squares) and not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return unit_scale(A)


def _single_copy(A, work) -> np.ndarray:
    """A float32 copy of ``A``, held in ``work`` past its first A.size
    doubles when it fits there without overlapping ``A``."""
    size = A.size + (A.size + 1) // 2
    copy = None
    if work is not None and work.size >= size:
        copy = work[A.size:size].view(np.float32)[:A.size].reshape(A.shape)
    if copy is None or np.may_share_memory(copy, A):
        copy = np.empty(A.shape, np.float32)
    with np.errstate(over="ignore"):  # an entry past float32's range is inf in the copy
        copy[...] = A
    return copy


def _krylov(A, X, k, tol, floor, start) -> tuple:
    """The kernel's top-k triplets ``(U, s, V)`` of ``A``, run on ``A^T``
    when it is wide (the start then maps through the float64 ``X``); a
    float32 ``A`` takes the kernel's vectors and hands back float64 products."""
    def product(B):
        if B.dtype == np.float64:
            return B.__matmul__
        return lambda x: (B @ x.astype(B.dtype)).astype(float)

    if A.shape[0] >= A.shape[1]:
        return _gkl_topk(product(A), product(A.T), *A.shape, k, tol, floor, start)
    V, s, U = _gkl_topk(product(A.T), product(A), *A.T.shape, k, tol, floor,
                        None if start is None else X @ start)
    return U, s, V


def _holds(X, U, s, V, tol: float) -> bool:
    """Whether float32-path triplets of ``X`` hold in float64: sigma_k above
    ``SINGLE_MIN_SIGMA * sigma_1``, and each residual within ``tol * sigma_1``.
    ``X V`` and ``U^T X`` are formed together, one row block of X at a
    time (`_row_blocks`), so each block is read from memory once."""
    if not s[-1] > SINGLE_MIN_SIGMA * s[0]:
        return False
    XV, UX = np.empty(U.shape), np.zeros(V.T.shape)
    for rows in _row_blocks(*X.shape):
        block = X[rows]
        np.matmul(block, V, out=XV[rows])
        UX += U[rows].T @ block
    res = np.maximum(np.linalg.norm(XV - U * s, axis=0),
                     np.linalg.norm(UX - s[:, None] * V.T, axis=1))
    return bool(res.max() <= tol * s[0])


def _unit_complement(w, basis, rng, floor):
    """Orthonormalize ``w`` against the rows of ``basis``, in place.

    A second Gram-Schmidt pass runs only when the first keeps at most
    1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart 1976). Returns
    ``(norm, unit)``; a norm at or below ``floor`` is a breakdown, and the
    unit then comes from a fresh random vector, with norm 0.
    """
    before = math.sqrt(w.dot(w))
    w -= basis.T @ (basis @ w)
    norm = math.sqrt(w.dot(w))
    if norm <= before * math.sqrt(0.5):
        w -= basis.T @ (basis @ w)
        norm = math.sqrt(w.dot(w))
    if norm > floor:
        return norm, w / norm
    return 0.0, _unit_complement(rng.standard_normal(basis.shape[1]), basis, rng, -1.0)[1]


def _gkl_topk(matvec, rmatvec, m, n, k, tol, floor=-np.inf, start=None):
    """Top-k singular triplets of the m x n ``A`` (``m >= n``) given as
    ``matvec(v) = A v``, a fresh array, and ``rmatvec(u) = A^T u``.

    After j steps, ``A V_j = U_j B_j`` with ``B_j`` upper bidiagonal
    (alphas on the diagonal, betas above it) and
    ``A^T U_j = V_j B_j^T + beta_j v_{j+1} e_j^T``, so Ritz triplet i of
    ``B_j = P diag(s) Q^T`` has residual ``r_i = beta_j |P[j, i]|``. The loop
    stops when each of the top k triplets has ``r_i <= tol * s_1`` or, below
    triplets that all have, ``s_i + FLOOR_MARGIN * r_i <= floor`` (some singular
    value lies within r_i of s_i, not always sigma_i), tested every
    ``GKL_CHECK_EVERY`` steps from ``j = k``; or when ``V_j`` spans R^n and the
    factorization is exact. Ritz values are lower bounds (s_i <= sigma_i), so a
    triplet within r_i of ``floor`` also waits for ``r_i <= GKL_TOL * s_1``.
    ``tol`` and ``floor`` govern only these tests; the breakdown floors and the
    negligible-block test stay at ``GKL_TOL``. ``V`` starts at a seeded random
    unit vector g or, for a nonzero finite ``start``, along start / ||start||
    + 0.3 g. Both bases double, up to n rows, as j reaches them. Each new
    vector is orthogonalized against the whole basis, and one that vanishes is
    replaced by a fresh orthogonal random one, with a zero coefficient.

    A single start vector sees one copy of each repeated singular value
    until its Krylov space is (nearly) invariant. When beta falls below
    ``GKL_CLOSE`` times the scale of the current block of ``B_j``, that
    block is closed and the next one probes its complement; the loop then
    also waits until the newest block's leading triplet has converged and
    ranks below the top k (or is negligible), so the copies a closed block
    hides are found. Copies hidden in a space that converges before it
    closes are found only through rounding, as in any single-vector Krylov
    method; proxies built from data have distinct singular values.
    """
    rng = np.random.default_rng(GKL_SEED)
    U = np.empty((k, m))
    V = np.empty((k, n))
    alphas: list[float] = []
    betas: list[float] = []
    v = rng.standard_normal(n)
    if start is not None and 0.0 < (size := np.linalg.norm(start)) < np.inf:
        v = start / size + 0.3 * v / np.linalg.norm(v)
    v /= np.linalg.norm(v)
    beta = scale = block_scale = 0.0
    j = block = 0
    while True:
        if j == len(V):
            U, V = (np.concatenate([X, np.empty((min(j, n - j), X.shape[1]))]) for X in (U, V))
        V[j] = v
        w = matvec(v)
        if j:
            w -= beta * U[j - 1]
        alpha, U[j] = _unit_complement(w, U[:j], rng, GKL_TOL * scale)
        alphas.append(alpha)
        j += 1
        exhausted = j == n
        if not exhausted:
            beta, v = _unit_complement(rmatvec(U[j - 1]) - alpha * v, V[:j], rng,
                                       GKL_TOL * max(scale, alpha))
            betas.append(beta)
        block_scale = max(block_scale, alpha, beta)
        scale = max(scale, block_scale)
        closed = beta <= GKL_CLOSE * block_scale
        if exhausted or (j >= k and (j - k) % GKL_CHECK_EVERY == 0):
            B = np.zeros((j, j))
            B.flat[:: j + 1] = alphas
            B.flat[1 :: j + 1] = betas[: j - 1]
            P, s, Qt = np.linalg.svd(B)
            if exhausted:
                break
            r = beta * np.abs(P[-1, :k])
            ok = r <= tol * s[0]
            if floor > -np.inf:
                ok &= (np.abs(s[:k] - floor) > r) | (r <= GKL_TOL * s[0])
                under = s[1:k] + FLOOR_MARGIN * r[1:] <= floor
                ok[1:] |= np.logical_and.accumulate(ok)[:-1] & under
            done = ok.all()
            if block or closed:
                Pn, sn, _ = np.linalg.svd(B[block:, block:])
                done = (done and beta * abs(Pn[-1, 0]) <= tol * s[0]
                        and (sn[0] < s[k - 1] or sn[0] <= GKL_TOL * s[0]))
            if done:
                break
        if closed:
            block, block_scale = j, 0.0
    return U[:j].T @ P[:, :k], s[:k], V[:j].T @ Qt[:k].T


def least_squares_minnorm(Phi, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``Phi @ x ~ b``.

    A tall design whose Gram matrix ``G = Phi.T @ Phi`` has a condition
    number below ``GRAM_COND_MAX`` is fitted from ``G x = Phi.T @ b`` and one
    refinement step ``x += G^-1 Phi.T (b - Phi x)`` (Björck's corrected
    seminormal equations, with the Gram in place of a QR factor), the SVD's
    coefficients to about 1e-13 relative. It reads ``Phi`` in two passes of
    row blocks (`_row_blocks`), each block for all of its products while it
    is in cache: the finiteness check, ``G`` and ``Phi.T @ b``, then the
    refinement's ``Phi x`` and ``Phi.T (b - Phi x)``; a design of at most
    ``BLOCK_ENTRIES`` entries is one block. Any other design goes to
    ``np.linalg.lstsq``, whose numerical rank counts the singular values >=
    ``DEFAULT_RANK_TOL`` times the largest one; the minimizer with the
    smallest 2-norm is returned, so rank-deficient or duplicated columns are
    handled rather than rejected.
    ``b = 0`` returns the zero vector.
    """
    A = _as_2d(Phi, "Phi")
    y = np.asarray(b, dtype=float).ravel()
    if y.shape[0] != A.shape[0]:
        raise ValueError(f"b has length {y.shape[0]}, expected {A.shape[0]}")
    tall = 0 < A.shape[1] <= A.shape[0]
    blocks = _row_blocks(*A.shape)
    G = c = r = 0.0
    for rows in blocks:
        block = A[rows]
        if not np.isfinite(block).all():
            raise ValueError("Phi contains non-finite entries")
        if not np.isfinite(y[rows]).all():
            raise ValueError("b contains non-finite entries")
        if tall:
            G += block.T @ block
            c += block.T @ y[rows]
    if tall and np.linalg.cond(G) < GRAM_COND_MAX:
        x = np.linalg.solve(G, c)
        for rows in blocks:
            block = A[rows]
            r += block.T @ (y[rows] - block @ x)
        return x + np.linalg.solve(G, r)
    x, *_ = np.linalg.lstsq(A, y, rcond=DEFAULT_RANK_TOL)
    return x


def frobenius_norm(M) -> float:
    return float(np.linalg.norm(as_matrix(M), "fro"))


def unit_scale(v) -> tuple[np.ndarray, int]:
    """``(v / 2^e, e)``, exact, with ``max|v / 2^e|`` in [0.5, 1): no norm of it
    overflows; a zero or empty ``v`` comes back at e = 0."""
    e = int(np.frexp(np.abs(v).max(initial=0.0))[1])
    return np.ldexp(v, -e), e


def rescale(x, e: int, what: str = "the solution", of: str = "b"):
    """``x * 2^e``, exact; a ``ValueError`` naming ``what`` when a value is past
    the double range at the scale ``e`` that `unit_scale` took from ``of``."""
    with np.errstate(over="ignore"):
        y = np.ldexp(x, e)
    if not np.isfinite(y).all():
        raise ValueError(f"{what} is past the double range at the scale of {of}")
    return y
