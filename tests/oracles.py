"""Independent oracles used to freeze and cross-check expected values.

The singular-value oracle goes through the characteristic polynomial of the
Gram matrix (Faddeev-LeVerrier coefficients, then polynomial roots) and
never touches an SVD, so it checks the production kernel along a disjoint
code path. The least-squares oracle solves the normal equations in exact
rational arithmetic. The remaining helpers rebuild or read back what the
library produces, for comparison.
"""

from fractions import Fraction

import numpy as np


def charpoly_coefficients(A):
    """Coefficients of det(lambda*I - A), leading coefficient first."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros_like(A)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ Mk) / k
    return coeffs


def singular_values_charpoly(M):
    """Singular values of M via the characteristic polynomial of the Gram matrix."""
    M = np.asarray(M, dtype=float)
    scale = np.linalg.norm(M)
    if scale == 0.0:
        return np.zeros(min(M.shape))
    A = M / scale
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    roots = np.roots(charpoly_coefficients(G))
    eigs = np.clip(np.real(roots), 0.0, None)
    return scale * np.sort(np.sqrt(eigs))[::-1]


def reconstruct(U, sigma, V):
    """The matrix ``U @ diag(sigma) @ V.T`` of a ``svd_truncated`` triple."""
    return (U * sigma) @ V.T


def load_dense_matrix(path):
    """Read back a matrix written by ``fileio.save_dense_matrix``."""
    return np.atleast_2d(np.loadtxt(path, delimiter=","))


def random_orthonormal_atoms(m, n, k, rng):
    """Stacked factors of k pairwise-orthonormal random atoms."""
    qu, _ = np.linalg.qr(rng.standard_normal((m, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return qu, qv


def projection_norm_orthonormal(left, right, M):
    """||P_Psi M||_F for an orthonormal atom set given by stacked factors."""
    inner = np.einsum("mt,mn,nt->t", left, M, right)
    return float(np.linalg.norm(inner))


def projection(left, right, M):
    """Frobenius projection of M onto the span of the atoms with stacked
    factors (left, right), by least squares on the vectorized atoms, so it
    is exact for non-orthonormal sets too."""
    M = np.asarray(M, dtype=float)
    atoms = np.einsum("mt,nt->mnt", left, right).reshape(M.size, left.shape[1])
    coeffs, *_ = np.linalg.lstsq(atoms, M.ravel(), rcond=None)
    return (atoms @ coeffs).reshape(M.shape)


def least_squares_exact(Phi, b):
    """Exact solution of ``Phi.T @ Phi @ x = Phi.T @ b``, as Fractions, for a
    design of full column rank. Every float is a dyadic rational, so one
    power of two turns Phi and b into integers (which leaves x unchanged),
    the Gram system is formed in integers and eliminated in Fractions."""
    Phi = np.asarray(Phi, dtype=float)
    ratios = [v.as_integer_ratio() for v in [*Phi.ravel().tolist(), *np.ravel(b).tolist()]]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    p, t = Phi.shape
    cols = [ints[i:p * t:t] for i in range(t)]
    y = ints[p * t:]
    rows = [[Fraction(sum(a * c for a, c in zip(ci, cj))) for cj in [*cols, y]]
            for ci in cols]
    # the Gram matrix is positive definite: no pivot is zero
    for i in range(t):
        for r in range(t):
            if r != i and rows[r][i]:
                f = rows[r][i] / rows[i][i]
                rows[r] = [a - f * c for a, c in zip(rows[r], rows[i])]
    return [rows[i][t] / rows[i][i] for i in range(t)]
