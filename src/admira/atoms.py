"""Rank-one atoms and atomic decompositions of low-rank iterates.

A low-rank iterate is carried as a weighted sum of unit-norm rank-one
factors instead of a dense matrix, which keeps selection, merging and
re-truncation cheap: the dense matrix is only materialized on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _as_2d, _finalize_triplets, svd_truncated

__all__ = [
    "AtomSet",
    "AtomExpansion",
    "empty_expansion",
    "leading_atoms",
    "merge",
    "vectorize",
    "assemble",
    "truncate_expansion",
]

# |<psi_i, psi_j>_F| above 1 - DUPLICATE_TOL marks two atoms as the same direction
DUPLICATE_TOL = 1e-10

UNIT_TOL = 1e-12

# Ritz residual stop, relative to sigma_1, of the Krylov selection: the
# least-squares step re-fits over the merged span and the truncation is exact,
# so selection needs only most of the proxy's energy (complete-1000 seeds 1-13
# took 265 iterations at GKL_TOL, 257 here, 273 at 1e-4; ~17% less per step)
SELECT_TOL = 1e-5


class AtomSet:
    """Ordered atom collection stored as stacked left/right factors.

    ``left`` is (m, t) and ``right`` is (n, t); column j of each holds atom
    j. Columns are unit norm. `merge` additionally keeps atoms pairwise
    non-collinear, while the constructor accepts degenerate stacks so
    downstream truncation can collapse them.
    """

    def __init__(self, left, right):
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
            raise ValueError("left/right factor shapes are inconsistent")
        for factor in (left, right):
            if not np.abs(np.linalg.norm(factor, axis=0) - 1.0).max(initial=0.0) <= UNIT_TOL:
                raise ValueError("atom factors must have unit norm columns")
        self.left = left
        self.right = right

    @property
    def m(self) -> int:
        return self.left.shape[0]

    @property
    def n(self) -> int:
        return self.right.shape[0]

    def __len__(self) -> int:
        return self.left.shape[1]

    def inner_products(self, other: "AtomSet") -> np.ndarray:
        """Pairwise Frobenius inner products ``<psi_i, phi_j>`` as a matrix."""
        return (self.left.T @ other.left) * (self.right.T @ other.right)


@dataclass(frozen=True, eq=False)
class AtomExpansion:
    """Weighted atom sum representing ``sum_j coeffs[j] * outer(u_j, v_j)``."""

    atoms: AtomSet
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).ravel()
        if c.shape[0] != len(self.atoms):
            raise ValueError("one coefficient per atom is required")
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return len(self.atoms)


def empty_expansion(m: int, n: int) -> AtomExpansion:
    return AtomExpansion(AtomSet(np.zeros((m, 0)), np.zeros((n, 0))), np.zeros(0))


def leading_atoms(M, k: int, work=None) -> AtomExpansion:
    """Best orthonormal atom selection for ``M``: its top-k singular triplets.

    Coefficients are the singular values. Negligible triplets are dropped,
    so fewer than ``k`` atoms may come back; a zero matrix yields an empty
    expansion (nothing worth selecting) rather than an error. Among all atom
    sets of size <= k this maximizes the Frobenius norm of the projection of
    ``M``, to within ``SELECT_TOL``: each triplet's residual is below
    ``SELECT_TOL * sigma_1`` in float64 (exact to rounding on the dense
    path). From ``linalg.SINGLE_MIN_DIM`` rows and columns the Krylov
    products read a float32 copy of ``M``, held in ``work`` past ``M``'s
    m n doubles when it has room (see `svd_truncated`). The atoms share no
    memory with ``M`` or ``work``.
    """
    # svd_truncated checks that M is finite and that k >= 1
    A = _as_2d(M)
    U, sigma, V = svd_truncated(A, min(k, min(A.shape)), SELECT_TOL, work=work)
    return AtomExpansion(AtomSet(U, V), sigma)


def merge(set_a: AtomSet, set_b: AtomSet) -> AtomSet:
    """Union of two atom sets: concatenation with later near-duplicates dropped."""
    if set_a.m != set_b.m or set_a.n != set_b.n:
        raise ValueError("atom sets live in different matrix spaces")
    stacked = AtomSet(np.hstack([set_a.left, set_b.left]), np.hstack([set_a.right, set_b.right]))
    inner = np.abs(stacked.inner_products(stacked))
    keep: list[int] = []
    for j in range(len(stacked)):
        if keep and inner[keep, j].max() > 1.0 - DUPLICATE_TOL:
            continue
        keep.append(j)
    return AtomSet(stacked.left[:, keep], stacked.right[:, keep])


def vectorize(aset: AtomSet) -> np.ndarray:
    """(mn, t) matrix whose column j is the row-major ``vec(outer(u_j, v_j))``."""
    return np.einsum("mt,nt->mnt", aset.left, aset.right).reshape(
        aset.m * aset.n, len(aset)
    )


def assemble(exp: AtomExpansion) -> np.ndarray:
    """Materialize the dense matrix of an expansion."""
    return (exp.atoms.left * exp.coeffs) @ exp.atoms.right.T


def truncate_expansion(exp: AtomExpansion, r: int) -> AtomExpansion:
    """Best rank-r approximation of an expansion, kept in factored form.

    Works on the stacked factors only: orthonormalize left and right stacks
    by QR, decompose the small core, keep the top r triplets. Never forms
    the dense m-by-n matrix, and agrees with re-selecting atoms from the
    assembled matrix up to the usual sign/degeneracy freedom.
    """
    if r < 1:
        raise ValueError("r must be positive")
    aset = exp.atoms
    Ql, Rl = np.linalg.qr(aset.left)
    Qr, Rr = np.linalg.qr(aset.right)
    core = (Rl * exp.coeffs) @ Rr.T
    Uc, s, Vct = np.linalg.svd(core, full_matrices=False)
    k = min(r, s.shape[0])
    U, sigma, V = _finalize_triplets(Ql @ Uc, s, Qr @ Vct.T, k)
    return AtomExpansion(AtomSet(U, V), sigma)
