"""Linear measurement operators on matrices and their adjoints.

Two concrete families are provided: dense Gaussian maps (near-isometries on
low-rank matrices) and entry samplers (matrix completion). Operators are
immutable after construction, so apply/adjoint calls are thread-safe.

``adjoint``, ``apply_atoms`` and ``apply_expansion`` take an optional ``work``
array from ``scratch(t)`` and may return a view of it, valid until its next
use. It belongs to the caller: operators never keep one, so they stay
immutable, and sharing one between threads is the caller's error.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from . import linalg
from .atoms import AtomExpansion, AtomSet, assemble, vectorize

__all__ = [
    "MeasurementOperator",
    "GaussianOperator",
    "EntrySampler",
    "DEFAULT_MEMORY_BUDGET",
    "OPERATOR_KINDS",
]

# bytes of dense coefficient storage a Gaussian operator may allocate
DEFAULT_MEMORY_BUDGET = 1 << 30


class MeasurementOperator(ABC):
    """Linear map from (m, n) matrices to length-p measurement vectors."""

    def __init__(self, m: int, n: int, p: int):
        if min(m, n, p) < 1:
            raise ValueError("m, n and p must be positive")
        self.m = int(m)
        self.n = int(n)
        self.p = int(p)

    def _check_matrix(self, X) -> np.ndarray:
        A = np.asarray(X, dtype=float)
        if A.shape != (self.m, self.n):
            raise ValueError(f"expected matrix shape {(self.m, self.n)}, got {A.shape}")
        return A

    def _check_vector(self, y) -> np.ndarray:
        w = np.asarray(y, dtype=float).ravel()
        if w.shape[0] != self.p:
            raise ValueError(f"expected measurement length {self.p}, got {w.shape[0]}")
        return w

    def _check_atoms(self, aset: AtomSet) -> None:
        if (aset.m, aset.n) != (self.m, self.n):
            raise ValueError(f"atoms of a {aset.m}x{aset.n} matrix, expected {self.m}x{self.n}")

    def check_measurements(self, b) -> np.ndarray:
        """``b`` as a length-p float vector; ValueError unless every entry is finite."""
        y = self._check_vector(b)
        if not np.all(np.isfinite(y)):
            raise ValueError("measurements contain non-finite entries")
        return y

    @abstractmethod
    def apply(self, X) -> np.ndarray:
        """Measure a dense matrix: returns a length-p vector."""

    @abstractmethod
    def adjoint(self, y, work=None) -> np.ndarray:
        """Adjoint map: satisfies ``<apply(X), y> == <X, adjoint(y)>_F``."""

    def apply_expansion(self, exp: AtomExpansion, work=None) -> np.ndarray:
        """Measure an atom expansion; equals ``apply(assemble(exp))``."""
        return self.apply(assemble(exp))

    @abstractmethod
    def apply_atoms(self, aset: AtomSet, work=None) -> np.ndarray:
        """(p, t) matrix whose column j is the measurement of atom j."""

    def scratch(self, t: int) -> np.ndarray | None:
        """``work`` array for calls on up to t atoms; None if none is needed."""
        return None


class GaussianOperator(MeasurementOperator):
    """Dense i.i.d. Gaussian measurement map with entry variance 1/p.

    The variance makes ``E ||apply(X)||^2 = ||X||_F^2``, i.e. the map is an
    isometry in expectation. Fully reproducible from (m, n, p, seed).
    """

    kind = "gaussian"

    def __init__(self, m, n, p, seed):
        super().__init__(m, n, p)
        need = 8 * self.p * self.m * self.n
        if need > DEFAULT_MEMORY_BUDGET:
            raise MemoryError(
                f"dense operator needs {need} bytes, budget is {DEFAULT_MEMORY_BUDGET}"
            )
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.matrix = rng.standard_normal((self.p, self.m * self.n)) / np.sqrt(self.p)

    def apply(self, X) -> np.ndarray:
        return self.matrix @ self._check_matrix(X).ravel()

    def adjoint(self, y, work=None) -> np.ndarray:
        return (self.matrix.T @ self._check_vector(y)).reshape(self.m, self.n)

    def apply_atoms(self, aset: AtomSet, work=None) -> np.ndarray:
        self._check_atoms(aset)
        # one GEMM reads the operator once for all t atoms; the (t, mn) @ (mn, p)
        # orientation runs about twice as fast as matrix @ (mn, t) with one BLAS thread
        return (vectorize(aset).T @ self.matrix.T).T


class EntrySampler(MeasurementOperator):
    """Observes p distinct entries of the matrix, in a fixed order.

    The adjoint zero-fills measurements back onto the observed positions, so
    ``apply(adjoint(y)) == y`` and ``adjoint(apply(X))`` masks X by the
    sample set. Expansion-aware paths never materialize the dense matrix.
    The sampler keeps read-only copies of its integer indices and their flat
    index ``rows * n + cols``, which ``apply`` and ``adjoint`` read.
    """

    kind = "entry"

    def __init__(self, m, n, rows, cols):
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise ValueError("row and column indices must be integers")
        rows, cols = rows.ravel().astype(np.intp), cols.ravel().astype(np.intp)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have equal length")
        super().__init__(m, n, rows.shape[0])
        if rows.min(initial=0) < 0 or rows.max(initial=0) >= self.m:
            raise ValueError("row index out of range")
        if cols.min(initial=0) < 0 or cols.max(initial=0) >= self.n:
            raise ValueError("column index out of range")
        if self.m * self.n > np.iinfo(np.intp).max:
            raise ValueError(f"a {self.m}x{self.n} matrix has more entries than np.intp holds")
        flat = rows * self.n + cols
        if not np.diff(np.sort(flat)).all():  # a sort: the hash-based unique is 30-40x slower
            raise ValueError("sample positions must be distinct")
        rows.flags.writeable = cols.flags.writeable = flat.flags.writeable = False
        self.rows, self.cols, self.flat = rows, cols, flat

    @classmethod
    def random(cls, m, n, p, seed) -> "EntrySampler":
        """Sample p positions uniformly without replacement, seeded."""
        if p > m * n:
            raise ValueError(f"cannot sample {p} distinct entries from a {m}x{n} matrix")
        rng = np.random.default_rng(seed)
        flat = rng.choice(m * n, size=p, replace=False)
        rows, cols = np.divmod(flat, n)
        return cls(m, n, rows, cols)

    def apply(self, X) -> np.ndarray:
        return np.take(self._check_matrix(X), self.flat)

    def scratch(self, t: int) -> np.ndarray:
        """The proxy and selection's float32 copy past it (mn + ceil(mn / 2)
        doubles), or the (p, t) design and one block of gathered right rows
        (at most ``linalg.BLOCK_ENTRIES`` entries, or one row of t); they
        are never alive at once. The size does not fall as t does, so it
        holds the calls on fewer atoms too."""
        mn, pt = self.m * self.n, self.p * t
        return np.empty(max(mn + (mn + 1) // 2, pt + min(pt, max(linalg.BLOCK_ENTRIES, t))))

    def adjoint(self, y, work=None) -> np.ndarray:
        mn = self.m * self.n
        Z = (np.empty(mn) if work is None else work)[:mn].reshape(self.m, self.n)
        Z.fill(0.0)  # zeroing mapped memory costs less than faulting in fresh pages
        np.put(Z, self.flat, self._check_vector(y))
        return Z

    def apply_expansion(self, exp: AtomExpansion, work=None) -> np.ndarray:
        # O(p * t): only the sampled positions of each rank-one term are formed
        return self.apply_atoms(exp.atoms, work) @ exp.coeffs

    def apply_atoms(self, aset: AtomSet, work=None) -> np.ndarray:
        self._check_atoms(aset)
        t = len(aset)
        blocks = linalg._row_blocks(self.p, t)
        size, held = self.p * t, blocks[0].stop * t
        out, right = ((np.empty(size), np.empty(held)) if work is None
                      else (work[:size], work[size:size + held]))
        out, right = out.reshape(self.p, t), right.reshape(blocks[0].stop, t)
        # a row block at a time, so the right rows are multiplied in while in cache;
        # np.take gathers rows several times faster than fancy indexing; the indices are
        # checked and read-only, so "clip" never clips ("raise" buffers instead of out)
        for rows in blocks:
            a, c = out[rows], right[:rows.stop - rows.start]
            np.take(aset.left, self.rows[rows], axis=0, out=a, mode="clip")
            np.take(aset.right, self.cols[rows], axis=0, out=c, mode="clip")
            np.multiply(a, c, out=a)
        return out


# operator kinds by name, each built from (m, n, p, seed)
OPERATOR_KINDS = {"entry": EntrySampler.random, "gaussian": GaussianOperator}
