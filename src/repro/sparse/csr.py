"""Compressed Sparse Row matrix container.

A deliberately small, validation-heavy CSR container: three NumPy arrays
(``data``, ``indices``, ``indptr``) plus a shape, templated on the value
precision.  It mirrors what a ``KokkosSparse::CrsMatrix`` provides to the
paper's solvers: storage, a matvec, precision conversion, and structural
metadata needed by the performance model (bandwidth, nonzeros per row).

Indices are always ``int32`` — the paper's model in Section V-D explicitly
assumes the integer index type stays 4 bytes wide in both precisions, and
the SpMV speedup formula depends on that.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..precision import Precision, as_precision

__all__ = ["CsrMatrix"]

INDEX_DTYPE = np.int32


class CsrMatrix:
    """CSR sparse matrix with explicit precision.

    Parameters
    ----------
    data:
        Nonzero values, length ``nnz``.
    indices:
        Column index of each nonzero, length ``nnz`` (``int32``).
    indptr:
        Row pointers, length ``n_rows + 1``, monotone non-decreasing,
        ``indptr[0] == 0`` and ``indptr[-1] == nnz``.
    shape:
        ``(n_rows, n_cols)``.
    name:
        Optional human-readable name (problem generators fill this in; it is
        carried through to experiment reports).
    check:
        Validate the structure on construction (default True).  Disable only
        in hot paths that construct matrices from already-validated pieces.
    """

    __slots__ = (
        "data",
        "indices",
        "indptr",
        "shape",
        "name",
        "_bandwidth",
        "backend_cache",
        "cost_keys",
        "_cast_cache",
    )

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
        *,
        name: str = "",
        check: bool = True,
    ) -> None:
        self.data = np.asarray(data)
        if self.data.dtype not in (np.float16, np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.indices = np.asarray(indices, dtype=INDEX_DTYPE)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self.name = name
        self._bandwidth: Optional[int] = None
        # Read-only backend plans built from the CSR arrays (e.g. the
        # scipy.sparse handle, the NumPy DIA view); see repro.backends.
        # Kernel temporaries live in the per-thread repro.scratch pool.
        self.backend_cache: dict = {}
        # Cost-model keys of the metered SpMV/SpMM, one per kernel width;
        # see repro.linalg.kernels.
        self.cost_keys: dict = {}
        # Precision-cast copies, keyed by dtype; see astype().
        self._cast_cache: dict = {}
        if check:
            self._validate()

    # ------------------------------------------------------------------ #
    # construction helpers                                               #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scipy(cls, matrix, *, name: str = "", precision=None) -> "CsrMatrix":
        """Build from any scipy.sparse matrix (converted to CSR)."""
        from .convert import from_scipy

        return from_scipy(matrix, name=name, precision=precision)

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        shape: Tuple[int, int],
        *,
        name: str = "",
    ) -> "CsrMatrix":
        """Build from COO triplets (duplicate entries are summed)."""
        from .ops import coo_to_csr

        data, indices, indptr = coo_to_csr(rows, cols, values, shape)
        return cls(data, indices, indptr, shape, name=name)

    @classmethod
    def identity(cls, n: int, precision="double", *, name: str = "I") -> "CsrMatrix":
        """The n×n identity matrix."""
        prec = as_precision(precision)
        data = np.ones(n, dtype=prec.dtype)
        indices = np.arange(n, dtype=INDEX_DTYPE)
        indptr = np.arange(n + 1, dtype=np.int64)
        return cls(data, indices, indptr, (n, n), name=name, check=False)

    # ------------------------------------------------------------------ #
    # validation                                                         #
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.indptr.ndim != 1 or self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.data.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("data and indices must be one-dimensional")
        if self.data.size != nnz or self.indices.size != nnz:
            raise ValueError(
                f"data/indices length must equal indptr[-1]={nnz}, "
                f"got {self.data.size}/{self.indices.size}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column indices out of range")

    # ------------------------------------------------------------------ #
    # basic properties                                                   #
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.indptr[-1])

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def precision(self) -> Precision:
        """The :class:`~repro.precision.Precision` of the stored values."""
        return as_precision(self.dtype)

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    def nnz_per_row(self) -> np.ndarray:
        """Number of nonzeros in each row (length ``n_rows``)."""
        return np.diff(self.indptr).astype(np.int64)

    def row_index_of_nonzeros(self) -> np.ndarray:
        """Row index of each stored nonzero (length ``nnz``)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), self.nnz_per_row()
        )

    def bandwidth(self) -> int:
        """Matrix bandwidth ``max |i - j|`` over stored nonzeros (cached)."""
        if self._bandwidth is None:
            if self.nnz == 0:
                self._bandwidth = 0
            else:
                rows = self.row_index_of_nonzeros()
                self._bandwidth = int(
                    np.max(np.abs(rows - self.indices.astype(np.int64)))
                )
        return self._bandwidth

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where not stored)."""
        n = min(self.shape)
        diag = np.zeros(n, dtype=self.dtype)
        rows = self.row_index_of_nonzeros()
        mask = (rows == self.indices) & (rows < n)
        diag[rows[mask]] = self.data[mask]
        return diag

    # ------------------------------------------------------------------ #
    # arithmetic                                                         #
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Unmetered matrix–vector product ``A @ x`` on the active backend.

        The metered wrapper lives in :mod:`repro.linalg.kernels`; both
        dispatch through :func:`repro.backends.active_backend`.
        """
        from ..backends import active_backend

        return active_backend().spmv(self, np.asarray(x), out=out)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Unmetered transpose product ``A.T @ x`` on the active backend."""
        from ..backends import active_backend

        return active_backend().spmv_transpose(self, np.asarray(x))

    def matmat(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Unmetered batched multi-RHS product ``A @ X`` (``X`` is n × k)."""
        from ..backends import active_backend

        return active_backend().spmm(self, np.asarray(X), out=out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return self.matmat(x) if x.ndim == 2 else self.matvec(x)

    # ------------------------------------------------------------------ #
    # conversion                                                         #
    # ------------------------------------------------------------------ #
    def astype(self, precision, *, name: Optional[str] = None) -> "CsrMatrix":
        """This matrix with values stored in another precision.

        Index arrays are shared (not copied): only the values change width,
        matching the paper's storage scheme for the fp32 copy of ``A`` kept
        by GMRES-IR.

        The cast is **cached per dtype** (unless a custom ``name`` is
        given): repeated ``astype`` calls return the same object, so its
        backend plans (SciPy handle, DIA/SpMM plan, row geometry) are
        built once and amortized across solves — this is what lets a
        mixed-precision :class:`~repro.serve.OperatorSession` warm its
        inner-precision matrix eagerly and have every later dispatch hit
        the warm copy.  Matrices are treated as immutable throughout the
        library; mutating ``data`` after a cast would desynchronize the
        cached copies.
        """
        prec = as_precision(precision)
        if prec.dtype == self.dtype:
            return self
        if name is None:
            cached = self._cast_cache.get(prec.dtype)
            if cached is not None:
                return cached
        out = CsrMatrix(
            self.data.astype(prec.dtype),
            self.indices,
            self.indptr,
            self.shape,
            name=name if name is not None else self.name,
            check=False,
        )
        out._bandwidth = self._bandwidth
        if name is None:
            self._cast_cache[prec.dtype] = out
        return out

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (copies nothing if possible)."""
        from .convert import to_scipy

        return to_scipy(self)

    def copy(self) -> "CsrMatrix":
        """Deep copy (values, indices and pointers)."""
        out = CsrMatrix(
            self.data.copy(),
            self.indices.copy(),
            self.indptr.copy(),
            self.shape,
            name=self.name,
            check=False,
        )
        out._bandwidth = self._bandwidth
        return out

    # ------------------------------------------------------------------ #
    # memory accounting (for the performance model / OOM checks)          #
    # ------------------------------------------------------------------ #
    def storage_bytes(self) -> int:
        """Bytes needed to store the matrix (values + indices + pointers)."""
        return int(
            self.data.nbytes + self.indices.nbytes + self.indptr.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CsrMatrix{label} {self.shape[0]}x{self.shape[1]} "
            f"nnz={self.nnz} dtype={self.dtype.name}>"
        )
