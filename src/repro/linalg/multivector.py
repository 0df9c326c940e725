"""MultiVector: the block of Krylov basis vectors.

Plays the role of the Kokkos-backed Belos ``MultiVector`` adapter from
Section IV of the paper: a pre-allocated ``n × (m+1)`` block holding the
Krylov basis of a restarted GMRES cycle, with the two block operations that
dominate orthogonalization cost (``V_j^T w`` and ``w -= V_j h``) routed
through the metered kernels: GEMVs for one new vector, BLAS-3 GEMMs for a
block of them.

The storage is column-major (Fortran order) so that "the first ``j``
columns" is a contiguous view — the same reason Kokkos uses LayoutLeft for
these blocks — which keeps the NumPy GEMV calls cache-friendly per the
HPC-Python guidance on memory layout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..precision import Precision, as_precision
from . import kernels

__all__ = ["MultiVector"]


class MultiVector:
    """A fixed-capacity block of dense vectors in one precision.

    Parameters
    ----------
    length:
        Vector length ``n``.
    capacity:
        Maximum number of vectors (``m + 1`` for GMRES(m)).
    precision:
        Storage precision of the block.
    """

    __slots__ = ("_block", "_count", "_work", "precision")

    def __init__(self, length: int, capacity: int, precision="double") -> None:
        if length < 0 or capacity <= 0:
            raise ValueError("length must be >= 0 and capacity positive")
        prec = as_precision(precision)
        self.precision: Precision = prec
        self._block = np.zeros((length, capacity), dtype=prec.dtype, order="F")
        # Length-n scratch handed to the GEMV update kernel so the
        # subtraction/combination passes never allocate an intermediate.
        self._work = np.empty(length, dtype=prec.dtype)
        self._count = 0

    # ------------------------------------------------------------------ #
    # shape / storage queries                                            #
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Vector length ``n``."""
        return self._block.shape[0]

    @property
    def capacity(self) -> int:
        """Maximum number of vectors the block can hold."""
        return self._block.shape[1]

    @property
    def count(self) -> int:
        """Number of vectors currently stored."""
        return self._count

    @property
    def dtype(self) -> np.dtype:
        return self._block.dtype

    def storage_bytes(self) -> int:
        """Bytes of device memory the block occupies (used for OOM checks)."""
        return int(self._block.nbytes)

    def scratch_bytes(self) -> int:
        """Bytes of the length-``n`` scratch vector the GEMV updates use,
        which :meth:`storage_bytes` leaves out."""
        return int(self._work.nbytes)

    # ------------------------------------------------------------------ #
    # vector access                                                      #
    # ------------------------------------------------------------------ #
    def column(self, j: int) -> np.ndarray:
        """Writable view of column ``j`` (must be < capacity)."""
        if not 0 <= j < self.capacity:
            raise IndexError(f"column {j} out of range (capacity {self.capacity})")
        return self._block[:, j]

    def block(self, j: Optional[int] = None) -> np.ndarray:
        """Contiguous view of the first ``j`` columns (default: all stored)."""
        j = self._count if j is None else j
        if not 0 <= j <= self.capacity:
            raise IndexError(f"block size {j} out of range")
        return self._block[:, :j]

    def column_block(self, start: int, count: int) -> np.ndarray:
        """Writable view of ``count`` consecutive columns from ``start``.

        Because the storage is Fortran-ordered, the view is itself
        F-contiguous — the shape block solvers hand to ``spmm``/``gemm``.
        """
        if start < 0 or count < 0 or start + count > self.capacity:
            raise IndexError(
                f"column block [{start}, {start + count}) out of range "
                f"(capacity {self.capacity})"
            )
        return self._block[:, start : start + count]

    def append(self, vector: np.ndarray) -> int:
        """Copy ``vector`` into the next free column; returns its index."""
        if self._count >= self.capacity:
            raise RuntimeError("MultiVector is full")
        vector = np.asarray(vector)
        if vector.shape != (self.length,):
            raise ValueError("vector has wrong length")
        j = self._count
        self._block[:, j] = vector  # implicit cast to the block's precision
        self._count += 1
        return j

    def set_count(self, count: int) -> None:
        """Reset the number of stored vectors (e.g. on restart)."""
        if not 0 <= count <= self.capacity:
            raise ValueError("count out of range")
        self._count = count

    def reset(self) -> None:
        """Forget all stored vectors (storage is reused, not zeroed)."""
        self._count = 0

    # ------------------------------------------------------------------ #
    # metered block operations                                           #
    # ------------------------------------------------------------------ #
    def project(
        self,
        W: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``H = V_j^T W`` against the first ``j`` stored vectors (metered).

        A vector ``w`` runs one GEMV; a block ``W`` (n × k) one BLAS-3
        GEMM, which reads the basis once for all ``k`` columns.  ``out``,
        when given, is the caller-owned length-``j`` (or C-contiguous
        ``(j, k)``) coefficient buffer.
        """
        V = self.block(j)
        if W.ndim == 1:
            return kernels.gemv_transpose(V, W, out=out)
        return kernels.gemm_transpose(V, W, out=out)

    def subtract_projection(
        self,
        W: np.ndarray,
        H: np.ndarray,
        j: Optional[int] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W -= V_j H`` in place (metered).

        A vector's intermediate ``V_j h`` lands in this block's scratch
        vector, so the call allocates nothing.  For a block, ``work`` is
        caller-owned ``(n, k)`` scratch in the same layout as ``W``;
        without it, or in another layout, the call allocates.
        """
        V = self.block(j)
        if W.ndim == 1:
            return kernels.gemv_notrans(V, H, W, work=self._work)
        return kernels.gemm_notrans(V, H, W, work=work)

    def cgs2_project(
        self,
        w: np.ndarray,
        h1: Optional[np.ndarray] = None,
        h2: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both CGS2 passes on ``w`` against the stored vectors ``V``:
        ``h1 = V^T w; w -= V h1; h2 = V^T w; w -= V h2`` in place
        (metered as those four GEMVs); returns ``(h1, h2)``.

        ``h1``/``h2``, when given, are caller-owned coefficient buffers
        of length :attr:`count`.
        """
        return kernels.cgs2_project(self.block(), w, h1, h2, work=self._work)

    def bcgs2_project(
        self,
        W: np.ndarray,
        j: Optional[int] = None,
        H1: Optional[np.ndarray] = None,
        H2: Optional[np.ndarray] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both block CGS2 passes on the block ``W`` against the first
        ``j`` stored vectors ``V``: ``H1 = V^T W; W -= V H1; H2 = V^T W;
        W -= V H2`` in place (metered as those four GEMMs); returns
        ``(H1, H2)``.

        ``H1``/``H2``, when given, are caller-owned C-contiguous
        ``(j, k)`` coefficient blocks; ``work`` is a block's scratch, as
        in :meth:`subtract_projection`.
        """
        return kernels.bcgs2_project(self.block(j), W, H1, H2, work=work)

    def combine(
        self,
        coefficients: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``X = V_j Y`` — form the solution update(s) from the Krylov basis
        (metered): one GEMV for a coefficient vector, one GEMM for a
        ``(j, k)`` coefficient block.

        Writes into ``out`` when given (caller-owned, length ``n`` or
        ``(n, k)``; it is zeroed first and must not alias the scratch or
        the basis); ``work`` is a block's scratch, as in
        :meth:`subtract_projection`.  The sign is folded into the update
        kernel (``alpha=+1``), so no negated copy of the coefficients is
        made.
        """
        V = self.block(j)
        coefficients = np.asarray(coefficients, dtype=self.dtype)
        shape = (self.length,) + coefficients.shape[1:]
        if out is None:
            out = np.zeros(shape, dtype=self.dtype, order="F")
        else:
            if out.shape != shape:
                raise ValueError("combine output buffer has wrong shape")
            out[:] = 0
        # out = 0 + V y via the metered update kernel keeps labels consistent.
        if coefficients.ndim == 1:
            return kernels.gemv_notrans(V, coefficients, out, alpha=1.0, work=self._work)
        return kernels.gemm_notrans(V, coefficients, out, alpha=1.0, work=work)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultiVector n={self.length} count={self._count}/{self.capacity} "
            f"dtype={self.dtype.name}>"
        )
