"""Block-Jacobi preconditioner.

The ``J k`` entries of Table III: the matrix rows are grouped into
contiguous blocks of size ``k``; the diagonal blocks are extracted, inverted
(dense LU at setup), and one application is a batched small dense solve —
embarrassingly parallel across blocks, hence GPU friendly.

Table III applies a reverse Cuthill–McKee reordering *before* forming the
blocks so that the strong couplings fall inside them; that reordering is
the caller's responsibility (see :func:`repro.sparse.ordering.reverse_cuthill_mckee`)
because the permuted system — not the preconditioner — is what the solver
iterates on.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg import kernels
from ..scratch import scratch
from ..sparse.csr import CsrMatrix
from ..sparse.ops import extract_block_diagonal
from .base import Preconditioner

__all__ = ["BlockJacobiPreconditioner"]


class BlockJacobiPreconditioner(Preconditioner):
    """``M = diag(A_11^{-1}, A_22^{-1}, ...)`` with contiguous blocks.

    Parameters
    ----------
    matrix:
        Square system matrix.
    block_size:
        Number of rows per block (the trailing block may be smaller and is
        padded with identity rows).  ``block_size=1`` degenerates to point
        Jacobi (but see :class:`~repro.preconditioners.jacobi.JacobiPreconditioner`
        for the cheaper dedicated implementation).
    precision:
        Precision in which the block inverses are computed, stored and
        applied.  The fp32 variant is what GMRES-IR uses in Table III.
    regularization:
        Value added to the diagonal of numerically singular blocks before
        inversion (tiny shift; 0 disables).
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        block_size: int = 1,
        precision="double",
        *,
        regularization: float = 0.0,
    ) -> None:
        super().__init__(precision=precision, name=f"block_jacobi[{block_size}]")
        if not matrix.is_square:
            raise ValueError("block Jacobi requires a square matrix")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        start = time.perf_counter()
        self.block_size = int(block_size)
        self.n = matrix.n_rows
        blocks = extract_block_diagonal(
            matrix.data.astype(np.float64),
            matrix.indices,
            matrix.indptr,
            self.n,
            self.block_size,
        )
        if regularization:
            k = blocks.shape[1]
            blocks[:, np.arange(k), np.arange(k)] += regularization
        # Invert every block at setup.  Blocks are small (k <= a few hundred),
        # so explicit inverses are fine and make the apply a single batched
        # matmul; a singular block is reported with its index.
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            dets = np.abs(np.linalg.det(blocks))
            bad = int(np.argmin(dets))
            raise ValueError(
                f"block {bad} of the block-Jacobi preconditioner is singular; "
                "consider a reordering, a different block size or regularization"
            ) from exc
        self._inv_blocks = inv.astype(self.precision.dtype)
        self._padded = self._inv_blocks.shape[0] * self.block_size
        self._setup_seconds = time.perf_counter() - start

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        vector = self._check_precision(vector)
        if vector.shape[0] != self.n:
            raise ValueError("vector length does not match the matrix dimension")
        if self._padded != self.n:
            # The ragged trailing block runs on zero-padded scratch; another
            # block-Jacobi on this thread may have left the tail dirty.
            dtype = self.precision.dtype
            pad_in = scratch("block_jacobi.in", dtype, self._padded)
            pad_in[: self.n] = vector
            pad_in[self.n :] = 0
            result = kernels.block_diag_solve(
                self._inv_blocks, pad_in, out=scratch("block_jacobi.out", dtype, self._padded)
            )
            if out is None:
                return result[: self.n].copy()
            out[:] = result[: self.n]
            return out
        return kernels.block_diag_solve(self._inv_blocks, vector, out=out)

    @property
    def n_blocks(self) -> int:
        return self._inv_blocks.shape[0]

    @property
    def inverse_blocks(self) -> np.ndarray:
        """The stored block inverses, shape ``(n_blocks, k, k)``."""
        return self._inv_blocks
