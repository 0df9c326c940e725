"""Structural CSR utilities.

The COO→CSR conversion (``np.lexsort`` + segmented sums) and the
block-diagonal extraction used by the block-Jacobi preconditioner.  The
computational kernels (``spmv``, ``spmv_transpose``, the batched
multi-RHS ``spmm``) belong to the pluggable kernel-backend protocol: the
reference implementations are in :mod:`repro.backends.numpy_backend`, the
metered wrappers in :mod:`repro.linalg.kernels`, and both dispatch
through the *active* backend on a :class:`~repro.sparse.csr.CsrMatrix`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "coo_to_csr",
    "extract_block_diagonal",
]


def coo_to_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert COO triplets to CSR arrays, summing duplicate entries.

    Entries are sorted by (row, column) with ``np.lexsort``; duplicates are
    merged by a segmented sum.  The value dtype is preserved.

    Returns
    -------
    (data, indices, indptr)
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    if not (rows.shape == cols.shape == values.shape):
        raise ValueError("rows, cols and values must have identical shapes")
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")

    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]

    if rows.size:
        # Merge duplicates: positions where (row, col) differs from previous.
        new_entry = np.empty(rows.size, dtype=bool)
        new_entry[0] = True
        new_entry[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group_starts = np.flatnonzero(new_entry)
        data = np.add.reduceat(values, group_starts)
        out_rows = rows[group_starts]
        out_cols = cols[group_starts]
    else:
        data = values
        out_rows = rows
        out_cols = cols

    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, out_rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    indices = out_cols.astype(np.int32)
    return data.astype(values.dtype, copy=False), indices, indptr


def extract_block_diagonal(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    n: int,
    block_size: int,
) -> np.ndarray:
    """Extract the block diagonal of a square CSR matrix as dense blocks.

    Used by the block-Jacobi preconditioner.  Rows/columns are grouped into
    contiguous blocks of ``block_size`` (the final block may be smaller; it
    is zero-padded so the result is a uniform 3-D array).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_blocks, block_size, block_size)`` where block
        ``b`` holds ``A[b*bs:(b+1)*bs, b*bs:(b+1)*bs]`` (zero padded).
        Padded diagonal entries are set to 1 so the blocks stay invertible.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    n_blocks = (n + block_size - 1) // block_size
    blocks = np.zeros((n_blocks, block_size, block_size), dtype=data.dtype)

    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)
    row_block = rows // block_size
    col_block = cols // block_size
    mask = row_block == col_block
    rb = row_block[mask]
    ri = rows[mask] - rb * block_size
    ci = cols[mask] - rb * block_size
    blocks[rb, ri, ci] = data[mask]

    # Unit-pad the diagonal of the (possibly short) final block.
    remainder = n - (n_blocks - 1) * block_size
    if remainder < block_size:
        pad = np.arange(remainder, block_size)
        blocks[-1, pad, pad] = 1.0
    return blocks
