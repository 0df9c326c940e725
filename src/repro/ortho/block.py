"""Block orthogonalization for Block-GMRES.

Block Arnoldi expands the Krylov basis by ``k`` vectors at a time (one
``spmm`` per block step), so the orthogonalization work comes in two
parts with very different shapes:

* **inter-block** — project the ``k`` new vectors against the ``j·k``
  already-orthonormal basis columns.  This is where the bytes are, and it
  is expressed as two BLAS-3 passes (``gemm_transpose`` +
  ``gemm_notrans``): the basis streams through memory *once* for all
  ``k`` vectors, instead of once per vector as in the GEMV-based CGS2 of
  single-vector GMRES;
* **intra-block** — mutually orthonormalize the ``k`` new vectors.  The
  panel is tiny (``k ≈ 8``), so this runs column-by-column with the
  existing metered GEMV/norm kernels (two classical Gram-Schmidt passes
  per column, the CGS2 discipline), producing the ``k × k`` triangular
  factor that becomes the subdiagonal block of the band Hessenberg.

Managers own their coefficient/work scratch (allocated once per distinct
active block width, i.e. once per deflation event), so the steady-state
block iteration allocates nothing.  The ``work`` block of the
``W -= V H`` update is Fortran-ordered like the basis columns it updates,
so ``gemm_notrans`` runs the product in BLAS's tall-skinny orientation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..linalg import kernels
from ..linalg.multivector import MultiVector
from .base import BREAKDOWN_TOLERANCE, OrthogonalizationManager

__all__ = [
    "BlockOrthogonalizationManager",
    "BlockClassicalGramSchmidt2",
    "BlockClassicalGramSchmidt",
]


class BlockOrthogonalizationManager(OrthogonalizationManager):
    """Block classical Gram-Schmidt: orthogonalizes a block of new Arnoldi
    vectors against the basis in ``_n_block_passes`` passes."""

    #: short name used in reports and benchmarks
    name: str = "block-ortho"
    ndim = 2

    #: inter-block projection passes (1 = BCGS, 2 = BCGS2)
    _n_block_passes: int = 2

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[int, int, int, str], Dict[str, np.ndarray]] = {}

    def _buffers(self, basis: MultiVector, k: int) -> Dict[str, np.ndarray]:
        """Per-(shape, width) scratch, reallocated only on deflation."""
        key = (basis.length, basis.capacity, k, basis.dtype.str)
        bufs = self._bufs.get(key)
        if bufs is None:
            dtype = basis.dtype
            bufs = self._bufs[key] = {
                "coeff": np.empty((basis.capacity, k), dtype=dtype),
                "panel": np.empty((basis.capacity, k), dtype=dtype),
                "work": np.empty((basis.length, k), dtype=dtype, order="F"),
                "col": np.empty(basis.capacity, dtype=dtype),
                "vec": np.empty(basis.length, dtype=dtype),
            }
        return bufs

    def orthogonalize(
        self, basis: MultiVector, W: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Orthonormalize the block ``W``: the ``k`` basis columns after
        the stored ones (see :meth:`orthogonalize_block`)."""
        return self.orthogonalize_block(basis, basis.count, W.shape[1])

    def orthogonalize_block(
        self, basis: MultiVector, start: int, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Orthogonalize basis columns ``[start, start + k)`` in place.

        The columns are orthogonalized against columns ``[0, start)`` and
        then mutually orthonormalized.

        Returns
        -------
        (panel, subdiagonal):
            ``panel`` — a ``(start + k, k)`` view of internal scratch:
            rows ``0 .. start-1`` hold the inter-block projection
            coefficients, rows ``start .. start+k-1`` the intra-block
            upper-triangular factor.  ``subdiagonal`` — a view of that
            factor's diagonal, the column norms.  A column whose norm is
            at or below :data:`~repro.ortho.base.BREAKDOWN_TOLERANCE`
            collapsed to (numerically exact) zero: it is zeroed and its
            diagonal entry set to 0.  Both are valid only until the next
            call.
        """
        if k <= 0:
            raise ValueError("block width must be positive")
        if start + k > basis.capacity:
            raise ValueError("block exceeds the basis capacity")
        bufs = self._buffers(basis, k)
        W = basis.column_block(start, k)
        panel = bufs["panel"][: start + k]
        panel[:] = 0

        # Inter-block passes: BLAS-3 projection against the orthonormal part.
        if start > 0:
            for _ in range(self._n_block_passes):
                h = basis.project(W, j=start, out=bufs["coeff"][:start])
                basis.subtract_projection(W, h, j=start, work=bufs["work"])
                np.add(panel[:start], h, out=panel[:start])

        # Intra-block: CGS2 column sweep producing the triangular factor.
        col_scratch = bufs["col"]
        vec_work = bufs["vec"]
        for i in range(k):
            w = W[:, i]
            sub = W[:, :i]
            if i > 0:
                for _ in range(self._n_block_passes):
                    h = kernels.gemv_transpose(sub, w, out=col_scratch[:i])
                    kernels.gemv_notrans(sub, h, w, work=vec_work)
                    target = panel[start : start + i, i]
                    np.add(target, h, out=target)
            norm = kernels.norm2(w)
            if norm <= BREAKDOWN_TOLERANCE:
                w[:] = 0
                panel[start + i, i] = 0
            else:
                panel[start + i, i] = norm
                kernels.scal(1.0 / norm, w)
        return panel, np.diagonal(panel[start:])


class BlockClassicalGramSchmidt2(BlockOrthogonalizationManager):
    """Two-pass block classical Gram-Schmidt (the paper's CGS2, blocked)."""

    name = "bcgs2"
    _n_block_passes = 2


class BlockClassicalGramSchmidt(BlockOrthogonalizationManager):
    """Single-pass block classical Gram-Schmidt (ablation variant)."""

    name = "bcgs"
    _n_block_passes = 1

