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

import abc
from typing import Dict, Tuple

import numpy as np

from ..linalg import kernels
from ..linalg.multivector import MultiVector

__all__ = [
    "BlockOrthogonalizationManager",
    "BlockClassicalGramSchmidt2",
    "BlockClassicalGramSchmidt",
    "make_block_ortho_manager",
]

#: Intra-block column norms at or below this are treated as exact linear
#: dependence (e.g. a zero residual column): the column is zeroed rather
#: than normalized, mirroring the lucky-breakdown handling of the
#: single-vector solver.
BLOCK_BREAKDOWN_TOLERANCE = 1e-30


class BlockOrthogonalizationManager(abc.ABC):
    """Orthogonalizes a block of new Arnoldi vectors against the basis."""

    #: short name used in reports and benchmarks
    name: str = "block-ortho"

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

    @abc.abstractmethod
    def orthogonalize_block(
        self, basis: MultiVector, start: int, k: int
    ) -> Tuple[np.ndarray, bool]:
        """Orthogonalize basis columns ``[start, start + k)`` in place.

        The columns are orthogonalized against columns ``[0, start)`` and
        then mutually orthonormalized.

        Returns
        -------
        (panel, breakdown):
            ``panel`` — a ``(start + k, k)`` view of internal scratch:
            rows ``0 .. start-1`` hold the inter-block projection
            coefficients, rows ``start .. start+k-1`` the intra-block
            upper-triangular factor (diagonal = column norms).  Valid only
            until the next call.  ``breakdown`` — True when an intra-block
            column collapsed to (numerically exact) zero; the column is
            zeroed and its diagonal entry set to 0.
        """


class _GramSchmidtBlockBase(BlockOrthogonalizationManager):
    """Shared machinery of the one- and two-pass block CGS variants."""

    def orthogonalize_block(
        self, basis: MultiVector, start: int, k: int
    ) -> Tuple[np.ndarray, bool]:
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
                h = basis.project_block(W, j=start, out=bufs["coeff"][:start])
                basis.subtract_projection_block(W, h, j=start, work=bufs["work"])
                np.add(panel[:start], h, out=panel[:start])

        # Intra-block: CGS2 column sweep producing the triangular factor.
        breakdown = False
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
            if norm <= BLOCK_BREAKDOWN_TOLERANCE:
                breakdown = True
                w[:] = 0
                panel[start + i, i] = 0
            else:
                panel[start + i, i] = norm
                kernels.scal(1.0 / norm, w)
        return panel, breakdown


class BlockClassicalGramSchmidt2(_GramSchmidtBlockBase):
    """Two-pass block classical Gram-Schmidt (the paper's CGS2, blocked)."""

    name = "bcgs2"
    _n_block_passes = 2


class BlockClassicalGramSchmidt(_GramSchmidtBlockBase):
    """Single-pass block classical Gram-Schmidt (ablation variant)."""

    name = "bcgs"
    _n_block_passes = 1


_REGISTRY = {
    "bcgs": BlockClassicalGramSchmidt,
    "bcgs2": BlockClassicalGramSchmidt2,
}


def make_block_ortho_manager(name: str) -> BlockOrthogonalizationManager:
    """Build a block orthogonalization manager by name (``"bcgs2"``, ``"bcgs"``)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown block orthogonalization {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]()
