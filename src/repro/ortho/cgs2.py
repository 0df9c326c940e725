"""Two-pass classical Gram-Schmidt (CGS2) — the paper's orthogonalization.

Each GMRES iteration performs *two* projection passes; each pass is one
transposed GEMV (inner products) and one non-transposed GEMV (subtraction),
which is why Figures 4, 7 and 8 of the paper split orthogonalization time
into exactly "GEMV (Trans)", "Norm" and "GEMV (No Trans)".  The summed
coefficients of both passes form the Hessenberg column.

Both passes are one :func:`~repro.linalg.kernels.cgs2_project` call,
which the NumPy backend runs as the compiled block CGS2 kernel at block
width 1, reading the basis three times instead of four; it is metered as
the four GEMVs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..linalg import kernels
from ..linalg.multivector import MultiVector
from .base import OrthogonalizationManager

__all__ = ["ClassicalGramSchmidt2"]


class ClassicalGramSchmidt2(OrthogonalizationManager):
    """Two passes of classical Gram-Schmidt (CGS2)."""

    name = "cgs2"
    _n_scratch_columns = 3  # first-pass, second-pass and summed coefficients

    def orthogonalize(
        self, basis: MultiVector, w: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        j = basis.count
        if j == 0:
            return np.zeros(0, dtype=w.dtype), kernels.norm2(w)
        b1, b2, bh = self._column_scratch(basis)
        # Both passes in one kernel: the second re-orthogonalizes the
        # remainder of the first.
        h1, h2 = basis.cgs2_project(w, b1[:j], b2[:j])
        h = np.add(h1, h2, out=bh[:j])
        h_next = kernels.norm2(w)
        return h, h_next
