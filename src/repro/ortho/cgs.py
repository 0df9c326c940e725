"""Single-pass classical Gram-Schmidt.

One projection pass: two tall-skinny GEMVs plus a norm.  Cheapest per
iteration but numerically the weakest — in finite precision the computed
basis can lose orthogonality, which is why the paper (and Belos) defaults
to the two-pass variant.  Included for the ablation benchmark.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..linalg import kernels
from ..linalg.multivector import MultiVector
from .base import OrthogonalizationManager

__all__ = ["ClassicalGramSchmidt"]


class ClassicalGramSchmidt(OrthogonalizationManager):
    """One pass of classical Gram-Schmidt (CGS)."""

    name = "cgs"

    def orthogonalize(
        self, basis: MultiVector, w: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        j = basis.count
        if j == 0:
            return np.zeros(0, dtype=w.dtype), kernels.norm2(w)
        (bh,) = self._column_scratch(basis)
        h = basis.project(w, out=bh[:j])
        basis.subtract_projection(w, h)
        h_next = kernels.norm2(w)
        return h, h_next
