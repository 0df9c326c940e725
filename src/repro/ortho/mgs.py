"""Modified Gram-Schmidt.

Numerically more robust than single-pass CGS, but it needs ``2 j`` separate
kernel launches per Arnoldi vector (one dot and one axpy per existing basis
vector), which is exactly the launch-overhead pattern GPUs hate; the paper
sticks with CGS2 for that reason.  Provided for the ablation benchmark and
as a correctness oracle in tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..linalg import kernels
from ..linalg.multivector import MultiVector
from .base import OrthogonalizationManager

__all__ = ["ModifiedGramSchmidt"]


class ModifiedGramSchmidt(OrthogonalizationManager):
    """Modified Gram-Schmidt (MGS)."""

    name = "mgs"

    def orthogonalize(
        self, basis: MultiVector, w: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        j = basis.count
        if j == 0:
            return np.zeros(0, dtype=w.dtype), kernels.norm2(w)
        (bh,) = self._column_scratch(basis)
        h = bh[:j]
        for i in range(j):
            v_i = basis.column(i)
            h_i = kernels.dot(v_i, w)
            h[i] = h_i
            kernels.axpy(-h_i, v_i, w)
        h_next = kernels.norm2(w)
        return h, h_next
