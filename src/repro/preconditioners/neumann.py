"""Neumann-series polynomial preconditioner (ablation alternative).

``M = (sum_{k=0}^{d} (I - D^{-1} A)^k) D^{-1}`` — the truncated Neumann
series for ``A^{-1}`` built on the Jacobi splitting.  Only effective when
the Jacobi iteration matrix has spectral radius below one (strongly
diagonally dominant problems), but it needs no eigenvalue information and
no Arnoldi run, making it the cheapest polynomial preconditioner to set up.
Included for the design-choice ablation in DESIGN.md; the paper itself uses
the GMRES polynomial.
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg import kernels
from ..scratch import scratch
from ..sparse.csr import CsrMatrix
from .base import Preconditioner

__all__ = ["NeumannPreconditioner"]


class NeumannPreconditioner(Preconditioner):
    """Truncated Neumann series on the Jacobi splitting.

    Parameters
    ----------
    matrix:
        System matrix.
    degree:
        Number of series terms beyond the constant one (``degree`` SpMVs per
        application).
    precision:
        Precision of the stored matrix copy and the application arithmetic.
    """

    def __init__(self, matrix: CsrMatrix, degree: int = 2, precision="double") -> None:
        super().__init__(precision=precision, name=f"neumann[{degree}]")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        start = time.perf_counter()
        self.degree = int(degree)
        self._matrix = self._matrix_in_precision(matrix, self.precision)
        diag = matrix.diagonal().astype(np.float64)
        if np.any(diag == 0.0):
            raise ValueError("matrix has zero diagonal entries; Neumann/Jacobi is undefined")
        self._inv_diag = (1.0 / diag).astype(self.precision.dtype)
        self._setup_seconds = time.perf_counter() - start

    def spmvs_per_apply(self) -> int:
        return self.degree

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """Apply ``sum_k (I - D^{-1}A)^k D^{-1} v`` via the stable recurrence.

        ``y_0 = D^{-1} v``;  ``y_{k+1} = D^{-1} v + (I - D^{-1} A) y_k``.
        """
        vector = self._check_precision(vector)
        n, dtype = vector.shape[0], vector.dtype
        # Jacobi-scaled right-hand side and SpMV output.
        g = kernels.diag_scale(self._inv_diag, vector, out=scratch("neumann.g", dtype, n))
        w_buf = scratch("neumann.w", dtype, n)
        y = kernels.copy(g, out=out)
        for _ in range(self.degree):
            w = kernels.spmv(self._matrix, y, out=w_buf)
            # diag_scale may alias in place (elementwise), saving a buffer.
            correction = kernels.diag_scale(self._inv_diag, w, out=w_buf)
            # y <- g + y - D^{-1} A y
            kernels.axpy(-1.0, correction, y)
            kernels.axpy(1.0, g, y)
        return y
