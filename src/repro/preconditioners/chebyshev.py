"""Chebyshev polynomial preconditioner (ablation alternative).

A classical polynomial preconditioner for matrices whose spectrum lies in a
positive real interval ``[lmin, lmax]``: ``M = p(A)`` where ``p`` is the
scaled-and-shifted Chebyshev polynomial minimising the maximum of
``|1 - z p(z)|`` over the interval.  Like the GMRES polynomial it is applied
as a sequence of SpMVs and vector updates (three-term recurrence), so it
shares the same fp32-friendly cost profile; unlike the GMRES polynomial it
needs eigenvalue bounds and is only appropriate for (nearly) symmetric
positive definite operators.  Included for the design-choice ablation
called out in DESIGN.md, not used in the paper.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..linalg import kernels
from ..scratch import scratch
from ..sparse.csr import CsrMatrix
from .base import Preconditioner

__all__ = ["ChebyshevPreconditioner", "estimate_spectrum_bounds"]


def estimate_spectrum_bounds(
    matrix: CsrMatrix, *, power_iterations: int = 20, seed: int = 0
) -> Tuple[float, float]:
    """Crude bounds on the spectrum of an SPD matrix.

    The largest eigenvalue is estimated with a few power iterations; the
    smallest is taken as the larger of the Gershgorin lower bound and
    ``lmax / 30`` — the standard smoother-style heuristic, which keeps the
    Chebyshev interval well away from zero even for operators whose true
    smallest eigenvalue is tiny (targeting the whole spectrum of a Laplacian
    would make the polynomial useless).  Callers with better information
    should pass explicit bounds.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.n_rows)
    v /= np.linalg.norm(v)
    lmax = 1.0
    for _ in range(power_iterations):
        w = matrix.matvec(v)
        lmax = float(np.linalg.norm(w))
        if lmax == 0.0:
            raise ValueError("matrix appears to be zero")
        v = w / lmax
    # Gershgorin lower bound: min_i (a_ii - sum_{j != i} |a_ij|), clamped.
    rows = matrix.row_index_of_nonzeros()
    cols = matrix.indices.astype(np.int64)
    absval = np.abs(matrix.data.astype(np.float64))
    diag = np.zeros(matrix.n_rows)
    diag[rows[rows == cols]] = matrix.data[rows == cols].astype(np.float64)
    off = np.bincount(rows[rows != cols], weights=absval[rows != cols], minlength=matrix.n_rows)
    gersh = float(np.min(diag - off))
    lmin = max(gersh, lmax / 30.0)
    return lmin, lmax * 1.05


class ChebyshevPreconditioner(Preconditioner):
    """Chebyshev polynomial preconditioner of a given degree.

    Parameters
    ----------
    matrix:
        (Nearly) SPD system matrix.
    degree:
        Polynomial degree (number of SpMVs per application).
    precision:
        Precision of the stored matrix copy and the application arithmetic.
    bounds:
        Optional ``(lmin, lmax)`` spectrum bounds; estimated if omitted.
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        degree: int = 10,
        precision="double",
        *,
        bounds: Optional[Tuple[float, float]] = None,
    ) -> None:
        super().__init__(precision=precision, name=f"chebyshev[{degree}]")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        start = time.perf_counter()
        self.degree = int(degree)
        self._matrix = self._matrix_in_precision(matrix, self.precision)
        if bounds is None:
            bounds = estimate_spectrum_bounds(matrix)
        lmin, lmax = bounds
        if not (0 < lmin < lmax):
            raise ValueError("Chebyshev bounds must satisfy 0 < lmin < lmax")
        self.lmin = float(lmin)
        self.lmax = float(lmax)
        self._theta = (self.lmax + self.lmin) / 2.0
        self._delta = (self.lmax - self.lmin) / 2.0
        self._setup_seconds = time.perf_counter() - start

    def spmvs_per_apply(self) -> int:
        return self.degree

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """Chebyshev semi-iteration applied to the zero initial guess.

        Runs the classical three-term Chebyshev recurrence (Saad, "Iterative
        Methods for Sparse Linear Systems", §12.3) for ``degree`` steps on
        ``A x = v`` starting from ``x_0 = 0``; the result is a fixed
        polynomial in ``A`` applied to ``v``, so the operator is linear and
        constant across applications (a requirement for use as a
        non-flexible right preconditioner).
        """
        vector = self._check_precision(vector)
        A = self._matrix
        n, dtype = vector.shape[0], vector.dtype
        theta, delta = self._theta, self._delta
        if out is None:
            x = np.zeros_like(vector)
        else:
            out[:] = 0
            x = out
        # Residual of the zero initial guess, search direction, SpMV output.
        r = kernels.copy(vector, out=scratch("chebyshev.r", dtype, n))
        d = scratch("chebyshev.d", dtype, n)
        w_buf = scratch("chebyshev.w", dtype, n)
        sigma1 = theta / delta
        rho = 1.0 / sigma1
        np.multiply(r, dtype.type(1.0 / theta), out=d)
        for _ in range(self.degree):
            kernels.axpy(1.0, d, x)
            w = kernels.spmv(A, d, out=w_buf)
            kernels.axpy(-1.0, w, r)
            rho_new = 1.0 / (2.0 * sigma1 - rho)
            kernels.scal(rho_new * rho, d)
            kernels.axpy(2.0 * rho_new / delta, r, d)
            rho = rho_new
        return x
