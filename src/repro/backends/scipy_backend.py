"""SciPy fast-path backend.

Dispatches the sparse kernels (SpMV / SpMV^T / SpMM) to the compiled CSR
routines in :mod:`scipy.sparse`, which are several times faster than the
``np.add.reduceat`` reference on the matrices the paper studies (the
backend-comparison benchmark records the measured ratio in
``BENCH_backends.json``).  Dense and vector kernels are inherited from the
NumPy reference — for tall-skinny GEMV, dot and axpy, NumPy already calls
the same BLAS SciPy would.  The polynomial preconditioner's factor chain
runs the recurrence of :meth:`KernelBackend.poly_chain` on these
products, not the NumPy backend's compiled DIA chain.

Two semantic guard rails keep the numerics interchangeable with the
reference backend:

* **fp16 falls back to NumPy.**  SciPy's sparse kernels have no float16
  path and silently upcast the product to float32; the reference kernels
  accumulate genuinely in fp16, and the half-precision experiments need
  exactly that behaviour.
* **fp32/fp64 accumulate in the value dtype** in SciPy's compiled CSR
  loops, matching the reference semantics (and the templated Belos/Tpetra
  stack of the paper).

Known deviation: for ``spmv_transpose`` in fp32, the *reference* is the
one that accumulates wide (``np.bincount`` only sums in float64, then
casts back — noted in its docstring), while SciPy accumulates genuinely
in fp32.  The transpose product is a diagnostics-only kernel (GMRES never
needs ``A^T``), the divergence is bounded by fp32 round-off, and the
parity tests pin it to dtype-appropriate tolerance.

The SciPy view of a matrix is built once per :class:`CsrMatrix` and cached
in the matrix's ``backend_cache`` (the arrays are shared, not copied), so
repeated products inside a solver pay no conversion cost.

``out=`` path: ``scipy.sparse`` has no public ``out=`` for its products,
but the compiled kernel it calls internally (``_sparsetools.csr_matvec``)
accumulates into a caller-provided output vector.  When that private hook
is importable (it has been stable across SciPy releases for a decade) the
``out=`` SpMV zeroes the buffer and accumulates in place — the same
instruction sequence ``handle @ x`` would run, so results are bit-identical
— and the solver hot path allocates nothing.  Otherwise the backend falls
back to product-then-copy, which is still correct, just not allocation-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..scratch import scratch
from .base import KernelBackend
from .numpy_backend import NumpyBackend, _copy_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparse.csr import CsrMatrix

__all__ = ["ScipyBackend"]

_CACHE_KEY = "scipy_csr"

try:  # private but long-stable compiled kernels with an output argument
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVEC = getattr(_st, "csr_matvec", None)
    _CSR_MATVECS = getattr(_st, "csr_matvecs", None)
except Exception:  # pragma: no cover - exotic scipy builds
    _CSR_MATVEC = None
    _CSR_MATVECS = None


class ScipyBackend(NumpyBackend):
    """SciPy-accelerated sparse kernels over the NumPy reference backend."""

    name = "scipy"

    #: The recurrence on this backend's own products, not the NumPy
    #: backend's compiled DIA chain.
    poly_chain = KernelBackend.poly_chain
    #: The inter-block passes of block CGS2 as the four BLAS GEMMs, not the
    #: NumPy backend's compiled projection.  The intra-block passes are
    #: CGS2 projections, which this backend inherits compiled like every
    #: single-vector solve's, so its block CGS2 solves agree with the BLAS
    #: sequence to rounding, not bit for bit.
    bcgs2_project = KernelBackend.bcgs2_project

    @staticmethod
    def _handle(matrix: "CsrMatrix"):
        """The cached ``scipy.sparse.csr_matrix`` view of ``matrix``.

        The cache entry pairs the handle with the ``data`` array it was
        built from, so a matrix whose ``data`` attribute is swapped out
        gets a fresh handle (matrices are otherwise treated as immutable).
        """
        cache = getattr(matrix, "backend_cache", None)
        if cache is not None:
            entry = cache.get(_CACHE_KEY)
            if entry is not None and entry[0] is matrix.data:
                return entry[1]
        import scipy.sparse as sp

        handle = sp.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr),
            shape=matrix.shape,
            copy=False,
        )
        if cache is not None:
            cache[_CACHE_KEY] = (matrix.data, handle)
        return handle

    def spmv(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if matrix.data.dtype == np.float16:
            return super().spmv(matrix, x, out=out)
        handle = self._handle(matrix)
        if out is None:
            return handle @ x
        if out.shape != (matrix.shape[0],):
            raise ValueError("output vector has wrong length")
        if x.shape[0] != matrix.shape[1]:
            # csr_matvec is compiled C with no bounds checking; a short x
            # would be read out of bounds.
            raise ValueError("input vector has wrong length")
        if _CSR_MATVEC is not None and x.dtype == handle.data.dtype == out.dtype:
            # csr_matvec accumulates y += A x, so zero the buffer first.
            out[:] = 0
            _CSR_MATVEC(
                handle.shape[0],
                handle.shape[1],
                handle.indptr,
                handle.indices,
                handle.data,
                x,
                out,
            )
            return out
        out[:] = handle @ x
        return out

    def spmv_transpose(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if matrix.data.dtype == np.float16:
            return super().spmv_transpose(matrix, x, out=out)
        if x.shape[0] != matrix.shape[0]:
            raise ValueError("x must have length n_rows for the transpose product")
        y = self._handle(matrix).T @ x
        if out is None:
            return y
        if out.shape != y.shape:
            raise ValueError("output vector has wrong length")
        out[:] = y
        return out

    def spmm(
        self,
        matrix: "CsrMatrix",
        X: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2:
            raise ValueError("spmm expects a 2-D block of column vectors")
        if X.shape[0] != matrix.shape[1]:
            raise ValueError("input block has wrong number of rows")
        if matrix.data.dtype == np.float16:
            return super().spmm(matrix, X, out=out)
        handle = self._handle(matrix)
        n_rows, k = matrix.shape[0], X.shape[1]
        if out is not None and out.shape != (n_rows, k):
            raise ValueError("output block has wrong shape")
        if k == 0:
            return np.zeros((n_rows, 0), dtype=X.dtype) if out is None else out
        if (
            out is not None
            and k > 0
            and _CSR_MATVEC is not None
            and X.dtype == handle.data.dtype == out.dtype
            and X.flags.f_contiguous
            and out.flags.f_contiguous
        ):
            # Fortran-ordered blocks (the Krylov basis panels) have
            # contiguous columns, so the fastest compiled path is one
            # csr_matvec per column: it vectorizes better than the
            # row-major csr_matvecs kernel and is arithmetically identical
            # (both accumulate row-wise per column).
            out[:] = 0  # csr_matvec accumulates y += A x
            for c in range(k):
                _CSR_MATVEC(
                    handle.shape[0],
                    handle.shape[1],
                    handle.indptr,
                    handle.indices,
                    handle.data,
                    X[:, c],
                    out[:, c],
                )
            return out
        if (
            out is not None
            and k > 0
            and _CSR_MATVECS is not None
            and X.dtype == handle.data.dtype == out.dtype
        ):
            # csr_matvecs is the compiled kernel `handle @ X` itself calls
            # (scipy's _matmul_multivector), so the numerics are identical;
            # it wants row-major blocks, so non-C-contiguous operands go
            # through per-thread scratch and the hot path allocates nothing.
            if X.flags.c_contiguous:
                source = X
            else:
                source = scratch("scipy.spmm.x", X.dtype, X.shape)
                _copy_block(source, X)
            if out.flags.c_contiguous:
                target = out
            else:
                target = scratch("scipy.spmm.y", out.dtype, out.shape)
            target[:] = 0  # csr_matvecs accumulates Y += A X
            _CSR_MATVECS(
                handle.shape[0],
                handle.shape[1],
                k,
                handle.indptr,
                handle.indices,
                handle.data,
                source.ravel(),
                target.ravel(),
            )
            if target is not out:
                _copy_block(out, target)
            return out
        Y = handle @ X
        if out is None:
            return Y
        out[:] = Y
        return out
