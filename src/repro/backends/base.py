"""The kernel-backend protocol.

A :class:`KernelBackend` supplies the raw computational primitives that the
instrumented layer (:mod:`repro.linalg.kernels`) dispatches to.  The split
of responsibilities is deliberate:

* the **backend** executes arithmetic — nothing else.  Its sparse methods
  take a :class:`~repro.sparse.csr.CsrMatrix` (any object exposing
  ``data``/``indices``/``indptr``/``shape`` and a ``backend_cache`` dict
  works) and dense NumPy arrays, and return NumPy arrays;
* the **instrumented layer** keeps the precision discipline
  (same-dtype enforcement), performance-model metering and timer
  bookkeeping, so every backend is metered identically.

Backends must preserve the *working-precision accumulation semantics* the
paper relies on: an fp32 SpMV accumulates in fp32 (the stagnation of the
fp32 inner solver around 1e-5…1e-6 relative residual is part of what the
paper studies).  Backends that cannot honour that for a dtype (e.g. SciPy
has no fp16 sparse kernels) must fall back to the NumPy reference for it
rather than silently upcasting.

Buffer-ownership contract (the ``out=``/``work=`` discipline): every kernel
that produces an array accepts an optional pre-allocated ``out`` buffer and,
when given one, must write its result *into that buffer and return it* —
never a freshly allocated array.  ``out`` must not alias any input unless a
kernel's docstring explicitly allows it.  This is what lets the solvers run
their steady-state iteration allocation-free, and it is the contract a
future accelerator backend needs anyway (there, a fresh allocation is a
device malloc on the critical path).  A backend may cache read-only plans
in ``backend_cache``; its temporaries come from :func:`repro.scratch.scratch`,
so threads can share one matrix.

Future accelerator backends (Numba, CuPy, ...) plug in by subclassing
:class:`KernelBackend` and registering a factory with
:func:`repro.backends.register_backend`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sparse.csr import CsrMatrix

__all__ = ["KernelBackend"]


class KernelBackend(abc.ABC):
    """Abstract set of computational kernels behind the instrumented layer.

    Attributes
    ----------
    name:
        Registry key of the backend (``"numpy"``, ``"scipy"``, ...).
    """

    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # sparse kernels                                                     #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def spmv(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """CSR matrix–vector product ``y = A x``.

        ``out`` must not alias ``x``.
        """

    @abc.abstractmethod
    def spmv_transpose(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """CSR transpose product ``y = A^T x``.  ``out`` must not alias ``x``."""

    @abc.abstractmethod
    def spmm(
        self,
        matrix: "CsrMatrix",
        X: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched multi-RHS product ``Y = A X`` for a dense block ``X``
        of shape ``(n_cols, k)``.  ``out`` must not alias ``X``."""

    # ------------------------------------------------------------------ #
    # dense block (orthogonalization) kernels                            #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def gemv_transpose(
        self,
        V: np.ndarray,
        w: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``h = V^T w`` for a tall-skinny basis block ``V`` (n × k).

        ``out``, when given, is the length-``k`` coefficient buffer.
        """

    @abc.abstractmethod
    def gemv_notrans(
        self,
        V: np.ndarray,
        h: np.ndarray,
        w: np.ndarray,
        *,
        alpha: float = -1.0,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``w += alpha * (V h)`` in place on ``w``; returns ``w``.

        The default ``alpha=-1`` is the Gram-Schmidt subtraction the paper
        times as "GEMV (No Trans)"; ``alpha=+1`` with a pre-zeroed ``w``
        forms the solution update ``V y`` without a negated-coefficient
        copy.  ``work``, when given, is a length-``n`` scratch vector the
        backend may use for the intermediate product ``V h`` so the call
        allocates nothing; it must not alias ``w``.
        """

    def cgs2_project(
        self,
        V: np.ndarray,
        w: np.ndarray,
        h1: Optional[np.ndarray] = None,
        h2: Optional[np.ndarray] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Both projection passes of CGS2 on ``w``, in place; returns ``(h1, h2)``.

        ``h1 = V^T w; w -= V h1; h2 = V^T w; w -= V h2``.  ``h1``/``h2``,
        when given, are the length-``k`` coefficient buffers; ``work`` is
        as in :meth:`gemv_notrans`.  This default runs exactly that
        sequence of :meth:`gemv_transpose` and :meth:`gemv_notrans`
        calls, so a backend that wraps those two (fault injection,
        timing) sees every pass.  A backend may override it with a fused
        kernel that agrees with the sequence to rounding.
        """
        h1 = self.gemv_transpose(V, w, out=h1)
        self.gemv_notrans(V, h1, w, work=work)
        h2 = self.gemv_transpose(V, w, out=h2)
        self.gemv_notrans(V, h2, w, work=work)
        return h1, h2

    # ------------------------------------------------------------------ #
    # dense block-of-vectors (BLAS-3 orthogonalization) kernels          #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def gemm_transpose(
        self,
        V: np.ndarray,
        W: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``H = V^T W`` for a tall-skinny basis block ``V`` (n × j) against
        a dense block of vectors ``W`` (n × k) — the BLAS-3 analogue of
        :meth:`gemv_transpose` used by block orthogonalization.

        ``out``, when given, is the caller-owned ``(j, k)`` coefficient
        block; it must be C-contiguous so the product can be formed
        directly into it.  ``out`` must not alias ``V`` or ``W``.
        """

    @abc.abstractmethod
    def gemm_notrans(
        self,
        V: np.ndarray,
        H: np.ndarray,
        W: np.ndarray,
        *,
        alpha: float = -1.0,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W += alpha * (V H)`` in place on ``W`` (n × k); returns ``W``.

        The BLAS-3 analogue of :meth:`gemv_notrans`: ``alpha=-1`` is the
        block Gram-Schmidt subtraction ``W -= V H``; ``alpha=+1`` with a
        pre-zeroed ``W`` forms the block solution update ``V Y``.
        ``work``, when given, is an ``(n, k)`` scratch block in the same
        layout as ``W`` (both C- or both Fortran-contiguous) for the
        intermediate product ``V H``, so the call allocates nothing; it must
        not alias ``W``.  A ``work`` in another layout is ignored and the
        product allocated.  A Fortran-ordered pair is formed as
        ``(H^T V^T)`` into ``work.T``: ``np.dot`` needs a C-contiguous
        ``out``, and this is the tall-skinny orientation OpenBLAS runs
        fastest.
        """

    # ------------------------------------------------------------------ #
    # vector kernels                                                     #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Dot product accumulated in the operand dtype."""

    @abc.abstractmethod
    def norm2(self, x: np.ndarray) -> float:
        """Euclidean norm accumulated in the operand dtype (no intermediate
        array — the reduction is a single fused dot)."""

    @abc.abstractmethod
    def axpy(
        self,
        alpha: float,
        x: np.ndarray,
        y: np.ndarray,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``y += alpha x`` in place; returns ``y``.

        ``work``, when given, is caller-owned scratch of ``x``'s shape for
        the scaled intermediate ``alpha x``, so the update allocates
        nothing (without it the backend may form a temporary); it must not
        alias ``x`` or ``y``.
        """

    @abc.abstractmethod
    def scal(self, alpha: float, x: np.ndarray) -> np.ndarray:
        """``x *= alpha`` in place; returns ``x``."""

    @abc.abstractmethod
    def copy(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy of ``x`` (into ``out`` when given; returns the copy)."""

    # ------------------------------------------------------------------ #
    # preconditioner application kernels                                 #
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def diag_scale(
        self,
        scale: np.ndarray,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Elementwise product ``scale * x`` (point-Jacobi application).

        ``out`` may alias ``x`` (the product is elementwise).
        """

    @abc.abstractmethod
    def block_diag_solve(
        self,
        inv_blocks: np.ndarray,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply explicit block-diagonal inverses: ``inv_blocks`` has shape
        ``(n_blocks, k, k)``, ``x`` length ``n_blocks * k``.  ``out`` must
        not alias ``x``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
