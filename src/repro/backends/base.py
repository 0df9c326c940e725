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
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..scratch import scratch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sparse.csr import CsrMatrix

__all__ = ["FactorPlan", "KernelBackend", "PolyFactor"]

#: Scratch tags of the polynomial recurrence: the running product, one
#: product output, one second-order product output and the axpy work buffer.
POLY_TAGS = ("poly.prod", "poly.w", "poly.t", "poly.work")


class PolyFactor(NamedTuple):
    """One step of a polynomial apply: its coefficients and how many products it runs."""

    coeffs: Tuple[float, ...]
    products: int


class FactorPlan:
    """The factor chain :meth:`KernelBackend.poly_chain` walks.

    ``factors`` are the steps in order.  With ``power`` they are Horner
    steps (one coefficient, at most one product); otherwise the factors
    of the product form: two coefficients for a real root, four for a
    conjugate pair.  Built once per preconditioner:

    * ``calls`` — the recurrence's kernel calls in order (``"copy"``,
      ``"product"``, ``"axpy"``), which the metering books;
    * ``steps`` / ``coeffs`` — the plan packed for compiled kernels: an
      int64 ``(n, 2)`` array of each factor's coefficient count and
      products, and a float64 ``(n, 4)`` array of its zero-padded
      coefficients;
    * ``cache`` — state derived from the plan once and kept with it (a
      backend's descriptor, the metering's record list per width).
    """

    __slots__ = ("factors", "power", "calls", "steps", "coeffs", "cache")

    def __init__(self, factors: Sequence[PolyFactor], power: bool) -> None:
        self.factors = tuple(factors)
        self.power = bool(power)
        calls = [] if self.power else ["copy"]
        for factor in self.factors:
            if self.power:
                calls += ["product"] * factor.products + ["axpy"]
            elif len(factor.coeffs) == 2:  # a real root
                calls += ["axpy"] + ["product", "axpy"] * factor.products
            else:  # a conjugate pair
                calls += ["product", "axpy", "axpy"] * factor.products
        self.calls = tuple(calls)
        self.steps = np.array(
            [(len(f.coeffs), f.products) for f in self.factors], dtype=np.int64
        ).reshape(-1, 2)
        self.coeffs = np.zeros((len(self.factors), 4))
        for row, factor in zip(self.coeffs, self.factors):
            row[: len(factor.coeffs)] = factor.coeffs
        self.cache: dict = {}


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
    # polynomial preconditioner                                          #
    # ------------------------------------------------------------------ #
    def poly_chain(
        self,
        matrix: "CsrMatrix",
        plan: FactorPlan,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = p(A) x`` for the polynomial whose factor chain is ``plan``.

        ``x`` is an ``(n,)`` vector, whose products are SpMVs, or an
        ``(n, k)`` block, whose products are SpMMs; ``out`` may be ``x``.
        The recurrence's temporaries come from the calling thread's
        :func:`~repro.scratch.scratch` (:data:`POLY_TAGS`).  This default
        runs the recurrence on :meth:`spmv`/:meth:`spmm`, :meth:`axpy`
        and :meth:`copy`, in the order of ``plan.calls``, so a backend
        that wraps those (fault injection, timing) sees every call.  A
        backend may override it with a fused kernel that gives the same
        bits.
        """
        if out is None:
            out = np.empty(x.shape, dtype=x.dtype, order="F")
        product = self.spmv if x.ndim == 1 else self.spmm
        prod, w, t, work = (scratch(tag, x.dtype, x.shape, order="F") for tag in POLY_TAGS)
        if plan.power:
            self._poly_power(matrix, plan, product, x, out, w, t, work)
        else:
            self._poly_roots(matrix, plan, product, x, out, prod, w, t, work)
        return out

    def _poly_roots(self, A, plan, product, x, y, prod, w, t, work) -> None:
        """The product form over Leja-ordered roots."""
        self.copy(x, out=prod)
        y[:] = 0
        for factor in plan.factors:
            if len(factor.coeffs) == 2:  # a real root
                inv, minus_inv = factor.coeffs
                self.axpy(inv, prod, y, work=work)
                if factor.products:
                    product(A, prod, out=w)
                    self.axpy(minus_inv, w, prod, work=work)
            else:  # a conjugate pair
                prod_to_y, w_to_y, w_to_prod, t_to_prod = factor.coeffs
                product(A, prod, out=w)
                self.axpy(prod_to_y, prod, y, work=work)
                self.axpy(w_to_y, w, y, work=work)
                if factor.products == 2:
                    product(A, w, out=t)
                    self.axpy(w_to_prod, w, prod, work=work)
                    self.axpy(t_to_prod, t, prod, work=work)

    def _poly_power(self, A, plan, product, x, out, w, t, work) -> None:
        """Horner on the monomial coefficients: ``p(A) x = c_0 x + A (c_1 x
        + A (c_2 x + ...))``, ping-ponging between two scratch buffers (a
        product's out must not alias its input)."""
        y = w
        y[:] = 0
        for factor in plan.factors:
            if factor.products:
                y = product(A, y, out=t if y is w else w)
            self.axpy(factor.coeffs[0], x, y, work=work)
        out[:] = y

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
