"""Instrumented linear-algebra kernels.

These are the operations the paper's figures time individually:

==================  =====================================================
label               operation
==================  =====================================================
``SpMV``            ``y = A x`` on the CSR matrix
``GEMV (Trans)``    ``h = V^T w`` — the inner-product pass of CGS
``GEMV (No Trans)`` ``w = w - V h`` — the update pass of CGS
``Norm``            2-norms and single dot products
``Other``           axpy/scal/copy/cast, host-side dense work, fp64
                    residual computation in GMRES-IR
``Precond``         preconditioner applications (point / block Jacobi)
==================  =====================================================

A polynomial preconditioner's apply (:func:`poly_chain`) books the SpMVs
or SpMMs, axpys and copy of its recurrence under their own labels.

Each function executes the actual NumPy computation in the precision of its
operands (the numerics are real), measures wall time, asks the active
:class:`~repro.perfmodel.costs.KernelCostModel` for the modelled GPU cost,
and records both into every timer on the active timer stack.

Precision discipline: operands must share one dtype.  Mixing fp32 and fp64
operands raises — exactly the restriction the Belos/Tpetra stack imposes
(Section IV: "these templates assume that all operations are carried out in
the same scalar type").  Cross-precision data movement must go through
:func:`cast`, which is metered separately, mirroring how the paper counts
the casting overhead of mixed-precision preconditioning.

Backend dispatch: the arithmetic itself is executed by the *active*
:class:`~repro.backends.KernelBackend` (``ctx.backend``), so the same
metering, labels and precision checks apply whether the kernels run on the
NumPy reference or the SciPy fast path (or any backend registered later).
Every kernel — including ``scal``/``copy``/``diag_scale``/
``block_diag_solve``, which used to execute inline NumPy here — now routes
through the backend, so an accelerator backend can take over the whole
per-iteration kernel sequence.

Metering fast path: when no timer is on the stack or the execution
context's ``meter`` flag is off, the kernels skip ``perf_counter`` and the
cost model entirely and run the raw backend call — an unmetered solve pays
only for arithmetic.  Observable behaviour is unchanged (nothing would
have been recorded anyway); only the bookkeeping overhead disappears.

Metered path (``meter_kernels`` is on by default): two ``perf_counter``
reads and a few dict lookups.  The precision name comes from a dict keyed
by ``np.dtype`` (other dtypes fall back to
:func:`~repro.precision.as_precision`, which raises for unsupported ones);
the memoized cost model returns the estimate of the same kernel and sizes,
equal to a fresh one and added in the same order, so modelled seconds are
bit-for-bit those of an unmemoized run; each timer caches its bucket per
raw label; the SpMV/SpMM cost-model key is built once per matrix and
kernel width (``CsrMatrix.cost_keys``).

Buffer-ownership rules (the ``out=`` contract):

==========================  ===========================================
parameter                   rule
==========================  ===========================================
``out=`` (all kernels)      caller-owned; the kernel writes the result
                            into it and returns *that* buffer, never a
                            fresh array.  Must match the result's shape
                            and (for same-dtype kernels) dtype.
``out`` vs inputs           must not alias an input unless the kernel
                            docstring allows it (``diag_scale`` does;
                            ``spmv``/``gemv_transpose`` do not).
``work=`` (gemv_notrans)    caller-owned length-``n`` scratch for the
                            intermediate ``V h`` product; contents are
                            clobbered; must not alias ``w``.
omitted ``out``/``work``    the kernel allocates, exactly as before this
                            contract existed (back-compatible).
==========================  ===========================================
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..backends.base import FactorPlan
from ..perfmodel.costs import CostEstimate
from ..perfmodel.timer import _TLS as _TIMER_TLS
from ..precision import DOUBLE, HALF, SINGLE, as_precision
from ..sparse.csr import CsrMatrix
from .context import get_context

__all__ = [
    "spmv",
    "spmm",
    "gemv_transpose",
    "gemv_notrans",
    "cgs2_project",
    "poly_chain",
    "gemm_transpose",
    "gemm_notrans",
    "dot",
    "norm2",
    "axpy",
    "scal",
    "copy",
    "cast",
    "diag_scale",
    "block_diag_solve",
    "meter_cast",
    "meter_host_dense",
    "meter_host_transfer",
    "PrecisionMismatchError",
]


class PrecisionMismatchError(TypeError):
    """Raised when a kernel receives operands of different precisions."""


#: Precision name of each kernel dtype: numpy's ``dtype.name`` costs
#: microseconds, a dict lookup tens of nanoseconds.
_PRECISION_NAMES = {p.dtype: p.name for p in (HALF, SINGLE, DOUBLE)}


def _record(label: str, dtype: np.dtype, cost: CostEstimate, wall: float) -> None:
    prec = _PRECISION_NAMES.get(dtype)
    if prec is None:
        prec = as_precision(dtype).name
    for timer in _TIMER_TLS.stack:
        timer.record(label, prec, cost, wall)


def _check_same_dtype(*arrays: np.ndarray) -> np.dtype:
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) != 1:
        raise PrecisionMismatchError(
            f"kernel operands must share one precision, got {sorted(d.name for d in dtypes)}; "
            "use repro.linalg.kernels.cast to convert explicitly"
        )
    return arrays[0].dtype


# ---------------------------------------------------------------------- #
# sparse                                                                 #
# ---------------------------------------------------------------------- #
def _sparse_cost_key(matrix: CsrMatrix, width) -> tuple:
    """Cost-model key of the SpMV (``width="spmv"``) or a width-``k`` SpMM.

    Cached in ``matrix.cost_keys``: reading the five sizes and the
    bandwidth on every metered call cost about a microsecond, a cache
    hit is one dict lookup.
    """
    sizes = (matrix.n_rows, matrix.n_cols, matrix.nnz)
    itemsize = matrix.dtype.itemsize
    if width == "spmv":
        key = ("spmv", *sizes, itemsize, matrix.bandwidth())
    else:
        key = ("spmm", *sizes, width, itemsize, matrix.bandwidth())
    matrix.cost_keys[width] = key
    return key


def spmv(
    matrix: CsrMatrix,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "SpMV",
) -> np.ndarray:
    """Metered CSR matrix–vector product ``y = A x`` (``out`` must not alias ``x``)."""
    x = np.asarray(x)
    _check_same_dtype(matrix.data, x)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.spmv(matrix, x, out=out)
    start = time.perf_counter()
    y = ctx.backend.spmv(matrix, x, out=out)
    wall = time.perf_counter() - start
    key = matrix.cost_keys.get("spmv") or _sparse_cost_key(matrix, "spmv")
    _record(label, matrix.data.dtype, ctx.cost_model.estimate(key), wall)
    return y


def spmm(
    matrix: CsrMatrix,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "SpMM",
) -> np.ndarray:
    """Metered batched multi-RHS product ``Y = A X`` (``X`` is n × k).

    The batched kernel reads the matrix once for all ``k`` right-hand
    sides, which is why block solvers favour it; the modelled cost
    reflects that (see :meth:`KernelCostModel.spmm`).  Shape validation
    (``X`` must be 2-D) lives in the backends, which every path funnels
    through.
    """
    X = np.asarray(X)
    _check_same_dtype(matrix.data, X)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.spmm(matrix, X, out=out)
    start = time.perf_counter()
    Y = ctx.backend.spmm(matrix, X, out=out)
    wall = time.perf_counter() - start
    k = X.shape[1]
    key = matrix.cost_keys.get(k) or _sparse_cost_key(matrix, k)
    _record(label, matrix.data.dtype, ctx.cost_model.estimate(key), wall)
    return Y


def poly_chain(
    matrix: CsrMatrix,
    plan: FactorPlan,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out = p(A) x``: one apply of the polynomial whose factor chain is
    ``plan`` to an ``(n,)`` vector or an ``(n, k)`` block (see
    :meth:`KernelBackend.poly_chain`; ``out`` may be ``x``).

    Metered as the calls of the recurrence it stands for, in their order
    and with their cost keys (``plan.calls``: the copy, the SpMVs or
    SpMMs and the axpys), so call counts, bytes, FLOPs and modelled
    seconds are those of the separate kernels.  The backend may run the
    chain as one call, so one wall time is measured and split across the
    records by their shares of the modelled seconds (evenly when those
    are all zero).  The record list is built once per matrix, width and
    cost model and kept in ``plan.cache``.
    """
    x = np.asarray(x)
    dtype = _check_same_dtype(matrix.data, x)
    if out is not None:
        _check_same_dtype(x, out)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.poly_chain(matrix, plan, x, out)
    start = time.perf_counter()
    y = ctx.backend.poly_chain(matrix, plan, x, out)
    wall = time.perf_counter() - start
    width = "spmv" if x.ndim == 1 else x.shape[1]
    entry = plan.cache.get(("meter", width))
    if entry is None or entry[0] is not matrix or entry[1] is not ctx.cost_model:
        entry = plan.cache["meter", width] = (
            matrix, ctx.cost_model, _poly_chain_records(matrix, plan, width, x.size, ctx.cost_model)
        )
    prec = _PRECISION_NAMES.get(dtype)
    if prec is None:
        prec = as_precision(dtype).name
    records = entry[2]
    for timer in _TIMER_TLS.stack:
        for label, cost, share in records:
            timer.record(label, prec, cost, wall * share)
    return y


def _poly_chain_records(matrix: CsrMatrix, plan: FactorPlan, width, size: int, cost_model):
    """``(label, cost, share of the wall)`` of each call in ``plan.calls``."""
    itemsize = matrix.dtype.itemsize
    product_key = matrix.cost_keys.get(width) or _sparse_cost_key(matrix, width)
    labelled = {
        "product": ("SpMV" if width == "spmv" else "SpMM", product_key),
        "axpy": ("axpy", ("axpy", size, itemsize)),
        "copy": ("copy", ("copy", size, itemsize)),
    }
    calls = [labelled[call] for call in plan.calls]
    costs = [cost_model.estimate(key) for _label, key in calls]
    modelled = sum(cost.seconds for cost in costs)
    return tuple(
        (label, cost, cost.seconds / modelled if modelled > 0 else 1.0 / len(costs))
        for (label, _key), cost in zip(calls, costs)
    )


# ---------------------------------------------------------------------- #
# dense block (orthogonalization) kernels                                #
# ---------------------------------------------------------------------- #
def gemv_transpose(
    V: np.ndarray,
    w: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "GEMV (Trans)",
) -> np.ndarray:
    """``h = V^T w`` for a tall-skinny basis block ``V`` (n × k).

    ``out``, when given, receives the ``k`` coefficients.
    """
    V = np.asarray(V)
    w = np.asarray(w)
    dtype = _check_same_dtype(V, w)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.gemv_transpose(V, w, out=out)
    start = time.perf_counter()
    h = ctx.backend.gemv_transpose(V, w, out=out)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("gemv", *V.shape, dtype.itemsize, True))
    _record(label, dtype, cost, wall)
    return h


def gemv_notrans(
    V: np.ndarray,
    h: np.ndarray,
    w: np.ndarray,
    *,
    alpha: float = -1.0,
    work: Optional[np.ndarray] = None,
    label: str = "GEMV (No Trans)",
) -> np.ndarray:
    """``w += alpha * (V h)`` (in place on ``w``) for a tall-skinny block ``V``.

    The default ``alpha=-1`` is the classical Gram-Schmidt subtraction
    ``w -= V h``; ``alpha=+1`` with a pre-zeroed ``w`` forms the solution
    update ``V y`` with the sign folded into the kernel (no negated
    coefficient copy).  ``work`` is optional length-``n`` scratch for the
    intermediate product (clobbered; must not alias ``w``).
    """
    V = np.asarray(V)
    h = np.asarray(h)
    dtype = _check_same_dtype(V, h, np.asarray(w))
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.gemv_notrans(V, h, w, alpha=alpha, work=work)
    start = time.perf_counter()
    w = ctx.backend.gemv_notrans(V, h, w, alpha=alpha, work=work)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("gemv", *V.shape, dtype.itemsize, False))
    _record(label, dtype, cost, wall)
    return w


def cgs2_project(
    V: np.ndarray,
    w: np.ndarray,
    h1: Optional[np.ndarray] = None,
    h2: Optional[np.ndarray] = None,
    *,
    work: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Both projection passes of CGS2 on ``w`` in place; returns ``(h1, h2)``.

    ``h1 = V^T w; w -= V h1; h2 = V^T w; w -= V h2`` (see
    :meth:`KernelBackend.cgs2_project`).  Metered as the four GEMVs it
    stands for, in their order and with their cost keys — GEMV (Trans),
    GEMV (No Trans), GEMV (Trans), GEMV (No Trans) — so call counts,
    bytes, FLOPs and modelled seconds are those of the four separate
    kernels.  The backend may run the passes as one call, so one wall
    time is measured and split across the four records by their shares
    of the modelled seconds: each transposed GEMV books
    ``wall * t / (2 (t + n))`` and each update ``wall / 2`` minus that,
    where ``t`` and ``n`` are the modelled seconds of one GEMV (Trans)
    and one GEMV (No Trans) (half each when both are zero).
    """
    V = np.asarray(V)
    w = np.asarray(w)
    dtype = _check_same_dtype(V, w)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.cgs2_project(V, w, h1, h2, work=work)
    start = time.perf_counter()
    h = ctx.backend.cgs2_project(V, w, h1, h2, work=work)
    wall = time.perf_counter() - start
    cost_t = ctx.cost_model.estimate(("gemv", *V.shape, dtype.itemsize, True))
    cost_n = ctx.cost_model.estimate(("gemv", *V.shape, dtype.itemsize, False))
    modelled = cost_t.seconds + cost_n.seconds
    wall_t = wall * cost_t.seconds / (2.0 * modelled) if modelled > 0 else wall / 4.0
    wall_n = wall / 2.0 - wall_t
    for _ in range(2):
        _record("GEMV (Trans)", dtype, cost_t, wall_t)
        _record("GEMV (No Trans)", dtype, cost_n, wall_n)
    return h


def gemm_transpose(
    V: np.ndarray,
    W: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "GEMM (Trans)",
) -> np.ndarray:
    """``H = V^T W`` — the block inner-product pass of block Gram-Schmidt.

    The BLAS-3 analogue of :func:`gemv_transpose`: the basis block ``V``
    (n × j) is read once for all ``k`` columns of ``W``.  ``out``, when
    given, receives the ``(j, k)`` coefficient block (C-contiguous).
    """
    V = np.asarray(V)
    W = np.asarray(W)
    dtype = _check_same_dtype(V, W)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.gemm_transpose(V, W, out=out)
    start = time.perf_counter()
    H = ctx.backend.gemm_transpose(V, W, out=out)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("gemm", *V.shape, W.shape[1], dtype.itemsize, True))
    _record(label, dtype, cost, wall)
    return H


def gemm_notrans(
    V: np.ndarray,
    H: np.ndarray,
    W: np.ndarray,
    *,
    alpha: float = -1.0,
    work: Optional[np.ndarray] = None,
    label: str = "GEMM (No Trans)",
) -> np.ndarray:
    """``W += alpha * (V H)`` in place on the block ``W`` (n × k).

    The BLAS-3 analogue of :func:`gemv_notrans`: ``alpha=-1`` is the block
    Gram-Schmidt subtraction, ``alpha=+1`` with a pre-zeroed ``W`` the
    block solution update ``V Y``.  ``work`` is optional ``(n, k)`` scratch
    for the intermediate product in the same layout as ``W`` (clobbered;
    must not alias ``W``).  For Fortran-ordered blocks the product is
    formed as ``(H^T V^T)`` into ``work.T``, the tall-skinny GEMM BLAS is
    fast at, since ``np.dot`` writes only into a C-contiguous ``out``.
    """
    V = np.asarray(V)
    H = np.asarray(H)
    dtype = _check_same_dtype(V, H, np.asarray(W))
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.gemm_notrans(V, H, W, alpha=alpha, work=work)
    start = time.perf_counter()
    W = ctx.backend.gemm_notrans(V, H, W, alpha=alpha, work=work)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("gemm", *V.shape, H.shape[1], dtype.itemsize, False))
    _record(label, dtype, cost, wall)
    return W


# ---------------------------------------------------------------------- #
# vector kernels                                                         #
# ---------------------------------------------------------------------- #
def dot(x: np.ndarray, y: np.ndarray, *, label: str = "Norm") -> float:
    """Metered dot product (grouped with norms in the paper's figures)."""
    x = np.asarray(x)
    y = np.asarray(y)
    dtype = _check_same_dtype(x, y)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.dot(x, y)
    start = time.perf_counter()
    value = ctx.backend.dot(x, y)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("dot", x.size, dtype.itemsize))
    _record(label, dtype, cost, wall)
    return value


def norm2(x: np.ndarray, *, label: str = "Norm") -> float:
    """Metered Euclidean norm.

    The accumulation happens in the vector's own precision (an fp32 norm is
    an fp32 reduction followed by a square root), matching the behaviour of
    a templated Belos solver.
    """
    x = np.asarray(x)
    dtype = x.dtype
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.norm2(x)
    start = time.perf_counter()
    # Accumulation happens in the working dtype (backend contract).
    value = ctx.backend.norm2(x)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("norm2", x.size, dtype.itemsize))
    _record(label, dtype, cost, wall)
    return value


def axpy(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    *,
    work: Optional[np.ndarray] = None,
    label: str = "axpy",
) -> np.ndarray:
    """``y += alpha * x`` in place (metered under "Other").

    ``work`` is optional caller-owned scratch of ``x``'s shape for the
    scaled intermediate, making the update allocation-free (used by the
    block solvers, whose ``x`` is an (n, k) block).
    """
    x = np.asarray(x)
    dtype = _check_same_dtype(x, np.asarray(y))
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.axpy(alpha, x, y, work=work)
    start = time.perf_counter()
    y = ctx.backend.axpy(alpha, x, y, work=work)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("axpy", x.size, dtype.itemsize))
    _record(label, dtype, cost, wall)
    return y


def scal(alpha: float, x: np.ndarray, *, label: str = "scal") -> np.ndarray:
    """``x *= alpha`` in place (metered under "Other")."""
    x = np.asarray(x)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.scal(alpha, x)
    start = time.perf_counter()
    x = ctx.backend.scal(alpha, x)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("scal", x.size, x.dtype.itemsize))
    _record(label, x.dtype, cost, wall)
    return x


def copy(x: np.ndarray, out: Optional[np.ndarray] = None, *, label: str = "copy") -> np.ndarray:
    """Metered vector copy (same precision)."""
    x = np.asarray(x)
    if out is not None:
        _check_same_dtype(x, np.asarray(out))
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.copy(x, out=out)
    start = time.perf_counter()
    result = ctx.backend.copy(x, out=out)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("copy", x.size, x.dtype.itemsize))
    _record(label, x.dtype, cost, wall)
    return result


def cast(
    x: np.ndarray,
    precision,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "cast",
) -> np.ndarray:
    """Convert a vector to another precision (metered under "Other").

    This is the explicit precision boundary: GMRES-IR casts the fp64
    residual down to fp32 before handing it to the inner solver and casts
    the fp32 correction back up; fp32 preconditioning of an fp64 solver
    casts the vector on every preconditioner application.  The paper counts
    these casts in the reported solve times, so they are metered.

    ``out``, when given, must have the target precision; the conversion is
    written into it.  When ``x`` already has the target precision the cast
    is a no-op and ``x`` itself is returned (``out`` is ignored) — a
    same-precision "cast" is free, exactly as before.
    """
    x = np.asarray(x)
    prec = as_precision(precision)
    if x.dtype == prec.dtype:
        return x
    if out is not None and out.dtype != prec.dtype:
        raise PrecisionMismatchError(
            f"cast output buffer has dtype {out.dtype.name}, expected {prec.dtype.name}"
        )
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        if out is None:
            return x.astype(prec.dtype)
        np.copyto(out, x, casting="unsafe")
        return out
    start = time.perf_counter()
    if out is None:
        result = x.astype(prec.dtype)
    else:
        np.copyto(out, x, casting="unsafe")
        result = out
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("cast", x.size, x.dtype.itemsize, prec.bytes))
    # Record under the *wider* precision so mixed casts are attributed
    # consistently; they all land in the "Other" bucket anyway.
    wide = x.dtype if x.dtype.itemsize >= prec.bytes else prec.dtype
    _record(label, wide, cost, wall)
    return result


# ---------------------------------------------------------------------- #
# preconditioner application kernels                                     #
# ---------------------------------------------------------------------- #
def diag_scale(
    scale: np.ndarray,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "Precond",
) -> np.ndarray:
    """Elementwise product ``scale * x`` — the point-Jacobi application.

    ``out`` may alias ``x`` (the product is elementwise).
    """
    scale = np.asarray(scale)
    x = np.asarray(x)
    dtype = _check_same_dtype(scale, x)
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.diag_scale(scale, x, out=out)
    start = time.perf_counter()
    result = ctx.backend.diag_scale(scale, x, out=out)
    wall = time.perf_counter() - start
    cost = ctx.cost_model.estimate(("axpy", x.size, dtype.itemsize))
    _record(label, dtype, cost, wall)
    return result


def block_diag_solve(
    inv_blocks: np.ndarray,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    *,
    label: str = "Precond",
) -> np.ndarray:
    """Apply a block-diagonal operator stored as explicit inverse blocks.

    ``inv_blocks`` has shape ``(n_blocks, k, k)``; ``x`` has length
    ``n_blocks * k`` (zero-padded by the caller if needed).  The modelled
    cost treats the operation as a blocked SpMV with ``n_blocks * k * k``
    nonzeros (the block-Jacobi apply is memory bound, like everything else
    in the solver).  ``out`` must not alias ``x``.
    """
    inv_blocks = np.asarray(inv_blocks)
    x = np.asarray(x)
    dtype = _check_same_dtype(inv_blocks, x)
    n_blocks, k, k2 = inv_blocks.shape
    if k != k2 or x.size != n_blocks * k:
        raise ValueError("block_diag_solve: inconsistent block/vector shapes")
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return ctx.backend.block_diag_solve(inv_blocks, x, out=out)
    start = time.perf_counter()
    result = ctx.backend.block_diag_solve(inv_blocks, x, out=out)
    wall = time.perf_counter() - start
    # A blocked SpMV with n_blocks * k * k nonzeros and bandwidth k.
    cost = ctx.cost_model.estimate(("spmv", x.size, x.size, n_blocks * k * k, dtype.itemsize, k))
    _record(label, dtype, cost, wall)
    return result


# ---------------------------------------------------------------------- #
# pure-metering helpers (no computation)                                 #
# ---------------------------------------------------------------------- #
def meter_cast(n: int, from_bytes: int, to_bytes: int, *, label: str = "cast") -> None:
    """Charge the cost of converting ``n`` values without doing it here."""
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return
    cost = ctx.cost_model.estimate(("cast", n, from_bytes, to_bytes))
    dtype = DOUBLE.dtype if max(from_bytes, to_bytes) >= 8 else SINGLE.dtype
    _record(label, dtype, cost, 0.0)


def meter_host_dense(work_elements: int, *, label: str = "host", wall: float = 0.0) -> None:
    """Charge a small host-side dense operation (Givens sweep etc.)."""
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return
    cost = ctx.cost_model.estimate(("host_dense_op", work_elements))
    _record(label, DOUBLE.dtype, cost, wall)


def meter_host_transfer(nbytes: float, *, label: str = "host") -> None:
    """Charge a host↔device transfer of ``nbytes`` bytes."""
    ctx = get_context()
    if not (ctx.meter and _TIMER_TLS.stack):
        return
    cost = ctx.cost_model.estimate(("host_transfer", nbytes))
    _record(label, DOUBLE.dtype, cost, 0.0)
