"""NumPy reference backend, with compiled kernels for stencil products, polynomial
chains, axpy and CGS2.

The module-level CSR kernels here (:func:`spmv`, :func:`spmv_transpose`,
:func:`spmm`) are the library's numerical ground truth (moved from
:mod:`repro.sparse.ops`): vectorised NumPy with no per-row Python
loops, following the HPC-Python guidance — ``np.add.reduceat`` for the
row sums of the SpMV/SpMM and ``np.bincount``/fancy indexing for scatter
operations.  They carry no per-matrix state, and tests and benchmarks
validate every faster path against them.

Accumulation precision note: every path accumulates in the dtype of its
operands, so an fp32 SpMV really is computed in fp32 — important, because
the numerical behaviour of the fp32 inner solver (stagnation around
1e-5…1e-6 relative residual) is part of what the paper studies.

Which SpMV/SpMM path :class:`NumpyBackend` runs, per matrix and call:

* **DIA** (diagonal format) when the matrix has at most
  ``_DIA_MAX_DIAGONALS`` distinct diagonals and padding them to full
  length costs at most ``_DIA_MAX_PAD_FACTOR`` times its nonzeros — the
  stencil matrices of the paper.  The diagonals are stored densely once
  per matrix, so fp32 moves half the bytes of fp64.  The SpMV is the
  SpMM on ``k = 1`` views.  A DIA product runs one of two
  implementations with the same summation order, so they give the same
  bits:

  - **compiled** (fp32 and fp64): one call of the C kernel in
    ``native/dia.c``, built on first use with the system C compiler and
    cached (see :mod:`repro.backends.native`).  ctypes releases the GIL
    for the call, so threads sharing a process run products in parallel.
  - **NumPy sweep** (:func:`_dia_sweep`, contiguous slice
    multiply-adds): fp16, and every dtype when no compiler is available.
    It is the executable specification the compiled kernel is tested
    against.

  DIA sums each row in diagonal order, the reference in column order,
  so DIA and the reference agree to rounding, not bit for bit.  The
  padding zeros also multiply every ``x`` entry their diagonal slides
  over, so an ``inf`` in ``x`` can turn into ``0·inf = NaN`` in a row
  the reference leaves finite; the solvers treat any non-finite value
  as ``BREAKDOWN`` either way.
* **Gather** (CSR gather + ``np.add.reduceat``) for every other matrix,
  e.g. the SuiteSparse proxies, with ``x`` of another dtype than the
  matrix, and for plan-free matrix views.  Without ``out=`` it is the
  reference function itself; with ``out=`` it is the same arithmetic on
  cached temporaries, so it is bit-identical to the reference.

``NumpyBackend.axpy`` on fp32/fp64 operands of one shape and layout
(both C- or both Fortran-contiguous, not overlapping) is one call of the
compiled axpy in ``native/dense.c``, which rounds ``alpha * x`` and then
the sum, as the NumPy multiply-then-add it replaces, so the bits are the
same; other operands, fp16 and builds without a compiler keep NumPy.

``NumpyBackend.cgs2_project`` (both projection passes of CGS2) on
fp32/fp64 operands (see :func:`_cgs2_addresses`) is one call of the compiled
``cgs2_project`` in ``native/dense.c``: three sweeps over the basis
instead of the four of the GEMV sequence, released from the GIL like the
DIA product.  It is the one compiled kernel that does not reproduce its
Python version bit for bit: its sums run over fixed 64-byte lanes, so it
agrees with the GEMV sequence to rounding, and gives the same bits on
every call, at any address, in any thread.  Other operands, fp16 and
builds without a compiler run the GEMV sequence.

``NumpyBackend.poly_chain`` (one apply of a GMRES-polynomial
preconditioner) on a square fp32/fp64 DIA matrix, with a contiguous
vector or Fortran-ordered block and ``out`` (see :func:`_poly_chain_dia`),
is one call of the compiled ``poly_chain`` in ``native/dia.c``, released
from the GIL: one sweep over the rows per factor, which runs the factor's
DIA product and axpys on each row block while it is in cache.  Each
product row sums as the DIA product does and each axpy rounds as the
compiled axpy does, so the bits are those of the SpMV/SpMM + axpy
recurrence it replaces (:meth:`KernelBackend.poly_chain`), which the
gather path, fp16, C-ordered blocks and builds without a compiler run.

Allocation discipline: when a caller supplies ``out=``, the class methods
run allocation-free.  Per-matrix plans live in the matrix's
``backend_cache`` (keyed on the ``indptr`` identity, so a structurally
different matrix gets a fresh plan) and are built lazily — the DIA view
or the gather geometry, whichever the matrix uses.  Plans are read-only;
the temporaries of a product come from the calling thread's
:func:`repro.scratch.scratch` pool, so any number of threads may run
products on one shared matrix.  The dense GEMV kernels write through
``np.dot(..., out=...)`` / caller-provided ``work`` buffers.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..scratch import scratch
from . import native
from .base import POLY_TAGS, FactorPlan, KernelBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sparse.csr import CsrMatrix

__all__ = ["spmv", "spmv_transpose", "spmm", "NumpyBackend"]


def spmv(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """CSR sparse matrix–vector product ``y = A x``.

    Parameters
    ----------
    data, indices, indptr:
        CSR arrays of ``A`` (``n_rows + 1 = len(indptr)``).
    x:
        Dense vector of length ``n_cols``; it is used in the matrix's value
        dtype (mixed inputs are multiplied under NumPy promotion rules, so
        callers who care about the working precision must pass matching
        dtypes — the instrumented kernels enforce this).
    out:
        Optional pre-allocated output vector of length ``n_rows``.

    Returns
    -------
    numpy.ndarray
        ``y`` with dtype equal to the product dtype.
    """
    n_rows = indptr.size - 1
    products = data * x[indices]
    if out is None:
        out = np.zeros(n_rows, dtype=products.dtype)
    else:
        if out.shape[0] != n_rows:
            raise ValueError("output vector has wrong length")
        out[:] = 0
    if products.size == 0:
        return out
    starts = indptr[:-1]
    nonempty = np.diff(indptr) > 0
    # Reduce only over the starts of non-empty rows: consecutive non-empty
    # starts delimit exactly the nonzeros of the earlier row (empty rows in
    # between contribute nothing), every start is < len(products), and the
    # final segment runs to the end of the product array.
    sums = np.add.reduceat(products, starts[nonempty])
    out[nonempty] = sums
    return out


def spmv_transpose(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    x: np.ndarray,
    n_cols: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """CSR transpose product ``y = A.T x``.

    Not used inside GMRES (which never needs ``A^T``), provided for
    completeness and for building normal-equation style diagnostics.  The
    scatter-add accumulates in float64 (``np.bincount`` limitation) and the
    result is cast back to the product dtype (written into ``out`` when one
    is given).
    """
    n_rows = indptr.size - 1
    if x.shape[0] != n_rows:
        raise ValueError("x must have length n_rows for the transpose product")
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    weights = data * x[rows]
    y = np.bincount(indices, weights=weights, minlength=n_cols)
    if out is None:
        return y.astype(weights.dtype, copy=False)
    if out.shape[0] != n_cols:
        raise ValueError("output vector has wrong length")
    np.copyto(out, y, casting="same_kind")
    return out


def spmm(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    X: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched CSR product ``Y = A X`` against a dense block ``X`` (n × k).

    The multi-RHS analogue of :func:`spmv`: one gather of the ``k``-wide
    rows of ``X`` followed by one segmented ``np.add.reduceat`` along the
    nonzero axis, so all ``k`` right-hand sides share a single pass over
    the matrix.  Accumulation happens in the product dtype, matching the
    single-vector kernel.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("spmm expects a 2-D block of column vectors")
    n_rows = indptr.size - 1
    k = X.shape[1]
    products = data[:, None] * X[indices, :]
    if out is None:
        out = np.zeros((n_rows, k), dtype=products.dtype)
    else:
        if out.shape != (n_rows, k):
            raise ValueError("output block has wrong shape")
        out[:] = 0
    if products.size == 0:
        return out
    starts = indptr[:-1]
    nonempty = np.diff(indptr) > 0
    sums = np.add.reduceat(products, starts[nonempty], axis=0)
    out[nonempty, :] = sums
    return out


def _copy_block(target: np.ndarray, source: np.ndarray) -> None:
    """Copy a 2-D block without the ufunc's mixed-layout buffering.

    Assigning a C-ordered block into a Fortran-ordered one (or vice versa)
    makes NumPy's iterator fall back to internal buffering — a transient
    allocation of up to two buffer chunks on every call.  Column-wise 1-D
    copies are buffer-free and elementwise identical.
    """
    if target.flags.c_contiguous == source.flags.c_contiguous:
        target[:] = source
    else:
        for c in range(target.shape[1]):
            target[:, c] = source[:, c]


_SPMV_PLAN_KEY = "numpy_spmv_plan"


def _spmv_plan(matrix: "CsrMatrix") -> Optional[dict]:
    """Per-matrix plan: the DIA view and gather geometry, both built lazily.

    The plan is keyed on the identity of the matrix's ``indptr`` array
    (matrices are treated as structurally immutable).  It starts empty;
    :func:`_dia_plan` and :func:`_gather_plan` fill in only what the path
    actually taken needs, so a matrix on the DIA path never pays for the
    gather path's nnz-sized index copy.
    """
    cache = getattr(matrix, "backend_cache", None)
    if cache is None:
        return None
    plan = cache.get(_SPMV_PLAN_KEY)
    if plan is None or plan["indptr"] is not matrix.indptr:
        plan = {"indptr": matrix.indptr}
        cache[_SPMV_PLAN_KEY] = plan
    return plan


def _gather_plan(matrix: "CsrMatrix", plan: dict) -> None:
    """Row geometry for the gather/reduceat path, cached on ``plan``.

    ``rows`` is ``None`` when every row is non-empty, which skips the
    zero-fill and the fancy scatter on the hot path.
    """
    if "indices" not in plan:
        nonempty = np.diff(matrix.indptr) > 0
        plan["starts"] = np.ascontiguousarray(matrix.indptr[:-1][nonempty])
        plan["rows"] = None if nonempty.all() else np.flatnonzero(nonempty)
        # np.take converts non-intp index arrays on every call; cache the
        # widened copy once so the hot path gathers without a temporary.
        plan["indices"] = np.ascontiguousarray(matrix.indices, dtype=np.intp)


#: DIA-format eligibility: at most this many distinct diagonals and at
#: most 2x storage blow-up from padding (stencil matrices sit at ~1x).
_DIA_MAX_DIAGONALS = 48
_DIA_MAX_PAD_FACTOR = 2.0


def _dia_plan(matrix: "CsrMatrix", plan: dict) -> Optional[dict]:
    """Cached DIA (diagonal) view of a stencil-like matrix, or ``None``.

    Finite-difference matrices concentrate their nonzeros on a handful of
    diagonals.  Storing those diagonals densely turns the SpMV/SpMM gather
    into pure *slicing* — each diagonal contributes ``Y[lo:hi] +=
    vals[lo:hi] * X[lo+d:hi+d]`` — so the products stream contiguous
    memory and move fewer bytes in lower precision (the CSR
    gather/reduceat path costs about the same in fp32 as in fp64).  Built
    lazily, once per matrix; matrices whose diagonal count or padding
    blow-up exceeds the thresholds are marked ineligible and use the
    gather path.
    """
    dia = plan.get("dia", None)
    if dia is False:
        return None
    if dia is not None:
        return dia
    n_rows, n_cols = matrix.shape
    nnz = matrix.data.size
    # int32 temporaries (half the bytes of intp) whenever the offsets fit.
    idx = np.int32 if max(n_rows, n_cols) < 2**31 else np.int64
    rows = np.repeat(np.arange(n_rows, dtype=idx), np.diff(matrix.indptr))
    offs = matrix.indices.astype(idx)
    offs -= rows
    offsets = np.unique(offs)
    if (
        nnz == 0
        or offsets.size > _DIA_MAX_DIAGONALS
        or offsets.size * n_rows > _DIA_MAX_PAD_FACTOR * nnz
    ):
        plan["dia"] = False
        return None
    values = np.zeros((offsets.size, n_rows), dtype=matrix.data.dtype)
    # One diagonal at a time: the only nnz-sized temporary is a bool mask.
    for di, d in enumerate(offsets):
        on_diag = offs == d
        values[di, rows[on_diag]] = matrix.data[on_diag]
    dia = {"offsets": [int(d) for d in offsets], "values": values}
    if values.dtype in native.KERNEL_DTYPES:
        # The compiled kernel's read-only view: int64 offsets and a
        # descriptor holding both arrays' pointers, so a call passes one
        # address instead of converting five arguments.
        offsets64 = offsets.astype(np.int64)
        descriptor = native.DiaMatrix(
            n_rows, n_cols, offsets.size, offsets64.ctypes.data, values.ctypes.data
        )
        dia["native_refs"] = (offsets64, descriptor)
        dia["native"] = ctypes.addressof(descriptor)
    plan["dia"] = dia
    return dia


def _dia_chunk(k: int, itemsize: int) -> int:
    """Rows per chunk of the DIA product, shared by both implementations.

    Small enough that the x panel, the product scratch and the y panel
    of a chunk stay cache-resident across the diagonal sweep — the x
    entries a row range touches are nearly the same for every diagonal,
    so chunking turns k·n_diags streams into ~one.  The chunk also fixes
    the summation order (see :func:`_dia_sweep`), which is why the
    compiled kernel takes it as an argument.
    """
    return max(1024, (1 << 19) // (k * itemsize))


def _dia_spmm(
    matrix: "CsrMatrix",
    dia: dict,
    X: np.ndarray,
    out: Optional[np.ndarray],
) -> np.ndarray:
    """Diagonal-format batched product ``Y = A X`` (see :func:`_dia_plan`).

    The one DIA entry point: the SpMV runs it on ``k = 1`` views.  Works
    in the transposed ``(k, n)`` orientation so that the Fortran-ordered
    blocks the solvers pass (Krylov basis panels) and contiguous vectors
    are C-contiguous views; operands in other layouts are staged through
    per-thread scratch column by column.  The product itself is one call
    of the compiled kernel for fp32/fp64 when it is available, else the
    NumPy sweep; both give the same bits.
    """
    n_rows, n_cols = matrix.shape
    k = X.shape[1]
    dtype = X.dtype
    if out is None:
        out = np.empty((n_rows, k), dtype=dtype)
    elif out.shape != (n_rows, k):
        raise ValueError("output block has wrong shape")
    if k == 0:
        return out
    if X.flags.f_contiguous:
        x_t = X.T
    else:
        x_t = scratch("numpy.dia.x", dtype, (k, n_cols))
        for c in range(k):
            x_t[c] = X[:, c]
    out_is_f = out.flags.f_contiguous and out.flags.writeable and out.dtype == dtype
    y_t = out.T if out_is_f else scratch("numpy.dia.y", dtype, (k, n_rows))
    chunk = _dia_chunk(k, dtype.itemsize)
    kernel = native.kernel("dia_spmm", dtype) if "native" in dia else None
    if kernel is None:
        _dia_sweep(dia, x_t, y_t, chunk)
    else:
        kernel(dia["native"], k, native.address(x_t), native.address(y_t), chunk)
    if not out_is_f:
        for c in range(k):
            out[:, c] = y_t[c]
    return out


def _dia_sweep(dia: dict, x_t: np.ndarray, y_t: np.ndarray, chunk: int) -> None:
    """``y_t = x_t A^T`` by NumPy slice multiply-adds, ``chunk`` rows at a time.

    The executable specification of ``native/dia.c`` and the path for
    fp16 and for hosts without a C compiler.  Its summation order, which
    the compiled kernel reproduces bit for bit: in each chunk the first
    diagonal touching the chunk writes its product straight into y (only
    the uncovered edges are zero-filled, saving a full zero+add pass),
    and every later diagonal, in offset order, adds its product.
    """
    k, n_rows = y_t.shape
    n_cols = x_t.shape[1]
    values = dia["values"]
    g_t = scratch("numpy.dia.g", y_t.dtype, (k, min(chunk, n_rows)))
    for c0 in range(0, n_rows, chunk):
        c1 = min(c0 + chunk, n_rows)
        filled = False
        for di, d in enumerate(dia["offsets"]):
            lo = max(max(0, -d), c0)
            hi = min(min(n_rows, n_cols - d), c1)
            if hi <= lo:
                continue
            x_slice = x_t[:, lo + d : hi + d]
            if not filled:
                if lo > c0:
                    y_t[:, c0:lo] = 0
                if hi < c1:
                    y_t[:, hi:c1] = 0
                np.multiply(x_slice, values[di, lo:hi], out=y_t[:, lo:hi])
                filled = True
            else:
                g = g_t[:, : hi - lo]
                np.multiply(x_slice, values[di, lo:hi], out=g)
                np.add(y_t[:, lo:hi], g, out=y_t[:, lo:hi])
        if not filled:
            y_t[:, c0:c1] = 0


def _one_pass_axpy(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the compiled axpy may run on ``x``/``y``: one dtype and
    shape, both C- or both Fortran-contiguous (so their flat entries pair
    up), ``y`` writable, and no overlap unless ``y`` is ``x``."""
    return (
        x.dtype == y.dtype
        and x.shape == y.shape
        and x.size > 0
        and y.flags.writeable
        and (
            (x.flags.c_contiguous and y.flags.c_contiguous)
            or (x.flags.f_contiguous and y.flags.f_contiguous)
        )
        and (x is y or not np.may_share_memory(x, y))
    )


def _poly_chain_dia(matrix: "CsrMatrix", x: np.ndarray, out: Optional[np.ndarray]):
    """The DIA plan the compiled polynomial chain runs on, or ``None`` for
    operands it may not take: it needs a square DIA matrix of ``x``'s
    dtype (fp32/fp64), a non-empty contiguous vector or Fortran-ordered
    block ``x``, and an ``out`` (when given) of ``x``'s shape and dtype,
    Fortran-contiguous and writable."""
    n_rows, n_cols = matrix.shape
    if not (
        matrix.data.dtype == x.dtype
        and n_rows == n_cols == x.shape[0]
        and x.ndim in (1, 2)
        and x.size > 0
        and x.flags.f_contiguous
    ):
        return None
    if out is not None and not (
        out.shape == x.shape
        and out.dtype == x.dtype
        and out.flags.f_contiguous
        and out.flags.writeable
    ):
        return None
    plan = _spmv_plan(matrix)
    dia = None if plan is None else _dia_plan(matrix, plan)
    return dia if dia is not None and "native" in dia else None


def _poly_plan_address(plan: FactorPlan) -> int:
    """Address of the compiled kernel's view of ``plan``, built once and
    kept in ``plan.cache`` with the arrays it points at."""
    entry = plan.cache.get("numpy.native")
    if entry is None:
        descriptor = native.PolyPlan(
            len(plan.factors), int(plan.power), plan.steps.ctypes.data, plan.coeffs.ctypes.data
        )
        entry = plan.cache["numpy.native"] = (ctypes.addressof(descriptor), descriptor)
    return entry[0]


#: Widest basis the compiled CGS2 projection takes: it keeps 64 bytes of
#: accumulators per basis column on the calling thread's stack.
_CGS2_MAX_COLUMNS = 1024


def _cgs2_addresses(V: np.ndarray, w: np.ndarray, h1: np.ndarray, h2: np.ndarray):
    """The data addresses the compiled CGS2 projection takes, or ``None``
    for operands it may not take: it needs one dtype, a non-empty
    Fortran-contiguous ``(n, j)`` basis with ``j <= _CGS2_MAX_COLUMNS``,
    ``w`` a contiguous length-``n`` vector outside the basis, contiguous
    length-``j`` coefficient buffers, and every operand writable."""
    n, j = V.shape
    if not (
        V.dtype == w.dtype == h1.dtype == h2.dtype
        and j <= _CGS2_MAX_COLUMNS
        and w.shape == (n,)
        and h1.shape == h2.shape == (j,)
    ):
        return None
    try:
        # from_buffer takes only writable, C-contiguous, non-empty arrays
        # (V.T is C-contiguous when V is Fortran-contiguous), and is the
        # cheapest route to an address.
        addresses = [
            ctypes.addressof(ctypes.c_char.from_buffer(a)) for a in (V.T, w, h1, h2)
        ]
    except (TypeError, ValueError, BufferError):
        return None
    v, x = addresses[0], addresses[1]
    if x < v + V.nbytes and v < x + w.nbytes:
        return None  # w overlaps the basis
    return addresses


class NumpyBackend(KernelBackend):
    """Reference backend: vectorised NumPy kernels, plus the compiled DIA
    product and polynomial chain for stencil matrices, the compiled axpy
    and the compiled CGS2 projection (see the module docstring)."""

    name = "numpy"

    # -------------------------------- sparse -------------------------- #
    def spmv(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        plan = None
        if (
            matrix.data.dtype == x.dtype
            and x.ndim == 1
            and (out is None or out.dtype == x.dtype)
        ):
            plan = _spmv_plan(matrix)
        if plan is None:
            return spmv(matrix.data, matrix.indices, matrix.indptr, x, out=out)
        if out is not None and out.shape[0] != matrix.shape[0]:
            raise ValueError("output vector has wrong length")
        if x.shape[0] != matrix.shape[1]:
            # Neither the DIA slices nor the clipped gather below would
            # raise on a wrong-length x; they would silently misread it.
            raise ValueError("input vector has wrong length")
        dia = _dia_plan(matrix, plan)
        if dia is not None:
            if out is None:
                return _dia_spmm(matrix, dia, x[:, None], None)[:, 0]
            _dia_spmm(matrix, dia, x[:, None], out[:, None])
            return out
        if out is None:
            return spmv(matrix.data, matrix.indices, matrix.indptr, x)
        nnz = matrix.data.size
        if nnz == 0:
            out[:] = 0
            return out
        dtype = x.dtype
        _gather_plan(matrix, plan)
        starts = plan["starts"]
        rows = plan["rows"]
        prod = scratch("numpy.gather.prod", dtype, nnz)
        # Every row non-empty: the segmented reduce maps 1:1 onto the
        # output, so reduceat writes straight into `out` — no sums buffer,
        # no copy.
        sums = out if rows is None else scratch("numpy.gather.sums", dtype, starts.size)
        # Same gather → multiply → segmented-reduce sequence as the module
        # reference above, so the result is bit-identical; only the
        # temporaries are reused.
        # mode="clip" lets np.take write straight into `prod` (the default
        # "raise" mode gathers into an internal buffer first); CSR column
        # indices are validated in-range at construction, so clipping never
        # alters a value.
        np.take(x, plan["indices"], out=prod, mode="clip")
        np.multiply(matrix.data, prod, out=prod)
        np.add.reduceat(prod, starts, out=sums)
        if rows is not None:
            out[:] = 0
            out[rows] = sums
        return out

    def spmv_transpose(
        self,
        matrix: "CsrMatrix",
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return spmv_transpose(
            matrix.data, matrix.indices, matrix.indptr, x, matrix.shape[1], out=out
        )

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
        plan = _spmv_plan(matrix) if matrix.data.dtype == X.dtype else None
        if plan is not None:
            dia = _dia_plan(matrix, plan)
            if dia is not None:
                return _dia_spmm(matrix, dia, X, out)
        if plan is None or out is None:
            return spmm(matrix.data, matrix.indices, matrix.indptr, X, out=out)
        n_rows, k = matrix.shape[0], X.shape[1]
        if out.shape != (n_rows, k):
            raise ValueError("output block has wrong shape")
        nnz = matrix.data.size
        if nnz == 0 or k == 0:
            out[:] = 0
            return out
        dtype = X.dtype
        _gather_plan(matrix, plan)
        starts = plan["starts"]
        rows = plan["rows"]
        prod = scratch("numpy.gather.prod_block", dtype, (nnz, k))
        sums = scratch("numpy.gather.sums_block", dtype, (starts.size, k))
        # Gathering rows of a C-contiguous block is cache-friendly; copying a
        # Fortran-ordered operand (the Krylov basis) once costs n*k, the
        # gather costs nnz*k, so the copy pays for itself.  Copies between
        # mixed C/F layouts go column by column: a 2-D mixed-layout ufunc
        # falls back to internal buffering, a transient allocation the
        # steady-state contract forbids.
        if X.flags.c_contiguous:
            source = X
        else:
            source = scratch("numpy.gather.x_block", dtype, X.shape)
            _copy_block(source, X)
        # Same gather → multiply → segmented-reduce sequence as the module
        # reference above (elementwise product is commutative), so results
        # are bit-identical; only the temporaries are reused.
        np.take(source, plan["indices"], axis=0, out=prod, mode="clip")
        # Column-wise multiply: broadcasting data[:, None] against the 2-D
        # product block would buffer internally (transient allocation); the
        # 1-D columns multiply buffer-free and bit-identically.
        for c in range(k):
            np.multiply(matrix.data, prod[:, c], out=prod[:, c])
        np.add.reduceat(prod, starts, axis=0, out=sums)
        if rows is None:
            _copy_block(out, sums)
        else:
            out[:] = 0
            out[rows, :] = sums
        return out

    # -------------------------------- dense --------------------------- #
    def gemv_transpose(
        self,
        V: np.ndarray,
        w: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if out is None:
            return V.T @ w
        np.dot(V.T, w, out=out)
        return out

    def gemv_notrans(
        self,
        V: np.ndarray,
        h: np.ndarray,
        w: np.ndarray,
        *,
        alpha: float = -1.0,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if work is not None and work.shape == w.shape and work.dtype == w.dtype:
            np.dot(V, h, out=work)
            if alpha == -1.0:
                np.subtract(w, work, out=w)
            elif alpha == 1.0:
                np.add(w, work, out=w)
            else:
                np.multiply(work, w.dtype.type(alpha), out=work)
                np.add(w, work, out=w)
            return w
        if alpha == -1.0:
            w -= V @ h
        elif alpha == 1.0:
            w += V @ h
        else:
            w += w.dtype.type(alpha) * (V @ h)
        return w

    def cgs2_project(
        self,
        V: np.ndarray,
        w: np.ndarray,
        h1: Optional[np.ndarray] = None,
        h2: Optional[np.ndarray] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        kernel = native.kernel("cgs2_project", w.dtype) if V.ndim == 2 else None
        if kernel is not None:
            n, j = V.shape
            h1 = np.empty(j, dtype=w.dtype) if h1 is None else h1
            h2 = np.empty(j, dtype=w.dtype) if h2 is None else h2
            addresses = _cgs2_addresses(V, w, h1, h2)
            if addresses is not None:
                # Three sweeps over V instead of four; agrees with the
                # GEMV sequence to rounding.
                kernel(n, j, *addresses)
                return h1, h2
        return super().cgs2_project(V, w, h1, h2, work=work)

    def poly_chain(
        self,
        matrix: "CsrMatrix",
        plan: FactorPlan,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        kernel = native.kernel("poly_chain", x.dtype)
        dia = None if kernel is None else _poly_chain_dia(matrix, x, out)
        if dia is None:
            return super().poly_chain(matrix, plan, x, out)
        if out is None:
            out = np.empty(x.shape, dtype=x.dtype, order="F")
        k = 1 if x.ndim == 1 else x.shape[1]
        buffers = [scratch(tag, x.dtype, x.shape, order="F") for tag in POLY_TAGS[:3]]
        # The recurrence of the default, one sweep per factor, with its bits.
        kernel(
            dia["native"],
            _poly_plan_address(plan),
            k,
            *(native.address(a.T) for a in (x, out, *buffers)),
            _dia_chunk(k, x.dtype.itemsize),
        )
        return out

    def gemm_transpose(
        self,
        V: np.ndarray,
        W: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if out is None:
            return V.T @ W
        np.dot(V.T, W, out=out)
        return out

    def gemm_notrans(
        self,
        V: np.ndarray,
        H: np.ndarray,
        W: np.ndarray,
        *,
        alpha: float = -1.0,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        fits = work is not None and work.shape == W.shape and work.dtype == W.dtype
        if fits and work.flags.c_contiguous and W.flags.c_contiguous:
            np.dot(V, H, out=work)
        elif fits and work.flags.f_contiguous and W.flags.f_contiguous:
            # np.dot needs a C-contiguous out, so an F-ordered product is
            # formed as (H^T V^T) into work.T: OpenBLAS then runs the
            # tall-skinny GEMM (M = n) instead of the short-wide one
            # (M = k), about twice as fast, with the same bits.
            np.dot(H.T, V.T, out=work.T)
        else:
            # No scratch in W's layout: the product is allocated.
            work = V @ H
        if alpha not in (-1.0, 1.0):
            np.multiply(work, W.dtype.type(alpha), out=work)
        op = np.subtract if alpha == -1.0 else np.add
        op(W, work, out=W)
        return W

    # -------------------------------- vector -------------------------- #
    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, y))

    def norm2(self, x: np.ndarray) -> float:
        # Accumulate in the working dtype (np.dot keeps the dtype), then sqrt.
        return float(np.sqrt(np.dot(x, x)))

    def axpy(
        self,
        alpha: float,
        x: np.ndarray,
        y: np.ndarray,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        kernel = native.kernel("axpy", x.dtype) if _one_pass_axpy(x, y) else None
        if kernel is not None:
            # The multiply-then-add below in one pass, with the same bits.
            xs, ys = (x, y) if x.flags.c_contiguous else (x.T, y.T)
            kernel(x.size, float(alpha), native.address(xs), native.address(ys))
            return y
        if (
            work is not None
            and work.shape == x.shape
            and work.dtype == x.dtype
            and work.flags.c_contiguous == x.flags.c_contiguous
            and y.flags.c_contiguous == x.flags.c_contiguous
        ):
            np.multiply(x, x.dtype.type(alpha), out=work)
            np.add(y, work, out=y)
            return y
        y += x.dtype.type(alpha) * x
        return y

    def scal(self, alpha: float, x: np.ndarray) -> np.ndarray:
        x *= x.dtype.type(alpha)
        return x

    def copy(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return x.copy()
        np.copyto(out, x, casting="same_kind")
        return out

    # ------------------------- preconditioner apply -------------------- #
    def diag_scale(
        self,
        scale: np.ndarray,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return np.multiply(scale, x, out=out)

    def block_diag_solve(
        self,
        inv_blocks: np.ndarray,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_blocks, k, _k2 = inv_blocks.shape
        x2 = x.reshape(n_blocks, k)
        if out is None:
            return np.einsum("bij,bj->bi", inv_blocks, x2).reshape(-1)
        np.einsum("bij,bj->bi", inv_blocks, x2, out=out.reshape(n_blocks, k))
        return out
