"""The ``out=``/workspace buffer contract and the allocation-free hot path.

Three properties are pinned here, on **both** shipped backends:

1. **Aliasing** — when a kernel is handed an ``out`` (or ``work``) buffer,
   the returned array *is* that buffer, so solvers can rely on writes
   landing in their workspace.
2. **Parity** — the ``out=`` code paths produce bit-identical values to the
   allocating paths on the NumPy reference backend (the gather → multiply →
   segmented-reduce sequence is the same; only the temporaries are reused),
   and dtype-tolerance-identical on SciPy.
3. **Allocation-freedom** — a steady-state GMRES(m) restart cycle
   (SpMV + CGS2 + norm + scal) performs zero per-iteration NumPy array
   allocations once the workspace exists, proven with ``tracemalloc``.

Plus the metering fast path: with no active timer and metering disabled,
kernels record nothing and skip the cost model, and a metered solve
records exactly the same labels it always did.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import get_backend, native
from repro.config import rng, set_config
from repro.linalg import kernels
from repro.linalg.context import set_context
from repro.linalg.multivector import MultiVector
from repro.matrices import laplace3d
from repro.perfmodel.timer import KernelTimer, use_timer
from repro.ortho import make_ortho_manager
from repro.preconditioners.base import IdentityPreconditioner
from repro.preconditioners.block_jacobi import BlockJacobiPreconditioner
from repro.preconditioners.jacobi import JacobiPreconditioner
from repro.preconditioners.mixed import PrecisionWrappedPreconditioner
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.solvers.gmres import GmresWorkspace, gmres, run_cycle

BACKENDS = ["numpy", "scipy"]
DTYPES = [np.float16, np.float32, np.float64]


@pytest.fixture
def matrix():
    return laplace3d(8)  # n = 512


def _vec(n, dtype, seed=7):
    return rng(seed).standard_normal(n).astype(dtype)


# ---------------------------------------------------------------------- #
# aliasing + parity of the backend out= paths                            #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES, ids=["fp16", "fp32", "fp64"])
@pytest.mark.parametrize("name", BACKENDS)
class TestBackendOutContract:
    def test_spmv_out_is_buffer_and_bit_identical(self, name, dtype, matrix):
        backend = get_backend(name)
        M = matrix.astype(np.dtype(dtype).name)
        x = _vec(M.n_cols, dtype)
        out = np.empty(M.n_rows, dtype=dtype)
        reference = backend.spmv(M, x)
        got = backend.spmv(M, x, out=out)
        assert got is out
        np.testing.assert_array_equal(got, reference)
        # Steady state: a second call into the same buffer stays identical.
        np.testing.assert_array_equal(backend.spmv(M, x, out=out), reference)

    def test_spmv_transpose_out(self, name, dtype, matrix):
        backend = get_backend(name)
        M = matrix.astype(np.dtype(dtype).name)
        x = _vec(M.n_rows, dtype)
        out = np.empty(M.n_cols, dtype=dtype)
        reference = backend.spmv_transpose(M, x)
        got = backend.spmv_transpose(M, x, out=out)
        assert got is out
        np.testing.assert_array_equal(got, reference)

    def test_spmm_out(self, name, dtype, matrix):
        backend = get_backend(name)
        M = matrix.astype(np.dtype(dtype).name)
        X = rng(3).standard_normal((M.n_cols, 4)).astype(dtype)
        out = np.empty((M.n_rows, 4), dtype=dtype)
        got = backend.spmm(M, X, out=out)
        assert got is out
        np.testing.assert_array_equal(got, backend.spmm(M, X))

    def test_gemv_transpose_out(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((200, 9)).astype(dtype))
        w = _vec(200, dtype)
        out = np.empty(9, dtype=dtype)
        got = backend.gemv_transpose(V, w, out=out)
        assert got is out
        np.testing.assert_array_equal(got, backend.gemv_transpose(V, w))

    def test_gemv_notrans_work_buffer_parity(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((200, 9)).astype(dtype))
        h = _vec(9, dtype)
        work = np.empty(200, dtype=dtype)
        w_plain = _vec(200, dtype, seed=11)
        w_work = w_plain.copy()
        backend.gemv_notrans(V, h, w_plain)
        got = backend.gemv_notrans(V, h, w_work, work=work)
        assert got is w_work
        np.testing.assert_array_equal(w_plain, w_work)

    def test_gemv_notrans_alpha_folds_sign(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((64, 5)).astype(dtype))
        y = _vec(5, dtype)
        work = np.empty(64, dtype=dtype)
        update = np.zeros(64, dtype=dtype)
        backend.gemv_notrans(V, y, update, alpha=1.0, work=work)
        # alpha=+1 into a zeroed buffer is exactly V @ y (IEEE negation of
        # every product term is exact, so the old 0 - V(-y) trick agrees
        # bitwise too).
        np.testing.assert_array_equal(update, (V @ y).astype(dtype))

    def test_gemm_transpose_out(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((200, 9)).astype(dtype))
        W = np.asfortranarray(rng(6).standard_normal((200, 4)).astype(dtype))
        out = np.empty((9, 4), dtype=dtype)
        got = backend.gemm_transpose(V, W, out=out)
        assert got is out
        np.testing.assert_array_equal(got, backend.gemm_transpose(V, W))

    def test_gemm_notrans_work_buffer_parity(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((200, 9)).astype(dtype))
        H = rng(7).standard_normal((9, 4)).astype(dtype)
        work = np.empty((200, 4), dtype=dtype)
        W_plain = np.asfortranarray(rng(8).standard_normal((200, 4)).astype(dtype))
        W_work = W_plain.copy(order="F")
        backend.gemm_notrans(V, H, W_plain)
        got = backend.gemm_notrans(V, H, W_work, work=work)
        assert got is W_work
        np.testing.assert_array_equal(W_plain, W_work)

    def test_gemm_notrans_alpha_folds_sign(self, name, dtype):
        backend = get_backend(name)
        V = np.asfortranarray(rng(5).standard_normal((64, 5)).astype(dtype))
        Y = rng(9).standard_normal((5, 3)).astype(dtype)
        work = np.empty((64, 3), dtype=dtype)
        update = np.zeros((64, 3), dtype=dtype, order="F")
        backend.gemm_notrans(V, Y, update, alpha=1.0, work=work)
        np.testing.assert_array_equal(update, (V @ Y).astype(dtype))

    def test_axpy_work_buffer_parity(self, name, dtype):
        backend = get_backend(name)
        x = np.asfortranarray(rng(3).standard_normal((80, 4)).astype(dtype))
        y_plain = np.asfortranarray(rng(4).standard_normal((80, 4)).astype(dtype))
        y_work = y_plain.copy(order="F")
        work = np.empty((80, 4), dtype=dtype, order="F")
        backend.axpy(0.5, x, y_plain)
        got = backend.axpy(0.5, x, y_work, work=work)
        assert got is y_work
        np.testing.assert_array_equal(y_plain, y_work)

    def test_copy_scal_out_paths(self, name, dtype):
        backend = get_backend(name)
        x = _vec(50, dtype)
        out = np.empty(50, dtype=dtype)
        assert backend.copy(x, out=out) is out
        np.testing.assert_array_equal(out, x)
        scaled = backend.scal(0.5, out)
        assert scaled is out
        np.testing.assert_array_equal(out, (x * dtype(0.5)).astype(dtype))

    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("width", [None, 3])
    def test_poly_chain_out_and_aliasing(self, name, dtype, matrix, width, method):
        """The polynomial chain (the compiled kernel on the NumPy backend's
        fp32/fp64 stencil, the recurrence elsewhere) writes into ``out``,
        which may be the input."""
        backend = get_backend(name)
        precision = {np.float16: "half", np.float32: "single", np.float64: "double"}[dtype]
        poly = GmresPolynomialPreconditioner(
            matrix, degree=5, precision=precision, apply_method=method
        )
        shape = (matrix.n_rows,) if width is None else (matrix.n_rows, width)
        x = np.asfortranarray(rng(6).standard_normal(shape).astype(dtype))
        expected = backend.poly_chain(poly.matrix, poly._plan, x)
        out = np.empty_like(x, order="F")
        assert backend.poly_chain(poly.matrix, poly._plan, x, out=out) is out
        np.testing.assert_array_equal(out, expected)
        inplace = x.copy(order="F")
        assert backend.poly_chain(poly.matrix, poly._plan, inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace, expected)

    def test_diag_scale_out_and_aliasing(self, name, dtype):
        backend = get_backend(name)
        d = _vec(50, dtype, seed=1)
        x = _vec(50, dtype, seed=2)
        expected = backend.diag_scale(d, x)
        out = np.empty(50, dtype=dtype)
        assert backend.diag_scale(d, x, out=out) is out
        np.testing.assert_array_equal(out, expected)
        # diag_scale explicitly allows out to alias x (elementwise product).
        x_inplace = x.copy()
        backend.diag_scale(d, x_inplace, out=x_inplace)
        np.testing.assert_array_equal(x_inplace, expected)


@pytest.mark.parametrize("name", BACKENDS)
def test_block_diag_solve_out(name):
    backend = get_backend(name)
    blocks = rng(4).standard_normal((6, 3, 3))
    x = _vec(18, np.float64)
    expected = backend.block_diag_solve(blocks, x)
    out = np.empty(18)
    assert backend.block_diag_solve(blocks, x, out=out) is out
    np.testing.assert_array_equal(out, expected)


# ---------------------------------------------------------------------- #
# instrumented layer: backend routing + out forwarding                   #
# ---------------------------------------------------------------------- #
class _SpyBackend(get_backend("numpy").__class__):
    """NumPy backend that counts which protocol methods are hit."""

    name = "spy"

    def __init__(self):
        self.calls = []

    def __getattribute__(self, attr):
        if attr in (
            "scal",
            "copy",
            "diag_scale",
            "block_diag_solve",
            "spmv",
            "gemv_transpose",
            "gemv_notrans",
        ):
            object.__getattribute__(self, "calls").append(attr)
        return object.__getattribute__(self, attr)


def test_vector_kernels_route_through_backend():
    """scal/copy/diag_scale/block_diag_solve dispatch to the backend protocol
    (they used to run inline NumPy in the instrumented layer)."""
    spy = _SpyBackend()
    set_context(backend=spy)
    x = _vec(12, np.float64)
    kernels.scal(2.0, x)
    kernels.copy(x)
    kernels.diag_scale(x, x.copy())
    kernels.block_diag_solve(rng(0).standard_normal((4, 3, 3)), _vec(12, np.float64))
    assert spy.calls == ["scal", "copy", "diag_scale", "block_diag_solve"]


def test_instrumented_out_forwarding(matrix):
    x = _vec(matrix.n_cols, np.float64)
    out = np.empty(matrix.n_rows)
    assert kernels.spmv(matrix, x, out=out) is out
    V = np.asfortranarray(rng(5).standard_normal((matrix.n_rows, 4)))
    h_out = np.empty(4)
    assert kernels.gemv_transpose(V, x, out=h_out) is h_out
    c_out = np.empty(matrix.n_rows)
    assert kernels.cast(x.astype(np.float32), "double", out=c_out) is c_out
    np.testing.assert_array_equal(c_out, x.astype(np.float32).astype(np.float64))


def test_multivector_combine_out_matches_reference():
    gen = rng(9)
    V = MultiVector(40, 6, "double")
    for _ in range(5):
        V.append(gen.standard_normal(40))
    y = gen.standard_normal(5)
    expected = V.block() @ y
    out = np.empty(40)
    got = V.combine(y, out=out)
    assert got is out
    np.testing.assert_array_equal(got, expected)
    # and the allocating path agrees bitwise with the out path
    np.testing.assert_array_equal(V.combine(y), got)


# ---------------------------------------------------------------------- #
# preconditioner out= parity                                             #
# ---------------------------------------------------------------------- #
def _preconditioners(matrix):
    spd = matrix  # laplace3d is SPD with positive diagonal
    yield JacobiPreconditioner(spd)
    yield BlockJacobiPreconditioner(spd, block_size=7)  # ragged trailing block
    yield GmresPolynomialPreconditioner(spd, degree=6)
    yield GmresPolynomialPreconditioner(spd, degree=4, apply_method="power")
    yield IdentityPreconditioner()
    yield PrecisionWrappedPreconditioner(
        JacobiPreconditioner(spd, precision="single"), outer_precision="double"
    )


def test_preconditioner_apply_out_parity(matrix):
    _assert_apply_out_parity(matrix)


def test_preconditioner_apply_out_parity_without_compiled_kernels(matrix, monkeypatch):
    """The same on the Python versions (the polynomial's recurrence)."""
    monkeypatch.setattr(native, "_kernels", {})
    _assert_apply_out_parity(matrix)


def _assert_apply_out_parity(matrix):
    v = _vec(matrix.n_rows, np.float64, seed=21)
    for precond in _preconditioners(matrix):
        expected = precond.apply(v.copy())
        out = np.empty(matrix.n_rows)
        got = precond.apply(v.copy(), out=out)
        assert got is out, precond.name
        np.testing.assert_array_equal(got, expected, err_msg=precond.name)
        # Steady state: reapplying into the same buffer stays identical.
        np.testing.assert_array_equal(
            precond.apply(v.copy(), out=out), expected, err_msg=precond.name
        )


# ---------------------------------------------------------------------- #
# metering fast path                                                     #
# ---------------------------------------------------------------------- #
def test_unmetered_solve_records_nothing(matrix):
    set_context(meter=False)
    result = gmres(matrix, np.ones(matrix.n_rows), restart=10, tol=1e-6, fp64_check=False)
    assert result.converged
    assert result.timer.total_calls() == 0


def test_metered_solve_labels_unchanged(matrix):
    set_context(meter=True)
    result = gmres(matrix, np.ones(matrix.n_rows), restart=10, tol=1e-6, fp64_check=False)
    calls = result.timer.calls_by_label()
    assert {"SpMV", "GEMV (Trans)", "GEMV (No Trans)", "Norm", "Other"} <= set(calls)
    # CGS2: two projection passes = 2 GEMV-T + 2 GEMV-N per iteration, plus
    # one combine GEMV-N per restart — the sign-folded combine still lands
    # under the paper's "GEMV (No Trans)" label.
    assert calls["GEMV (No Trans)"] == calls["GEMV (Trans)"] + result.restarts


# ---------------------------------------------------------------------- #
# tracemalloc: zero per-iteration allocations in the steady-state cycle  #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_steady_state_gmres_cycle_is_allocation_free(backend):
    """After warmup, restart cycles (SpMV + CGS2 + norm + scal) must not
    allocate any per-iteration NumPy arrays on either backend.

    The net traced growth over five full cycles must be (close to) zero and
    the peak must stay far below one length-n vector — so neither a per-call
    temporary (n or nnz sized) nor a slow leak can hide.  Transient Python
    scalars (norm results, Givens rotations) are allowed; they are orders of
    magnitude smaller than a vector.
    """
    _assert_gmres_cycle_allocation_free(backend, meter=False)


@pytest.mark.parametrize("backend", BACKENDS)
def test_metered_steady_state_gmres_cycle_is_allocation_free(backend):
    """The same proof with metering on and a timer observing every kernel:
    once the warmup has filled the cost-model memo and the timer's label
    buckets, recording a call allocates nothing that outlives it."""
    with use_timer(KernelTimer("metered cycle")) as timer:
        _assert_gmres_cycle_allocation_free(backend, meter=True)
    assert timer.calls_by_label()["SpMV"] == 7 * 30


def _assert_gmres_cycle_allocation_free(backend, *, meter):
    set_config(backend=backend)
    set_context(meter=meter)
    matrix = laplace3d(20)  # n = 8000: one fp64 vector is 64 KB
    n = matrix.n_rows
    restart = 30
    workspace = GmresWorkspace(n, restart, "double")
    ortho = make_ortho_manager("cgs2")
    precond = IdentityPreconditioner(precision="double")
    r = np.ones(n)
    rnorm = float(np.linalg.norm(r))

    def cycle():
        outcome = run_cycle(
            matrix, r, workspace, ortho=ortho, preconditioner=precond, residual_norm=rnorm
        )
        assert outcome.iterations == restart
        return outcome

    cycle()  # warmup: builds backend plans/handles and ortho scratch
    cycle()

    vector_bytes = n * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(5):
            cycle()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    net = after - before
    peak_extra = peak - before
    assert net < 16_384, f"steady-state cycles leak {net} B on {backend}"
    assert peak_extra < vector_bytes // 2, (
        f"a per-iteration allocation of {peak_extra} B (≥ half a vector) "
        f"survived on {backend}"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_steady_state_block_gmres_cycle_is_allocation_free(backend):
    """The Block-GMRES restart cycle (SpMM + block CGS2 + band Givens +
    block combine) must not allocate per-iteration arrays once the
    workspace exists, on either backend — same proof as the single-vector
    cycle, with the threshold scaled to half an (n, k) block."""
    set_config(backend=backend)
    set_context(meter=False)
    matrix = laplace3d(20)  # n = 8000
    n = matrix.n_rows
    k = 8
    restart = 20
    workspace = GmresWorkspace(n, restart, "double", k)
    ortho = make_ortho_manager("bcgs2")
    precond = IdentityPreconditioner(precision="double")
    R = np.asfortranarray(rng(1).standard_normal((n, k)))

    def cycle():
        outcome = run_cycle(matrix, R, workspace, ortho=ortho, preconditioner=precond)
        assert outcome.iterations == restart
        return outcome

    cycle()  # warmup: backend plans (incl. the DIA view), ortho + QR scratch
    cycle()

    block_bytes = n * k * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(5):
            cycle()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    net = after - before
    peak_extra = peak - before
    assert net < 16_384, f"steady-state block cycles leak {net} B on {backend}"
    assert peak_extra < block_bytes // 2, (
        f"a per-iteration allocation of {peak_extra} B (≥ half a block) "
        f"survived on {backend}"
    )


# ---------------------------------------------------------------------- #
# gemm_notrans orientation: a work block in W's layout, the same bits    #
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("alpha", [-1.0, 1.0, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", BACKENDS)
def test_gemm_notrans_layout_matched_work_is_bit_identical(name, dtype, k, alpha, order):
    """``W += alpha V H`` through a work block in W's layout (the F-ordered
    one is formed as ``(H^T V^T)`` into ``work.T``) gives exactly the bits
    of the allocating path and of the plain NumPy expression."""
    backend = get_backend(name)
    gen = rng(k)
    n, j = 1000, 40
    # V is a leading column block of a wider Fortran basis, H a row slice of
    # a C-contiguous coefficient buffer, as in block CGS2.
    V = np.asfortranarray(gen.standard_normal((n, j + 8)).astype(dtype))[:, :j]
    H = gen.standard_normal((j + 5, k)).astype(dtype)[:j]
    W_plain = np.array(gen.standard_normal((n, k)), dtype=dtype, order=order)
    W_work = W_plain.copy(order=order)
    work = np.empty((n, k), dtype=dtype, order=order)
    # Scaling by -1, 1 or 0.5 is exact, so this is W - VH, W + VH, W + VH/2.
    expected = W_plain + dtype(alpha) * (V @ H)
    backend.gemm_notrans(V, H, W_plain, alpha=alpha)
    assert backend.gemm_notrans(V, H, W_work, alpha=alpha, work=work) is W_work
    np.testing.assert_array_equal(W_plain, expected)
    np.testing.assert_array_equal(W_work, expected)


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", BACKENDS)
def test_gemm_notrans_layout_matched_work_allocates_nothing(name, dtype, order):
    backend = get_backend(name)
    gen = rng(3)
    n, j, k = 4096, 40, 8
    V = np.asfortranarray(gen.standard_normal((n, j)).astype(dtype))
    H = gen.standard_normal((j, k)).astype(dtype)
    W = np.array(gen.standard_normal((n, k)), dtype=dtype, order=order)
    work = np.empty((n, k), dtype=dtype, order=order)
    backend.gemm_notrans(V, H, W, work=work)  # warmup
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backend.gemm_notrans(V, H, W, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column_bytes = n * np.dtype(dtype).itemsize
    assert peak - before < column_bytes // 2, (
        f"gemm_notrans allocated {peak - before} B with a {order}-ordered work"
    )


@pytest.mark.parametrize("k", [2, 3, 8])
def test_block_gemm_notrans_work_is_fortran_ordered(k):
    """The block solver's GEMM-N scratch is Fortran-ordered like the blocks
    it updates, which selects the tall-skinny orientation above (a timing
    regression is invisible to the bit checks, so the layout is pinned)."""
    workspace = GmresWorkspace(64, 4, "double", 8)
    gemm_work = workspace.gemm_work(k)
    assert gemm_work.shape == (64, k)
    assert gemm_work.flags.f_contiguous and not gemm_work.flags.c_contiguous
    ortho_work = make_ortho_manager("bcgs2")._buffers(workspace.basis, k)["work"]
    assert ortho_work.shape == (64, k)
    assert ortho_work.flags.f_contiguous and not ortho_work.flags.c_contiguous
