"""The compiled CGS2 projection: ``NumpyBackend.cgs2_project``, which runs
``bcgs2_project`` (``backends/native/dense.c``) at block width 1.

Unlike the other compiled kernels it does not reproduce its Python version
bit for bit: it sums over fixed 64-byte lanes, where BLAS picks its own
order.  Pinned here:

* parity to rounding with the GEMV sequence it replaces, for fp32/fp64,
  basis lengths around the kernel's row tile and basis widths 1..50;
* bitwise determinism: on repeat, on copies at every 64-byte offset
  (which change the kernel's load phase), with ``w`` at another offset
  than the basis, and across threads sharing one basis;
* NaN and inf reach ``h`` and ``w``, so a solve still ends in BREAKDOWN;
* fp16, strided, read-only or overlapping operands, and a build without
  the kernel, run the GEMV sequence of the backend default;
* the steady-state call allocates nothing (tracemalloc);
* metering: one CGS2 orthogonalization books two GEMV (Trans), two GEMV
  (No Trans) and one Norm, with the call's wall split among them, and a
  fault-injecting backend still sees every GEMV of a CGS2 solve.
"""

from __future__ import annotations

import importlib.resources
import re
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends import get_backend, native
from repro.backends.numpy_backend import NumpyBackend
from repro.config import rng
from repro.linalg import kernels
from repro.linalg.context import use_backend
from repro.linalg.multivector import MultiVector
from repro.matrices import laplace3d
from repro.ortho import ClassicalGramSchmidt2
from repro.perfmodel.timer import KernelTimer, use_timer
from repro.solvers import gmres
from repro.solvers.status import SolverStatus
from repro.testing.faults import FaultInjectedError, FaultInjectingBackend

NUMPY = NumpyBackend()
FLOATS = [np.float32, np.float64]
FLOAT_IDS = ["fp32", "fp64"]
#: Rows per tile of the kernel at block width 1, read from its source.
TILE = int(
    re.search(
        r"#define BCGS2_VECTOR_TILE (\d+)",
        importlib.resources.files(native).joinpath("dense.c").read_text(),
    ).group(1)
)


@pytest.fixture(autouse=True)
def compiled():
    if native.kernel("bcgs2_project", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled kernels are unavailable")


class CountingBackend(NumpyBackend):
    """The NumPy backend, counting the GEMVs its CGS2 default runs."""

    def __init__(self):
        self.gemvs = 0

    def gemv_transpose(self, V, w, out=None):
        self.gemvs += 1
        return super().gemv_transpose(V, w, out)

    def gemv_notrans(self, V, h, w, *, alpha=-1.0, work=None):
        self.gemvs += 1
        return super().gemv_notrans(V, h, w, alpha=alpha, work=work)


def bits(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def basis(n: int, j: int, dtype, seed: int = 0) -> np.ndarray:
    """An ``n x (j + 1)`` Fortran block: ``j`` columns of norm <= 1 (an
    orthonormal basis when ``n >= j``) and a random last column."""
    gen = rng(seed)
    if n >= j:
        V = np.linalg.qr(gen.standard_normal((n, j)))[0]
    else:
        V = np.linalg.qr(gen.standard_normal((j, n)))[0].T  # orthonormal rows
    block = np.empty((n, j + 1), dtype=dtype, order="F")
    block[:, :j] = V
    block[:, j] = gen.standard_normal(n)
    return block


def fused(V, w):
    j = V.shape[1]
    h1, h2 = np.empty(j, V.dtype), np.empty(j, V.dtype)
    assert NUMPY.cgs2_project(V, w, h1, h2) == (h1, h2)
    return h1, h2


def composed(V, w):
    """The GEMV sequence the kernel replaces."""
    h1 = V.T @ w
    w -= V @ h1
    h2 = V.T @ w
    w -= V @ h2
    return h1, h2


def at_offset(array: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``array`` whose data starts ``offset`` bytes past a
    64-byte boundary, in the same layout."""
    raw = np.empty(array.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    order = "F" if array.flags.f_contiguous and array.ndim > 1 else "C"
    copy = raw[start : start + array.nbytes].view(array.dtype).reshape(array.shape, order=order)
    copy[...] = array
    return copy


def run_at(block: np.ndarray, j: int, offset: int, w_offset=None):
    """The kernel on a copy of ``block`` at ``offset`` (``w`` inside the
    copy, or in its own array at ``w_offset``); returns ``(w, h1, h2)``."""
    copy = at_offset(block, offset)
    V = copy[:, :j]
    w = copy[:, j] if w_offset is None else at_offset(block[:, j], w_offset)
    h1, h2 = fused(V, w)
    return w, h1, h2


class TestParity:
    @pytest.mark.parametrize(
        "n", [1, 15, 17, TILE - 1, TILE, TILE + 1, 4096, 32768]
    )
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_agrees_with_the_gemv_sequence(self, dtype, n):
        eps = np.finfo(dtype).eps
        block = basis(n, 50, dtype, seed=n)
        for j in range(1, 51):
            V = block[:, :j]
            w0 = np.ascontiguousarray(block[:, 50])
            w, want_w = w0.copy(), w0.copy()
            h1, h2 = fused(V, w)
            want_h1, want_h2 = composed(V, want_w)
            # ||V|| <= 1, so every intermediate is bounded by a few ||w0||.
            tol = 8 * (j + np.sqrt(n)) * eps * np.linalg.norm(w0)
            assert np.abs(h1 - want_h1).max() <= tol, j
            assert np.abs(h2 - want_h2).max() <= tol, j
            assert np.abs(w - want_w).max() <= tol, j
            if n >= 50:  # an orthonormal basis: w is now orthogonal to it
                assert np.abs(V.T @ w).max() <= tol, j

    def test_cgs2_solves_match(self, monkeypatch):
        """Through a whole GMRES solve: same iterations, same solution to
        the solver's tolerance."""
        A = laplace3d(10)
        b = rng(3).standard_normal(A.n_rows)
        fast = gmres(A, b, restart=30, tol=1e-10, ortho="cgs2")
        with monkeypatch.context() as m:
            m.setattr(native, "_kernels", {})
            slow = gmres(A, b, restart=30, tol=1e-10, ortho="cgs2")
        assert fast.status is slow.status is SolverStatus.CONVERGED
        assert fast.iterations == slow.iterations
        np.testing.assert_allclose(fast.x, slow.x, rtol=1e-8)


class TestDeterminism:
    @pytest.mark.parametrize("n,j", [(1, 1), (17, 3), (TILE + 5, 9), (4096, 50), (5000, 7)])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_same_bits_on_repeat_and_at_every_offset(self, dtype, n, j):
        block = basis(n, j, dtype, seed=j)
        want = [bits(a) for a in run_at(block, j, 0)]
        offsets = range(0, 64, np.dtype(dtype).itemsize)
        runs = [run_at(block, j, offset) for offset in offsets]
        # w in its own array, at another phase than the basis.
        runs += [run_at(block, j, 0, w_offset=16), run_at(block, j, 32, w_offset=0)]
        runs.append(run_at(block, j, 0))
        for run in runs:
            for got, expected in zip(run, want):
                np.testing.assert_array_equal(bits(got), expected)

    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_threads_sharing_a_basis_get_the_same_bits(self, dtype):
        n, j = 3 * TILE + 7, 40
        block = basis(n, j, dtype, seed=5)
        V = block[:, :j]
        w0 = np.ascontiguousarray(block[:, j])
        w = w0.copy()
        want = [bits(a) for a in (*fused(V, w), w)]
        mismatches = []

        def worker():
            for _ in range(25):
                w = w0.copy()
                got = (*fused(V, w), w)
                if not all(np.array_equal(bits(g), e) for g, e in zip(got, want)):
                    mismatches.append(got)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", FLOATS, ids=FLOAT_IDS)
    def test_reaches_h_and_w(self, dtype, value):
        block = basis(2 * TILE + 3, 6, dtype)
        V = block[:, :6]
        for poisoned in ("w", "V"):
            w = np.ascontiguousarray(block[:, 6])
            Vp = V.copy(order="F")
            if poisoned == "w":
                w[TILE + 1] = value
            else:
                Vp[TILE + 1, 2] = value
            h1, h2 = fused(Vp, w)
            assert not np.isfinite(h1).all(), poisoned
            assert not np.isfinite(h2).all(), poisoned
            assert not np.isfinite(w).all(), poisoned

    def test_orthogonalize_reports_non_finite(self):
        mv = MultiVector(TILE + 9, 5, "double")
        for c in range(4):
            mv.append(basis(TILE + 9, 4, np.float64)[:, c])
        w = np.ones(TILE + 9)
        w[3] = np.nan
        h, h_next = ClassicalGramSchmidt2().orthogonalize(mv, w)
        assert np.isnan(h).any() and not np.isfinite(h_next)

    def test_solve_ends_in_breakdown(self):
        A = laplace3d(6)
        A.data[7] = np.inf
        result = gmres(A, np.ones(A.n_rows), restart=20, tol=1e-8, ortho="cgs2")
        assert result.status is SolverStatus.BREAKDOWN


class TestComposedPath:
    """Operands the kernel does not take run the backend default."""

    def run(self, V, w, h1=None, h2=None):
        backend = CountingBackend()
        backend.cgs2_project(V, w, h1, h2)
        return backend.gemvs

    def operands(self, dtype=np.float64, n=300, j=6):
        block = basis(n, j, dtype)
        return block[:, :j], np.ascontiguousarray(block[:, j])

    def test_fused_operands_take_the_kernel(self):
        V, w = self.operands()
        assert self.run(V, w) == 0
        assert self.run(V, w, np.empty(6), np.empty(6)) == 0

    def test_fp16(self):
        V, w = self.operands(np.float16)
        assert self.run(V, w) == 4

    def test_strided(self):
        V, w = self.operands()
        wide = np.zeros(2 * w.size)
        wide[::2] = w
        assert self.run(V, wide[::2]) == 4  # strided w
        assert self.run(np.ascontiguousarray(V), w) == 4  # C-ordered basis

    def test_read_only(self):
        V, w = self.operands()
        V.flags.writeable = False
        assert self.run(V, w) == 4

    def test_overlapping(self):
        block = basis(300, 6, np.float64)
        assert self.run(block[:, :6], block[:, 5]) == 4

    def test_no_kernel(self, monkeypatch):
        monkeypatch.setattr(native, "_kernels", {})
        V, w = self.operands()
        assert self.run(V, w) == 4

    def test_composed_default_is_the_gemv_sequence(self, monkeypatch):
        monkeypatch.setattr(native, "_kernels", {})
        V, w = self.operands()
        want_w = w.copy()
        want = composed(V, want_w)
        got = NUMPY.cgs2_project(V, w)
        for g, e in zip((*got, w), (*want, want_w)):
            np.testing.assert_array_equal(bits(g), bits(e))


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
def test_cgs2_project_is_allocation_free(backend):
    """With caller-owned coefficient buffers, steady-state calls of the
    metered kernel (timer observing) allocate nothing."""
    n, j = 2 * TILE + 3, 30
    mv = MultiVector(n, j + 1, "double")
    for c in range(j):
        mv.append(basis(n, j, np.float64)[:, c])
    w = np.ones(n)
    h1, h2 = np.empty(j), np.empty(j)
    with use_backend(get_backend(backend)), use_timer(KernelTimer("cgs2")):
        for _ in range(3):
            mv.cgs2_project(w, h1, h2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(50):
                mv.cgs2_project(w, h1, h2)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert current - before < 1024
    assert peak - before < 8 * 1024


class TestMetering:
    def test_one_orthogonalize_books_the_four_gemvs_and_a_norm(self, monkeypatch):
        n, j = 500, 7
        mv = MultiVector(n, j + 1, "double")
        for c in range(j):
            mv.append(basis(n, j, np.float64)[:, c])
        w = np.ones(n)
        clock = iter(range(0, 1000, 2))  # every call takes 2 "seconds"
        fake_time = SimpleNamespace(perf_counter=lambda: float(next(clock)))
        monkeypatch.setattr(kernels, "time", fake_time)
        with use_timer(KernelTimer("ortho")) as timer:
            ClassicalGramSchmidt2().orthogonalize(mv, w)
        assert timer.calls_by_label() == {"GEMV (Trans)": 2, "GEMV (No Trans)": 2, "Norm": 1}
        records = {r.label: r for r in timer.records}
        gemv_t, gemv_n = records["GEMV (Trans)"], records["GEMV (No Trans)"]
        assert gemv_t.wall_seconds + gemv_n.wall_seconds == pytest.approx(2.0)
        assert records["Norm"].wall_seconds == 2.0
        # Split by the modelled seconds of the two kinds of GEMV.
        assert gemv_t.wall_seconds / gemv_n.wall_seconds == pytest.approx(
            gemv_t.model_seconds / gemv_n.model_seconds
        )

    def test_ledger_matches_the_separate_gemvs(self):
        """Counts, bytes, FLOPs and modelled seconds equal those of the
        four separate metered GEMVs, bit for bit."""
        block = basis(700, 9, np.float32)
        V, w = block[:, :9], np.ascontiguousarray(block[:, 9])
        with use_timer(KernelTimer("fused")) as fused_timer:
            kernels.cgs2_project(V, w.copy())
        with use_timer(KernelTimer("separate")) as separate_timer:
            v = w.copy()
            for _ in range(2):
                h = kernels.gemv_transpose(V, v)
                kernels.gemv_notrans(V, h, v)

        def ledger(timer):
            return {
                (r.label, r.precision): (r.calls, r.model_seconds.hex(), r.bytes, r.flops)
                for r in timer.records
            }

        assert ledger(fused_timer) == ledger(separate_timer)

    def test_faults_on_gemv_transpose_fire_in_a_cgs2_solve(self):
        A = laplace3d(6)
        b = np.ones(A.n_rows)
        raising = FaultInjectingBackend(
            NumpyBackend(), exception_rate=1.0, kernels={"gemv_transpose"}
        )
        with use_backend(raising), pytest.raises(FaultInjectedError):
            gmres(A, b, restart=20, tol=1e-8, ortho="cgs2")
        assert raising.stats()["injected"]["exception"] == 1
        poisoning = FaultInjectingBackend(NumpyBackend(), nan_rate=1.0, kernels={"gemv_transpose"})
        with use_backend(poisoning):
            result = gmres(A, b, restart=20, tol=1e-8, ortho="cgs2")
        assert result.status is SolverStatus.BREAKDOWN
        assert poisoning.stats()["injected"]["nan"] > 0
