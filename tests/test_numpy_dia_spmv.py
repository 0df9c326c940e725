"""The NumPy backend's DIA (diagonal-format) SpMV/SpMM path.

Stencil-like matrices (at most ``_DIA_MAX_DIAGONALS`` diagonals, at most
``_DIA_MAX_PAD_FACTOR`` padding) run ``NumpyBackend.spmv``/``spmm``
through the cached DIA plan; every other matrix keeps the CSR
gather/``np.add.reduceat`` path.  Pinned here:

* DIA results match the module-level reference kernels to rounding (DIA
  sums each row in diagonal order, the reference in column order), with
  and without ``out=``, across precisions, layouts and matrix shapes;
* ineligible matrices stay bit-identical to the reference;
* a DIA matrix's plan never builds the gather path's index copy;
* allocating and ``out=`` calls are safe to run concurrently on one
  shared matrix;
* the compiled fp32/fp64 kernel (``backends/native/dia.c``) gives the
  NumPy sweep's bits on every stencil, width, layout and shape tried,
  and every test above passes on the sweep too (the ``...Sweep``
  classes, which unload the compiled library).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import native
from repro.backends.numpy_backend import (
    _DIA_MAX_DIAGONALS,
    _SPMV_PLAN_KEY,
    NumpyBackend,
    spmm,
    spmv,
)
from repro.config import rng
from repro.matrices import bentpipe2d, laplace3d, uniflow2d
from repro.sparse import CsrMatrix

NUMPY = NumpyBackend()
DTYPES = [np.float16, np.float32, np.float64]
DTYPE_IDS = ["fp16", "fp32", "fp64"]


def reference(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    return spmv(A.data, A.indices, A.indptr, x)


def assert_matches_to_rounding(y: np.ndarray, A: CsrMatrix, x: np.ndarray) -> None:
    """``|y - ref| <= c * eps * (|A| |x|)`` row by row: reordering a row's
    sum changes it by at most a few roundings of its absolute row sum."""
    ref = reference(A, x)
    assert y.dtype == ref.dtype == A.dtype
    scale = spmv(
        np.abs(A.data).astype(np.float64),
        A.indices,
        A.indptr,
        np.abs(x).astype(np.float64),
    )
    row_nnz = int(np.diff(A.indptr).max(initial=1))
    bound = 2 * row_nnz * np.finfo(A.dtype).eps * scale
    err = np.abs(y.astype(np.float64) - ref.astype(np.float64))
    assert np.all(err <= bound), float(np.max(err - bound))


def dia_of(A: CsrMatrix):
    return A.backend_cache[_SPMV_PLAN_KEY]["dia"]


@pytest.fixture
def sweep_only(monkeypatch):
    """Unload the compiled kernels: every DIA product runs the NumPy sweep."""
    monkeypatch.setattr(native, "_kernels", {})


@pytest.fixture
def compiled():
    """The compiled kernels, loaded (built on first use) for this test."""
    if native.kernel("dia_spmm", np.dtype(np.float64)) is None:
        pytest.skip("no C compiler: the compiled DIA kernel is unavailable")


def banded(n_rows: int, n_cols: int, offsets, *, empty_rows=(), seed=0) -> CsrMatrix:
    """Random-valued matrix on the given diagonals, optional empty rows."""
    dense = np.zeros((n_rows, n_cols))
    values = rng(seed).standard_normal((len(offsets), max(n_rows, n_cols)))
    for v, d in zip(values, offsets):
        for i in range(n_rows):
            if 0 <= i + d < n_cols:
                dense[i, i + d] = v[i]
    dense[list(empty_rows), :] = 0
    return CsrMatrix.from_scipy(sp.csr_matrix(dense), name="banded")


STENCILS = {
    "Laplace3D": lambda: laplace3d(8),
    "UniFlow2D": lambda: uniflow2d(16),
    "BentPipe2D": lambda: bentpipe2d(16),
}


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("problem", sorted(STENCILS))
class TestDiaParity:
    def test_allocating_and_out_match_reference(self, problem, dtype):
        A = STENCILS[problem]().astype(np.dtype(dtype).name)
        x = rng(1).uniform(-1, 1, A.n_cols).astype(dtype)
        y = NUMPY.spmv(A, x)
        assert isinstance(dia_of(A), dict)  # the DIA path actually ran
        assert y.shape == (A.n_rows,)
        assert_matches_to_rounding(y, A, x)
        out = np.full(A.n_rows, np.nan, dtype=dtype)
        assert NUMPY.spmv(A, x, out=out) is out
        np.testing.assert_array_equal(out, y)

    def test_spmm_columns_match_dia_spmv(self, problem, dtype):
        A = STENCILS[problem]().astype(np.dtype(dtype).name)
        X = np.asfortranarray(rng(2).uniform(-1, 1, (A.n_cols, 3)).astype(dtype))
        Y = NUMPY.spmm(A, X)
        for c in range(3):
            np.testing.assert_array_equal(Y[:, c], NUMPY.spmv(A, X[:, c].copy()))


class TestDiaShapesAndLayouts:
    def test_rectangular(self):
        for shape in ((40, 25), (25, 40)):
            A = banded(*shape, offsets=(-3, -1, 0, 2, 5), seed=3)
            x = rng(4).standard_normal(A.n_cols)
            y = NUMPY.spmv(A, x)
            assert isinstance(dia_of(A), dict)
            assert_matches_to_rounding(y, A, x)
            out = np.empty(A.n_rows)
            np.testing.assert_array_equal(NUMPY.spmv(A, x, out=out), y)

    def test_empty_rows(self):
        A = banded(30, 30, offsets=(-1, 0, 1), empty_rows=(0, 7, 8, 29), seed=5)
        x = rng(6).standard_normal(30)
        out = np.full(30, np.nan)
        NUMPY.spmv(A, x, out=out)
        assert isinstance(dia_of(A), dict)
        assert out[0] == out[7] == out[8] == out[29] == 0
        assert_matches_to_rounding(out, A, x)
        np.testing.assert_array_equal(NUMPY.spmv(A, x), out)

    def test_non_contiguous_x_and_out(self):
        A = laplace3d(6)
        n = A.n_rows
        base = rng(7).standard_normal((n, 3))  # C order: columns are strided
        x = base[:, 1]
        assert not x.flags.c_contiguous
        expected = NUMPY.spmv(A, np.ascontiguousarray(x))
        assert_matches_to_rounding(expected, A, x)
        np.testing.assert_array_equal(NUMPY.spmv(A, x), expected)
        block = np.full((n, 3), np.nan)
        out = block[:, 2]
        assert not out.flags.c_contiguous
        assert NUMPY.spmv(A, x, out=out) is out
        np.testing.assert_array_equal(block[:, 2], expected)
        assert np.isnan(block[:, :2]).all()  # neighbours untouched

    def test_wrong_lengths_raise(self):
        A = laplace3d(4)
        with pytest.raises(ValueError):
            NUMPY.spmv(A, np.ones(A.n_cols + 1))
        with pytest.raises(ValueError):
            NUMPY.spmv(A, np.ones(A.n_cols), out=np.empty(A.n_rows - 1))


@pytest.mark.usefixtures("sweep_only")
class TestDiaParitySweep(TestDiaParity):
    pass


@pytest.mark.usefixtures("sweep_only")
class TestDiaShapesAndLayoutsSweep(TestDiaShapesAndLayouts):
    pass


def bits(Y: np.ndarray) -> np.ndarray:
    """The raw bits of ``Y``, so ``-0.0`` and NaN payloads compare too."""
    Y = np.asarray(Y)
    return np.ascontiguousarray(Y).view(np.dtype(f"u{Y.dtype.itemsize}"))


def operand(n: int, k: int, layout: str, dtype, seed: int) -> np.ndarray:
    """An ``(n, k)`` block in the given memory layout: Fortran, C, or
    every other row of a wider Fortran block ("strided")."""
    values = rng(seed).uniform(-1, 1, (n, k)).astype(dtype)
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "C":
        return np.ascontiguousarray(values)
    wide = np.asfortranarray(rng(seed).uniform(-1, 1, (2 * n, k)).astype(dtype))
    wide[::2] = values
    return wide[::2]


def both_ways(monkeypatch, product):
    """``product()`` on the compiled kernel, then on the NumPy sweep."""
    fast = product()
    with monkeypatch.context() as m:
        m.setattr(native, "_kernels", {})
        slow = product()
    return fast, slow


@pytest.mark.usefixtures("compiled")
class TestCompiledMatchesSweep:
    @pytest.mark.parametrize("layout", ["F", "C", "strided"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    @pytest.mark.parametrize("problem", sorted(STENCILS))
    def test_spmm_bit_identical(self, monkeypatch, problem, dtype, k, layout):
        A = STENCILS[problem]().astype(np.dtype(dtype).name)
        X = operand(A.n_cols, k, layout, dtype, seed=20 + k)
        out_f = np.empty((A.n_rows, k), dtype=dtype, order="F")
        fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X).copy())
        assert "native" in dia_of(A)
        np.testing.assert_array_equal(bits(fast), bits(slow))
        fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X, out=out_f).copy())
        np.testing.assert_array_equal(bits(fast), bits(slow))
        if k == 1:
            x = X[:, 0]
            fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmv(A, x).copy())
            np.testing.assert_array_equal(bits(fast), bits(slow))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (3000, 2100), (2100, 3000)])
    def test_rectangular_and_empty_rows_bit_identical(self, monkeypatch, shape, dtype):
        A = banded(*shape, offsets=(-900, -3, -1, 0, 2, 5, 700), empty_rows=(0, 7), seed=3)
        A = A.astype(np.dtype(dtype).name)
        for k in (1, 3):
            X = operand(A.n_cols, k, "F", dtype, seed=k)
            fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X).copy())
            np.testing.assert_array_equal(bits(fast), bits(slow))
            assert_matches_to_rounding(fast[:, 0], A, X[:, 0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    @pytest.mark.parametrize(
        "offsets",
        [(-9000, -1, 0, 1, 9000), tuple(range(-6, 6))],
        ids=["far", "12-diagonals"],
    )
    @pytest.mark.parametrize("shape", [(20000, 20000), (20000, 17000), (17000, 20000)])
    def test_multi_chunk_bit_identical(self, monkeypatch, shape, offsets, dtype):
        """Several row chunks, each with its own first diagonal."""
        values = rng(6).standard_normal((len(offsets), max(shape)))
        A = CsrMatrix.from_scipy(
            sp.diags(list(values), list(offsets), shape=shape, format="csr")
        ).astype(np.dtype(dtype).name)
        for k in (1, 8):
            X = operand(A.n_cols, k, "F", dtype, seed=k)
            fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X).copy())
            assert "native" in dia_of(A)
            np.testing.assert_array_equal(bits(fast), bits(slow))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    @pytest.mark.parametrize("n_diags", range(1, 12))
    def test_every_diagonal_count_bit_identical(self, monkeypatch, n_diags, dtype):
        """Up to nine diagonals the kernel sums the rows every diagonal
        covers in registers; the sweep adds one diagonal at a time."""
        gen = rng(n_diags)
        offsets = sorted(gen.choice(np.arange(-700, 700), size=n_diags, replace=False))
        A = banded(3000, 3000, offsets=offsets, seed=n_diags).astype(np.dtype(dtype).name)
        for k in (1, 3):
            X = operand(A.n_cols, k, "F", dtype, seed=k)
            X[[0, 1500, 2999], 0] = [-0.0, np.inf, np.nan]
            fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X).copy())
            assert "native" in dia_of(A)
            np.testing.assert_array_equal(bits(fast), bits(slow))

    def test_signed_zeros_and_non_finite_bit_identical(self, monkeypatch):
        """Rows whose products are all ``-0.0``, and ``inf``/NaN operands:
        the chunk-edge zero fill and ``0 * inf`` land on the same bits."""
        A = banded(2500, 2500, offsets=(-1500, -1, 0, 1, 1200), seed=4)
        x = -np.zeros(A.n_cols)
        x[[5, 2000]] = np.inf
        x[1700] = np.nan
        fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmv(A, x).copy())
        np.testing.assert_array_equal(bits(fast), bits(slow))

    def test_read_only_operand(self, monkeypatch):
        A = uniflow2d(16)
        X = operand(A.n_cols, 2, "F", np.float64, seed=5)
        X.flags.writeable = False
        fast, slow = both_ways(monkeypatch, lambda: NUMPY.spmm(A, X).copy())
        np.testing.assert_array_equal(bits(fast), bits(slow))

    def test_fp16_stays_on_the_sweep(self):
        A = laplace3d(6).astype("half")
        NUMPY.spmv(A, np.ones(A.n_cols, dtype=np.float16))
        assert "native" not in dia_of(A)
        assert native.kernel("dia_spmm", np.dtype(np.float16)) is None


class TestGatherFallback:
    def test_too_many_diagonals_stays_bit_identical(self):
        offsets = tuple(range(-(_DIA_MAX_DIAGONALS // 2) - 1, _DIA_MAX_DIAGONALS // 2 + 1))
        A = banded(120, 120, offsets=offsets, seed=8)
        assert len(offsets) > _DIA_MAX_DIAGONALS
        x = rng(9).standard_normal(120)
        ref = reference(A, x)
        np.testing.assert_array_equal(NUMPY.spmv(A, x), ref)
        out = np.empty(120)
        np.testing.assert_array_equal(NUMPY.spmv(A, x, out=out), ref)
        assert dia_of(A) is False
        X = rng(10).standard_normal((120, 3))
        np.testing.assert_array_equal(
            NUMPY.spmm(A, X, out=np.empty((120, 3))),
            spmm(A.data, A.indices, A.indptr, X),
        )

    def test_dia_plan_skips_gather_index_copy(self):
        A = laplace3d(6)
        x = rng(11).standard_normal(A.n_cols)
        NUMPY.spmv(A, x, out=np.empty(A.n_rows))
        X = np.ones((A.n_cols, 2), order="F")
        NUMPY.spmm(A, X, out=np.empty((A.n_rows, 2), order="F"))
        plan = A.backend_cache[_SPMV_PLAN_KEY]
        assert isinstance(plan["dia"], dict)
        assert "indices" not in plan


@pytest.mark.parametrize("kernel", ["spmv", "spmm"])
def test_concurrent_calls_on_shared_matrix_sweep(kernel, sweep_only):
    test_concurrent_allocating_calls_on_shared_matrix(kernel)


@pytest.mark.parametrize("kernel", ["spmv", "spmm"])
def test_concurrent_allocating_calls_on_shared_matrix(kernel):
    """4 threads × 40 allocating and 40 ``out=`` products on one matrix,
    each thread writing its own output buffer."""
    A = laplace3d(32)
    oracle = sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    n_threads, per_thread = 4, 40
    # C-ordered operands are staged through scratch on the DIA path —
    # exactly the buffers concurrent callers must not share.
    inputs = rng(12).standard_normal((n_threads, A.n_cols, 3))
    barrier = threading.Barrier(n_threads)
    wrong = []
    errors = []

    def operand(t):
        return inputs[t][:, 1] if kernel == "spmv" else inputs[t]

    def worker(t):
        try:
            x = operand(t)
            expected = oracle @ x
            owned = np.empty_like(expected)
            barrier.wait()
            for _ in range(per_thread):
                y = getattr(NUMPY, kernel)(A, x)
                if not np.allclose(y, expected, rtol=1e-12, atol=1e-12):
                    wrong.append(t)
                getattr(NUMPY, kernel)(A, x, out=owned)
                if not np.allclose(owned, expected, rtol=1e-12, atol=1e-12):
                    wrong.append(t)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between NumPy calls often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert not wrong, f"{len(wrong)} wrong results out of {n_threads * per_thread}"
