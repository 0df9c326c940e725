"""The per-thread scratch arena (:mod:`repro.scratch`).

Operators keep no kernel temporaries of their own, so these pin:

* the arena itself: one grow-only buffer per ``(tag, dtype)`` and thread,
  distinct tags never overlap, other threads get other memory;
* every scratch-using preconditioner returns fresh results from
  ``apply(v)`` (``out=None``) that later applications leave untouched;
* a zero-padded block-Jacobi re-zeroes its tail, so two instances of
  different ``n`` can alternate on one thread;
* the polynomial's scratch is sized by the widest block seen, so
  narrower blocks and vectors afterwards allocate nothing.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.config import rng, set_config
from repro.linalg.context import set_context
from repro.matrices import laplace2d, laplace3d
from repro.preconditioners.block_jacobi import BlockJacobiPreconditioner
from repro.preconditioners.mixed import PrecisionWrappedPreconditioner
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.scratch import scratch
from tests.conftest import dense


class TestArena:
    def test_same_tag_reuses_memory_and_grows_only(self):
        big = scratch("test.a", np.float64, (4, 8))
        small = scratch("test.a", np.float64, 5)
        assert small.shape == (5,) and np.shares_memory(big, small)
        again = scratch("test.a", np.float64, (4, 8))
        assert np.shares_memory(big, again)
        grown = scratch("test.a", np.float64, 100)
        assert not np.shares_memory(big, grown)

    def test_tags_and_dtypes_never_overlap(self):
        a = scratch("test.x", np.float64, 16)
        b = scratch("test.y", np.float64, 16)
        c = scratch("test.x", np.float32, 16)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, c)
        assert scratch("test.x", np.dtype("float64"), 16).base is a.base

    def test_fortran_order_view(self):
        block = scratch("test.f", np.float32, (6, 3), order="F")
        assert block.flags.f_contiguous and block.dtype == np.float32
        assert block.shape == (6, 3)

    def test_threads_get_private_buffers(self):
        mine = scratch("test.t", np.float64, 32)
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(scratch("test.t", np.float64, 32)))
        t.start()
        t.join(timeout=10)
        assert not np.shares_memory(mine, theirs[0])


def _preconditioners():
    A = laplace2d(7)  # n = 49: SPD, and ragged for block size 4
    return [
        GmresPolynomialPreconditioner(A, degree=6),
        GmresPolynomialPreconditioner(A, degree=6, apply_method="power"),
        BlockJacobiPreconditioner(A, block_size=4),
        PrecisionWrappedPreconditioner(
            GmresPolynomialPreconditioner(A, degree=6, precision="single"),
            outer_precision="double",
        ),
    ]


@pytest.mark.parametrize("precond", _preconditioners(), ids=lambda p: p.name)
def test_allocating_apply_returns_fresh_results(precond):
    v1, v2, v3 = (rng(seed).standard_normal(49) for seed in (1, 2, 3))
    r1 = precond.apply(v1)
    r2 = precond.apply(v2)
    assert not np.shares_memory(r1, r2)
    kept1, kept2 = r1.copy(), r2.copy()
    r3 = precond.apply(v3)
    assert not np.shares_memory(r3, r1) and not np.shares_memory(r3, r2)
    np.testing.assert_array_equal(r1, kept1)
    np.testing.assert_array_equal(r2, kept2)
    np.testing.assert_array_equal(precond.apply(v1, out=np.empty(49)), kept1)


def _block_jacobi_oracle(matrix, block_size):
    """Dense block-diagonal inverse built block by block."""
    D = dense(matrix)
    M = np.zeros_like(D)
    for lo in range(0, D.shape[0], block_size):
        hi = min(lo + block_size, D.shape[0])
        M[lo:hi, lo:hi] = np.linalg.inv(D[lo:hi, lo:hi])
    return M


def test_block_jacobi_instances_of_different_n_alternate():
    """Both pad to 52 rows; the larger one leaves an ``inf`` at row 49,
    inside the smaller one's padding, which must not leak into its
    trailing block (``0 * inf`` would be ``NaN``)."""
    big_matrix, small_matrix = laplace2d(5, 10), laplace2d(7)
    big = BlockJacobiPreconditioner(big_matrix, block_size=4)
    small = BlockJacobiPreconditioner(small_matrix, block_size=4)
    big_oracle = _block_jacobi_oracle(big_matrix, 4)
    small_oracle = _block_jacobi_oracle(small_matrix, 4)
    for seed in range(3):
        x_big = rng(seed).standard_normal(50)
        x_big[49] = np.inf
        x_small = rng(seed + 10).standard_normal(49)
        with np.errstate(invalid="ignore"):
            y_big = big.apply(x_big, out=np.empty(50))
        np.testing.assert_allclose(
            y_big[:48], big_oracle[:48, :48] @ x_big[:48], rtol=1e-12
        )
        y_small = small.apply(x_small, out=np.empty(49))
        assert np.all(np.isfinite(y_small))
        np.testing.assert_allclose(y_small, small_oracle @ x_small, rtol=1e-12)


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
def test_narrower_poly_blocks_reuse_the_widest_scratch(backend):
    set_config(backend=backend)
    set_context(meter=False)
    # n = 8000: one fp64 column is 64 KB.  (Below ~8192 elements NumPy
    # buffers strided 2-D ufunc operands, a transient the DIA SpMM has
    # at any width.)
    A = laplace3d(20)
    n = A.n_rows
    poly = GmresPolynomialPreconditioner(A, degree=8)
    blocks = {k: np.asfortranarray(rng(k).standard_normal((n, k))) for k in range(1, 9)}
    outs = {k: np.empty((n, k), order="F") for k in range(1, 9)}
    vector, vector_out = np.ascontiguousarray(blocks[1][:, 0]), np.empty(n)
    poly.apply_block(blocks[8], out=outs[8])

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for k in range(1, 8):
            poly.apply_block(blocks[k], out=outs[k])
        # The vector apply runs the same recurrence on the same scratch.
        poly.apply(vector, out=vector_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < n * 8 // 2, f"{peak - before} B allocated at widths 1-7 and 1-D"
