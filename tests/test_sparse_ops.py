"""Tests for the raw CSR kernels (spmv/spmm, coo→csr, block-diagonal extraction).

The raw-array kernels under test are the *reference implementations* in
:mod:`repro.backends.numpy_backend`; :mod:`repro.sparse.ops` keeps only
the structural utilities.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.numpy_backend import spmm, spmv, spmv_transpose
from repro.config import rng
from repro.sparse.ops import coo_to_csr, extract_block_diagonal


def random_scipy(n_rows, n_cols, density, seed):
    return sp.random(
        n_rows, n_cols, density=density, random_state=rng(seed), format="csr"
    )


class TestSpmv:
    def test_matches_scipy_on_random_matrices(self):
        for seed in range(5):
            A = random_scipy(60, 40, 0.1, seed)
            x = rng(seed).standard_normal(40)
            y = spmv(A.data, A.indices, A.indptr, x)
            np.testing.assert_allclose(y, A @ x, rtol=1e-13)

    def test_empty_rows_give_zero(self):
        # Row 1 and the trailing row are empty.
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
        y = spmv(A.data, A.indices, A.indptr, np.array([1.0, 1.0]))
        np.testing.assert_allclose(y, [3.0, 0.0, 3.0, 0.0])

    def test_all_empty_matrix(self):
        A = sp.csr_matrix((3, 3))
        y = spmv(A.data, A.indices, A.indptr, np.ones(3))
        np.testing.assert_allclose(y, np.zeros(3))

    def test_preserves_fp32_dtype(self):
        A = random_scipy(30, 30, 0.2, 1).astype(np.float32)
        x = np.ones(30, dtype=np.float32)
        y = spmv(A.data, A.indices, A.indptr, x)
        assert y.dtype == np.float32

    def test_out_parameter(self):
        A = random_scipy(20, 20, 0.3, 2)
        x = np.ones(20)
        out = np.empty(20)
        y = spmv(A.data, A.indices, A.indptr, x, out=out)
        assert y is out
        np.testing.assert_allclose(out, A @ x)

    def test_out_wrong_length(self):
        A = random_scipy(20, 20, 0.3, 2)
        with pytest.raises(ValueError):
            spmv(A.data, A.indices, A.indptr, np.ones(20), out=np.empty(5))

    @given(
        n=st.integers(min_value=1, max_value=40),
        m=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
        density=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_scipy(self, n, m, seed, density):
        A = random_scipy(n, m, density, seed)
        x = rng(seed).standard_normal(m)
        y = spmv(A.data, A.indices, A.indptr, x)
        np.testing.assert_allclose(y, A @ x, rtol=1e-10, atol=1e-12)


class TestSpmm:
    def test_matches_scipy_on_random_matrices(self):
        for seed in range(3):
            A = random_scipy(40, 30, 0.12, seed)
            X = rng(seed).standard_normal((30, 5))
            Y = spmm(A.data, A.indices, A.indptr, X)
            np.testing.assert_allclose(Y, A @ X, rtol=1e-12)

    def test_columns_match_spmv(self):
        A = random_scipy(35, 35, 0.1, 7)
        X = rng(7).standard_normal((35, 4))
        Y = spmm(A.data, A.indices, A.indptr, X)
        for j in range(4):
            np.testing.assert_allclose(
                Y[:, j], spmv(A.data, A.indices, A.indptr, X[:, j].copy()), rtol=1e-13
            )

    def test_empty_rows_and_empty_matrix(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 3.0]]))
        X = np.array([[1.0, -1.0], [1.0, 2.0]])
        Y = spmm(A.data, A.indices, A.indptr, X)
        np.testing.assert_allclose(Y, A @ X)
        empty = sp.csr_matrix((4, 2))
        np.testing.assert_allclose(
            spmm(empty.data, empty.indices, empty.indptr, X), np.zeros((4, 2))
        )

    def test_preserves_fp32_dtype(self):
        A = random_scipy(20, 20, 0.2, 1).astype(np.float32)
        X = np.ones((20, 3), dtype=np.float32)
        assert spmm(A.data, A.indices, A.indptr, X).dtype == np.float32

    def test_out_parameter_and_validation(self):
        A = random_scipy(15, 15, 0.25, 2)
        X = np.ones((15, 2))
        out = np.empty((15, 2))
        Y = spmm(A.data, A.indices, A.indptr, X, out=out)
        assert Y is out
        with pytest.raises(ValueError):
            spmm(A.data, A.indices, A.indptr, X, out=np.empty((15, 3)))
        with pytest.raises(ValueError):
            spmm(A.data, A.indices, A.indptr, np.ones(15))


class TestSpmvTranspose:
    def test_matches_scipy(self):
        A = random_scipy(25, 35, 0.15, 3)
        x = rng(3).standard_normal(25)
        y = spmv_transpose(A.data, A.indices, A.indptr, x, 35)
        np.testing.assert_allclose(y, A.T @ x, rtol=1e-12)

    def test_wrong_x_length(self):
        A = random_scipy(10, 10, 0.2, 4)
        with pytest.raises(ValueError):
            spmv_transpose(A.data, A.indices, A.indptr, np.ones(11), 10)


class TestCooToCsr:
    def test_simple_conversion(self):
        rows = np.array([1, 0, 1])
        cols = np.array([0, 1, 2])
        vals = np.array([3.0, 2.0, 4.0])
        data, indices, indptr = coo_to_csr(rows, cols, vals, (2, 3))
        np.testing.assert_array_equal(indptr, [0, 1, 3])
        np.testing.assert_array_equal(indices, [1, 0, 2])
        np.testing.assert_allclose(data, [2.0, 3.0, 4.0])

    def test_duplicates_summed(self):
        rows = np.array([0, 0, 0])
        cols = np.array([1, 1, 1])
        vals = np.array([1.0, 2.0, 3.0])
        data, indices, indptr = coo_to_csr(rows, cols, vals, (1, 2))
        np.testing.assert_allclose(data, [6.0])
        np.testing.assert_array_equal(indices, [1])

    def test_empty_input(self):
        data, indices, indptr = coo_to_csr(
            np.array([], dtype=int), np.array([], dtype=int), np.array([]), (3, 3)
        )
        assert data.size == 0
        np.testing.assert_array_equal(indptr, [0, 0, 0, 0])

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError):
            coo_to_csr(np.array([5]), np.array([0]), np.array([1.0]), (3, 3))
        with pytest.raises(ValueError):
            coo_to_csr(np.array([0]), np.array([9]), np.array([1.0]), (3, 3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coo_to_csr(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    @given(
        n=st.integers(min_value=1, max_value=15),
        nnz=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_scipy_coo(self, n, nnz, seed):
        gen = rng(seed)
        rows = gen.integers(0, n, size=nnz)
        cols = gen.integers(0, n, size=nnz)
        vals = gen.standard_normal(nnz)
        data, indices, indptr = coo_to_csr(rows, cols, vals, (n, n))
        ours = sp.csr_matrix((data, indices, indptr), shape=(n, n)).toarray()
        ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-14)


class TestExtractBlockDiagonal:
    def test_exact_blocks(self):
        D = np.array(
            [
                [1.0, 2.0, 0.0, 0.0],
                [3.0, 4.0, 0.0, 0.0],
                [9.0, 0.0, 5.0, 6.0],
                [0.0, 0.0, 7.0, 8.0],
            ]
        )
        A = sp.csr_matrix(D)
        blocks = extract_block_diagonal(A.data, A.indices, A.indptr, 4, 2)
        assert blocks.shape == (2, 2, 2)
        np.testing.assert_allclose(blocks[0], [[1, 2], [3, 4]])
        np.testing.assert_allclose(blocks[1], [[5, 6], [7, 8]])

    def test_padding_of_short_last_block(self):
        D = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        A = sp.csr_matrix(D)
        blocks = extract_block_diagonal(A.data, A.indices, A.indptr, 5, 2)
        assert blocks.shape == (3, 2, 2)
        # Padded diagonal entry must be 1 so the block stays invertible.
        np.testing.assert_allclose(blocks[2], [[5.0, 0.0], [0.0, 1.0]])

    def test_block_size_one_is_diagonal(self, laplace_small):
        blocks = extract_block_diagonal(
            laplace_small.data, laplace_small.indices, laplace_small.indptr,
            laplace_small.n_rows, 1,
        )
        np.testing.assert_allclose(blocks[:, 0, 0], laplace_small.diagonal())

    def test_invalid_block_size(self, laplace_small):
        with pytest.raises(ValueError):
            extract_block_diagonal(
                laplace_small.data, laplace_small.indices, laplace_small.indptr,
                laplace_small.n_rows, 0,
            )

    def test_preserves_dtype(self, laplace_small):
        A32 = laplace_small.astype("single")
        blocks = extract_block_diagonal(A32.data, A32.indices, A32.indptr, A32.n_rows, 5)
        assert blocks.dtype == np.float32
