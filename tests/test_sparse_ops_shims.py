"""Dedicated pin of the deprecated raw-kernel shims in ``repro.sparse.ops``.

The computational kernels that used to live in ``sparse/ops.py`` are
deprecation shims since PR 3: they must (1) emit a ``DeprecationWarning``,
(2) produce exactly what the *active* backend produces for the same raw
arrays — including when a non-default backend is scoped in — and (3) not
spam the warning on every call under default warning filters (the
``"default"`` action shows one warning per call site, so a loop that hits
a shim thousands of times logs it once).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import rng
from repro.linalg.context import use_backend
from repro.matrices import bentpipe2d
from repro.sparse import ops


@pytest.fixture(scope="module")
def matrix():
    return bentpipe2d(12)  # n = 144, nonsymmetric


@pytest.fixture(scope="module")
def arrays(matrix):
    return matrix.data, matrix.indices, matrix.indptr


class TestWarningEmitted:
    def test_spmv_warns(self, matrix, arrays):
        data, indices, indptr = arrays
        with pytest.warns(DeprecationWarning, match="spmv is deprecated"):
            ops.spmv(data, indices, indptr, np.ones(matrix.n_cols))

    def test_spmv_transpose_warns(self, matrix, arrays):
        data, indices, indptr = arrays
        with pytest.warns(DeprecationWarning, match="spmv_transpose is deprecated"):
            ops.spmv_transpose(
                data, indices, indptr, np.ones(matrix.n_rows), matrix.n_cols
            )

    def test_spmm_warns(self, matrix, arrays):
        data, indices, indptr = arrays
        with pytest.warns(DeprecationWarning, match="spmm is deprecated"):
            ops.spmm(data, indices, indptr, np.ones((matrix.n_cols, 3)))

    def test_warning_names_the_replacement(self, matrix, arrays):
        data, indices, indptr = arrays
        with pytest.warns(DeprecationWarning, match="CsrMatrix"):
            ops.spmv(data, indices, indptr, np.ones(matrix.n_cols))


class TestBackendParity:
    """Shim output == active backend output, bit for bit, on both backends."""

    @pytest.mark.parametrize("backend_name", ["numpy", "scipy"])
    def test_spmv_matches_active_backend(self, matrix, arrays, backend_name):
        data, indices, indptr = arrays
        x = rng(3).standard_normal(matrix.n_cols)
        with use_backend(backend_name), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            shim = ops.spmv(data, indices, indptr, x)
        expected = get_backend(backend_name).spmv(matrix, x)
        # As for spmm below: the shim's cache-free view takes the
        # plan-free path, the real matrix the DIA plan — parity to rounding.
        np.testing.assert_allclose(shim, expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("backend_name", ["numpy", "scipy"])
    def test_spmv_transpose_matches_active_backend(self, matrix, arrays, backend_name):
        data, indices, indptr = arrays
        x = rng(4).standard_normal(matrix.n_rows)
        with use_backend(backend_name), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            shim = ops.spmv_transpose(data, indices, indptr, x, matrix.n_cols)
        expected = get_backend(backend_name).spmv_transpose(matrix, x)
        np.testing.assert_array_equal(shim, expected)

    @pytest.mark.parametrize("backend_name", ["numpy", "scipy"])
    def test_spmm_matches_active_backend(self, matrix, arrays, backend_name):
        data, indices, indptr = arrays
        X = np.asfortranarray(rng(5).standard_normal((matrix.n_cols, 4)))
        with use_backend(backend_name), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            shim = ops.spmm(data, indices, indptr, X)
        expected = get_backend(backend_name).spmm(matrix, X)
        # The shim's throwaway CSR view carries no backend cache, so the
        # NumPy backend takes its plan-free path while a real matrix may
        # use the cached DIA plan — same kernel, different summation
        # order, so parity is to rounding rather than bit-exact.
        np.testing.assert_allclose(shim, expected, rtol=1e-13, atol=1e-13)

    def test_shim_respects_out_buffer(self, matrix, arrays):
        data, indices, indptr = arrays
        x = rng(6).standard_normal(matrix.n_cols)
        out = np.empty(matrix.n_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            result = ops.spmv(data, indices, indptr, x, out=out)
        assert result is out


class TestNoWarningSpam:
    def test_repeated_calls_warn_once_per_call_site(self, matrix, arrays):
        """Under the default filter, a hot loop logs the shim warning once.

        ``warnings.warn`` uses ``stacklevel=3`` so the warning is
        attributed to the *caller's* line; Python's ``"default"`` action
        dedupes per (message, category, call site) via the caller module's
        ``__warningregistry__``.
        """
        data, indices, indptr = arrays
        x = np.ones(matrix.n_cols)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", DeprecationWarning)
            for _ in range(50):
                ops.spmv(data, indices, indptr, x)
        spmv_warnings = [w for w in caught if "spmv is deprecated" in str(w.message)]
        assert len(spmv_warnings) == 1

    def test_distinct_shims_each_warn(self, matrix, arrays):
        data, indices, indptr = arrays
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", DeprecationWarning)
            for _ in range(5):
                ops.spmv(data, indices, indptr, np.ones(matrix.n_cols))
                ops.spmm(data, indices, indptr, np.ones((matrix.n_cols, 2)))
        messages = sorted({str(w.message).split(" is deprecated")[0] for w in caught})
        assert messages == ["repro.sparse.ops.spmm", "repro.sparse.ops.spmv"]
        assert len(caught) == 2
