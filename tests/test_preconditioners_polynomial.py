"""Tests for the GMRES-polynomial preconditioner."""

import numpy as np
import pytest

from repro.perfmodel.timer import use_timer
from repro.preconditioners import GmresPolynomialPreconditioner
from repro.preconditioners.polynomial import harmonic_ritz_values, leja_order
from repro.solvers import gmres
from repro import ones_rhs
from tests.conftest import dense


def apply_as_matrix(precond, n):
    """Materialise a preconditioner as a dense matrix by applying it to e_j."""
    P = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n, dtype=precond.precision.dtype)
        e[j] = 1.0
        P[:, j] = precond.apply(e)
    return P


class TestHarmonicRitz:
    def test_symmetric_matrix_real_values_within_spectrum(self, laplace_small):
        M = GmresPolynomialPreconditioner(laplace_small, degree=8)
        roots = M.roots
        eigs = np.linalg.eigvalsh(dense(laplace_small))
        assert np.max(np.abs(roots.imag)) < 1e-8
        assert roots.real.min() > 0
        assert roots.real.max() <= eigs.max() * 1.0001

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            harmonic_ritz_values(np.ones((3, 3)))

    def test_degree_one(self, laplace_small):
        M = GmresPolynomialPreconditioner(laplace_small, degree=1)
        assert M.roots.size == 1


class TestLejaOrder:
    def test_starts_with_largest_magnitude(self):
        roots = np.array([1.0, 5.0, 3.0, 0.5])
        ordered = leja_order(roots)
        assert ordered[0] == 5.0

    def test_is_a_permutation(self, rng):
        roots = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ordered = leja_order(roots)
        np.testing.assert_allclose(
            np.sort_complex(ordered), np.sort_complex(roots)
        )

    def test_conjugate_pairs_adjacent(self):
        roots = np.array([2.0 + 1.0j, 0.5, 2.0 - 1.0j, 3.0, 1.0 + 0.5j, 1.0 - 0.5j])
        ordered = leja_order(roots)
        i = 0
        while i < len(ordered):
            if abs(ordered[i].imag) > 1e-12:
                assert ordered[i + 1] == pytest.approx(np.conj(ordered[i]))
                i += 2
            else:
                i += 1

    def test_empty(self):
        assert leja_order(np.array([])).size == 0


class TestGmresPolynomial:
    def test_residual_polynomial_identity(self, laplace_small):
        """I - A p(A) must equal prod (I - A/theta_i) — the defining property."""
        M = GmresPolynomialPreconditioner(laplace_small, degree=6)
        A = dense(laplace_small)
        P = apply_as_matrix(M, laplace_small.n_rows)
        phi = np.eye(laplace_small.n_rows)
        for theta in M.roots:
            phi = phi @ (np.eye(laplace_small.n_rows) - A / theta)
        np.testing.assert_allclose(np.eye(laplace_small.n_rows) - A @ P, np.real(phi), atol=1e-10)

    def test_power_form_matches_root_form(self, laplace_small, rng):
        seed = rng.standard_normal(laplace_small.n_rows)
        M_roots = GmresPolynomialPreconditioner(laplace_small, degree=5, seed=seed)
        M_power = GmresPolynomialPreconditioner(
            laplace_small, degree=5, seed=seed, apply_method="power"
        )
        x = rng.standard_normal(laplace_small.n_rows)
        np.testing.assert_allclose(M_roots.apply(x), M_power.apply(x), rtol=1e-8)

    def test_nonsymmetric_matrix_complex_pairs_real_result(self, bentpipe_small, rng):
        M = GmresPolynomialPreconditioner(bentpipe_small, degree=8)
        assert np.any(np.abs(M.roots.imag) > 0) or True  # roots may be complex
        x = rng.standard_normal(bentpipe_small.n_rows)
        y = M.apply(x)
        assert y.dtype == np.float64
        assert np.all(np.isfinite(y))

    def test_reduces_gmres_iterations(self, stretched_small):
        b = ones_rhs(stretched_small)
        plain = gmres(stretched_small, b, restart=20, tol=1e-8, max_restarts=100)
        M = GmresPolynomialPreconditioner(stretched_small, degree=8)
        precond = gmres(
            stretched_small, b, restart=20, tol=1e-8, max_restarts=100, preconditioner=M
        )
        assert precond.converged
        assert precond.iterations < plain.iterations / 2

    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("degree", [3, 5, 7, 8, 16])
    def test_spmv_count_per_apply(self, laplace_small, rng, method, degree):
        M = GmresPolynomialPreconditioner(laplace_small, degree=degree, apply_method=method)
        with use_timer(name="t") as timer:
            M.apply(rng.standard_normal(laplace_small.n_rows))
        assert timer.calls_by_label()["SpMV"] == M.spmvs_per_apply()
        assert M.spmvs_per_apply() <= degree

    @pytest.mark.parametrize("method", ["roots", "power"])
    @pytest.mark.parametrize("degree", [3, 5, 7, 8, 16])
    def test_spmm_count_per_apply_block(self, laplace_small, rng, method, degree):
        M = GmresPolynomialPreconditioner(laplace_small, degree=degree, apply_method=method)
        with use_timer(name="t") as timer:
            M.apply_block(rng.standard_normal((laplace_small.n_rows, 3)))
        assert timer.calls_by_label()["SpMM"] == M.spmvs_per_apply()
        assert "SpMV" not in timer.calls_by_label()

    def test_fp32_polynomial_storage_and_apply(self, laplace_small):
        M = GmresPolynomialPreconditioner(laplace_small, degree=5, precision="single")
        assert M.matrix.dtype == np.float32
        x = np.ones(laplace_small.n_rows, dtype=np.float32)
        assert M.apply(x).dtype == np.float32

    def test_fp32_apply_requires_fp32_vector(self, laplace_small):
        M = GmresPolynomialPreconditioner(laplace_small, degree=5, precision="single")
        with pytest.raises(TypeError):
            M.apply(np.ones(laplace_small.n_rows))

    def test_setup_seconds_tracked(self, laplace_small):
        M = GmresPolynomialPreconditioner(laplace_small, degree=5)
        assert M.setup_seconds() > 0

    def test_lucky_breakdown_reduces_degree(self):
        """On a matrix with tiny minimal polynomial degree, Arnoldi breaks down
        early and the polynomial degree is truncated accordingly."""
        from repro.sparse import CsrMatrix

        A = CsrMatrix.identity(20)
        M = GmresPolynomialPreconditioner(A, degree=10)
        assert M.degree <= 2
        x = np.ones(20)
        np.testing.assert_allclose(M.apply(x), x, rtol=1e-10)

    def test_invalid_parameters(self, laplace_small):
        with pytest.raises(ValueError):
            GmresPolynomialPreconditioner(laplace_small, degree=0)
        with pytest.raises(ValueError):
            GmresPolynomialPreconditioner(laplace_small, degree=3, apply_method="horner")
        with pytest.raises(ValueError):
            GmresPolynomialPreconditioner(laplace_small, degree=3, seed=np.zeros(laplace_small.n_rows))

