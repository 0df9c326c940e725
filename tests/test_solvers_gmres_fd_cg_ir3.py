"""Tests for GMRES-FD, CG and the three-precision IR extension."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import ones_rhs
from repro.preconditioners import JacobiPreconditioner
from repro.solvers import (
    SolverStatus,
    cg,
    gmres,
    gmres_fd,
    gmres_ir,
    gmres_ir_three_precision,
)
from tests.conftest import overflowing_laplace3d


class TestGmresFD:
    def test_converges_to_double_accuracy(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres_fd(laplace_small, b, switch_iteration=20, restart=10, tol=1e-10)
        assert result.converged
        assert result.relative_residual_fp64 <= 1e-10
        assert result.x.dtype == np.float64

    def test_switch_at_zero_is_pure_double(self, laplace_small):
        b = ones_rhs(laplace_small)
        fd = gmres_fd(laplace_small, b, switch_iteration=0, restart=10, tol=1e-10)
        double = gmres(laplace_small, b, restart=10, tol=1e-10)
        assert fd.converged
        assert fd.details["high_iterations"] == double.iterations
        assert fd.details.get("low_iterations", 0) == 0

    def test_phase_split_recorded(self, bentpipe_small):
        b = ones_rhs(bentpipe_small)
        result = gmres_fd(bentpipe_small, b, switch_iteration=50, restart=25,
                          tol=1e-9, max_restarts=300)
        assert result.details["switch_iteration"] == 50
        assert result.details["low_iterations"] == 50
        assert result.iterations == 50 + result.details["high_iterations"]

    def test_late_switch_wastes_fp32_iterations(self, laplace_small):
        """Switching far beyond what fp32 can exploit only adds iterations
        (the right-hand side of Figures 1 and 2)."""
        b = ones_rhs(laplace_small)
        double = gmres(laplace_small, b, restart=10, tol=1e-10)
        late = gmres_fd(laplace_small, b, switch_iteration=3 * double.iterations,
                        restart=10, tol=1e-10)
        assert late.converged
        assert late.iterations > double.iterations

    def test_fp32_phase_gives_high_phase_head_start(self, bentpipe_small):
        b = ones_rhs(bentpipe_small)
        double = gmres(bentpipe_small, b, restart=25, tol=1e-9, max_restarts=300)
        fd = gmres_fd(bentpipe_small, b, switch_iteration=100, restart=25, tol=1e-9,
                      max_restarts=300)
        assert fd.converged
        assert fd.details["high_iterations"] < double.iterations

    def test_histories_merged_with_offset(self, laplace_small):
        result = gmres_fd(laplace_small, ones_rhs(laplace_small), switch_iteration=20,
                          restart=10, tol=1e-10)
        its = result.history.implicit_iterations
        assert max(its) <= result.iterations + 1
        assert len(its) == result.iterations

    def test_negative_switch_rejected(self, laplace_small):
        with pytest.raises(ValueError):
            gmres_fd(laplace_small, ones_rhs(laplace_small), switch_iteration=-1)

    def test_preconditioned_fd(self, laplace_small):
        M = JacobiPreconditioner(laplace_small)
        result = gmres_fd(laplace_small, ones_rhs(laplace_small), switch_iteration=10,
                          restart=10, tol=1e-10, preconditioner=M)
        assert result.converged

    @pytest.mark.parametrize("switch_iteration", [0, 10])
    def test_overflowed_arnoldi_norm_ends_in_breakdown(self, switch_iteration):
        A = overflowing_laplace3d(1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            result = gmres_fd(
                A, np.ones(A.n_rows), switch_iteration=switch_iteration, restart=20
            )
        assert result.status is SolverStatus.BREAKDOWN

    def test_solver_label(self, laplace_small):
        result = gmres_fd(laplace_small, ones_rhs(laplace_small), switch_iteration=10,
                          restart=10, tol=1e-8)
        assert result.solver == "gmres-fd"
        assert result.precision == "single->double"


class TestCG:
    def test_spd_convergence_matches_direct(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = cg(laplace_small, b, tol=1e-10)
        assert result.converged
        x_ref = spla.spsolve(laplace_small.to_scipy().tocsc(), b)
        np.testing.assert_allclose(result.x, x_ref, rtol=1e-6)

    def test_cg_fewer_kernel_calls_per_iteration_than_gmres(self, laplace_medium):
        b = ones_rhs(laplace_medium)
        r_cg = cg(laplace_medium, b, tol=1e-8)
        r_gm = gmres(laplace_medium, b, restart=30, tol=1e-8)
        calls_cg = r_cg.timer.total_calls() / max(r_cg.iterations, 1)
        calls_gm = r_gm.timer.total_calls() / max(r_gm.iterations, 1)
        assert calls_cg < calls_gm

    def test_preconditioned_cg(self, stretched_small):
        b = ones_rhs(stretched_small)
        plain = cg(stretched_small, b, tol=1e-8, max_iterations=5000)
        precond = cg(stretched_small, b, tol=1e-8, max_iterations=5000,
                     preconditioner=JacobiPreconditioner(stretched_small))
        assert precond.converged
        assert precond.iterations <= plain.iterations

    def test_fp32_cg_limited_accuracy(self, laplace_medium):
        b = ones_rhs(laplace_medium)
        result = cg(laplace_medium, b, precision="single", tol=1e-12, max_iterations=2000)
        assert not result.converged
        assert result.relative_residual_fp64 > 1e-12

    def test_nonspd_breakdown_detected(self, bentpipe_small):
        # A strongly nonsymmetric operator: pAp can go negative.
        b = ones_rhs(bentpipe_small)
        result = cg(bentpipe_small, b, tol=1e-10, max_iterations=2000)
        assert result.status in (SolverStatus.BREAKDOWN, SolverStatus.MAX_ITERATIONS)

    def test_zero_rhs(self, laplace_small):
        result = cg(laplace_small, np.zeros(laplace_small.n_rows))
        assert result.converged and result.iterations == 0

    def test_explicit_residual_checkpoints(self, laplace_medium):
        result = cg(laplace_medium, ones_rhs(laplace_medium), tol=1e-10,
                    explicit_residual_every=10)
        assert len(result.history.explicit_norms) >= result.iterations // 10

    def test_wrong_rhs_length(self, laplace_small):
        with pytest.raises(ValueError):
            cg(laplace_small, np.ones(7))

    def test_x0_column_block_matches_vector(self, laplace_small):
        # An (n, 1) initial guess is one column, as in gmres.
        n = laplace_small.n_rows
        b = ones_rhs(laplace_small)
        x0 = np.linspace(0.0, 1.0, n)
        as_vector = cg(laplace_small, b, x0=x0, tol=1e-10)
        as_column = cg(laplace_small, b, x0=x0.reshape(n, 1), tol=1e-10)
        assert as_column.x.shape == (n,)
        np.testing.assert_array_equal(as_column.x, as_vector.x)
        assert as_column.iterations == as_vector.iterations

    def test_wrong_x0_length(self, laplace_small):
        n = laplace_small.n_rows
        with pytest.raises(ValueError, match="initial guess has shape"):
            cg(laplace_small, ones_rhs(laplace_small), x0=np.zeros(n + 1))


class TestThreePrecisionIR:
    def test_converges_to_double_accuracy(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres_ir_three_precision(laplace_small, b, restart=20, tol=1e-10,
                                          max_restarts=120)
        assert result.converged
        assert result.relative_residual_fp64 <= 1e-10
        assert result.solver == "gmres-ir3"
        assert result.precision == "half/single/double"

    def test_reports_half_and_fallback_cycle_counts(self, laplace_small):
        result = gmres_ir_three_precision(laplace_small, ones_rhs(laplace_small),
                                          restart=20, tol=1e-8, max_restarts=120)
        details = result.details
        assert details["half_precision_cycles"] + details["fp32_fallback_cycles"] >= 1
        assert details["half_precision_cycles"] >= 0

    def test_ill_conditioned_problem_falls_back_to_fp32(self, stretched_small):
        result = gmres_ir_three_precision(stretched_small, ones_rhs(stretched_small),
                                          restart=20, tol=1e-8, max_restarts=200)
        assert result.details["fp32_fallback_cycles"] >= 0
        assert result.relative_residual_fp64 < 1e-6

    def test_precision_ordering_enforced(self, laplace_small):
        with pytest.raises(ValueError):
            gmres_ir_three_precision(
                laplace_small, ones_rhs(laplace_small),
                inner_precision="double", middle_precision="single",
            )

    def test_zero_rhs(self, laplace_small):
        result = gmres_ir_three_precision(laplace_small, np.zeros(laplace_small.n_rows))
        assert result.converged

    def test_comparable_iterations_to_two_precision_ir(self, laplace_small):
        b = ones_rhs(laplace_small)
        two = gmres_ir(laplace_small, b, restart=20, tol=1e-8)
        three = gmres_ir_three_precision(laplace_small, b, restart=20, tol=1e-8,
                                         max_restarts=120)
        assert three.converged
        assert three.iterations <= 4 * two.iterations
