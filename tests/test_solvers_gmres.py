"""Tests for restarted GMRES (Algorithm 1 of the paper)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import ones_rhs
from repro.perfmodel.timer import KernelTimer, use_timer
from repro.preconditioners import GmresPolynomialPreconditioner, JacobiPreconditioner
from repro.solvers import SolverStatus, gmres
from repro.solvers.gmres import GmresWorkspace, run_cycle
from repro.ortho import make_ortho_manager
from repro.preconditioners.base import IdentityPreconditioner
from tests.conftest import overflowing_laplace3d


def direct_solution(matrix, b):
    return spla.spsolve(matrix.to_scipy().tocsc(), b)


class TestConvergence:
    def test_spd_problem_converges_to_tolerance(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres(laplace_small, b, restart=20, tol=1e-10)
        assert result.converged
        assert result.status == SolverStatus.CONVERGED
        assert result.relative_residual <= 1e-10
        np.testing.assert_allclose(result.x, direct_solution(laplace_small, b), rtol=1e-7)

    def test_nonsymmetric_problem(self, bentpipe_small):
        b = ones_rhs(bentpipe_small)
        result = gmres(bentpipe_small, b, restart=25, tol=1e-9, max_restarts=200)
        assert result.converged
        np.testing.assert_allclose(result.x, direct_solution(bentpipe_small, b), rtol=1e-5)

    def test_random_diagonally_dominant(self, random_sparse, rng):
        b = rng.standard_normal(random_sparse.n_rows)
        result = gmres(random_sparse, b, restart=30, tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, direct_solution(random_sparse, b), rtol=1e-8)

    def test_residual_reported_matches_recomputed(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres(laplace_small, b, restart=20, tol=1e-10)
        explicit = np.linalg.norm(b - laplace_small.matvec(result.x)) / np.linalg.norm(b)
        assert result.relative_residual == pytest.approx(explicit, rel=1e-6)
        assert result.relative_residual_fp64 == pytest.approx(explicit, rel=1e-6)

    def test_initial_guess_used(self, laplace_small):
        b = ones_rhs(laplace_small)
        x_exact = direct_solution(laplace_small, b)
        result = gmres(laplace_small, b, x0=x_exact, restart=20, tol=1e-10)
        assert result.converged
        assert result.iterations == 0

    def test_zero_rhs_returns_zero(self, laplace_small):
        result = gmres(laplace_small, np.zeros(laplace_small.n_rows))
        assert result.converged
        np.testing.assert_allclose(result.x, 0.0)
        assert result.iterations == 0

    def test_tight_vs_loose_tolerance(self, laplace_small):
        b = ones_rhs(laplace_small)
        loose = gmres(laplace_small, b, restart=20, tol=1e-4)
        tight = gmres(laplace_small, b, restart=20, tol=1e-12)
        assert loose.iterations < tight.iterations
        assert loose.relative_residual <= 1e-4

    def test_unrestarted_matches_scipy_iteration_count_roughly(self, laplace_small):
        """Full GMRES (restart >= n) should converge in about as many
        iterations as scipy's gmres with the same setup."""
        b = ones_rhs(laplace_small)
        ours = gmres(laplace_small, b, restart=100, tol=1e-10)
        count = [0]

        def cb(_):
            count[0] += 1

        spla.gmres(
            laplace_small.to_scipy(), b, rtol=1e-10, restart=100, callback=cb,
            callback_type="pr_norm", maxiter=10,
        )
        assert abs(ours.iterations - count[0]) <= 10


class TestRestartBehaviour:
    def test_smaller_restart_needs_more_iterations(self, bentpipe_small):
        b = ones_rhs(bentpipe_small)
        small = gmres(bentpipe_small, b, restart=10, tol=1e-8, max_restarts=400)
        large = gmres(bentpipe_small, b, restart=60, tol=1e-8, max_restarts=400)
        assert small.converged and large.converged
        assert small.iterations >= large.iterations
        assert small.restarts > large.restarts

    def test_restart_cap_respected(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres(laplace_small, b, restart=5, tol=1e-14, max_restarts=2)
        assert result.restarts <= 2
        assert result.status in (SolverStatus.MAX_ITERATIONS, SolverStatus.CONVERGED)

    def test_max_iterations_cap(self, bentpipe_small):
        b = ones_rhs(bentpipe_small)
        result = gmres(bentpipe_small, b, restart=20, tol=1e-12, max_iterations=37)
        assert result.iterations <= 40  # rounded up to the cycle boundary
        assert result.status == SolverStatus.MAX_ITERATIONS

    def test_details_record_configuration(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=17, tol=1e-8)
        assert result.details["restart"] == 17
        assert result.details["orthogonalization"] == "cgs2"
        assert result.details["preconditioner"] == "identity"
        assert result.details["basis_bytes"] == laplace_small.n_rows * 18 * 8


class TestPrecision:
    def test_fp32_solver_stagnates_above_fp64_tolerance(self, bentpipe_small):
        """The paper's central observation about single precision GMRES."""
        b = ones_rhs(bentpipe_small)
        result = gmres(
            bentpipe_small, b, precision="single", restart=25, tol=1e-10, max_restarts=100
        )
        assert not result.converged
        assert result.status == SolverStatus.MAX_ITERATIONS
        assert 1e-8 < result.relative_residual_fp64 < 1e-3

    def test_fp32_solver_reaches_fp32_level_tolerance(self, laplace_small):
        b = ones_rhs(laplace_small)
        result = gmres(laplace_small, b, precision="single", restart=20, tol=1e-5)
        assert result.converged
        assert result.x.dtype == np.float32

    def test_precision_defaults_to_matrix_dtype(self, laplace_small):
        result = gmres(laplace_small.astype("single"), ones_rhs(laplace_small), tol=1e-4,
                       restart=20)
        assert result.precision == "single"

    def test_solution_dtype_matches_precision(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), precision="double",
                       restart=20, tol=1e-8)
        assert result.x.dtype == np.float64


class TestPreconditionedGmres:
    def test_right_preconditioning_preserves_solution(self, stretched_small):
        b = ones_rhs(stretched_small)
        M = GmresPolynomialPreconditioner(stretched_small, degree=6)
        result = gmres(stretched_small, b, restart=20, tol=1e-10, preconditioner=M)
        assert result.converged
        np.testing.assert_allclose(result.x, direct_solution(stretched_small, b), rtol=1e-6)

    def test_mixed_precision_preconditioner_wrapped_automatically(self, laplace_small):
        # fp32 preconditioner inside fp64 GMRES: converges to fp32-limited
        # tolerances (the paper's configuration (a); pushing to 1e-10 on a
        # single cycle is exactly what Section V-F warns about).
        b = ones_rhs(laplace_small)
        M32 = JacobiPreconditioner(laplace_small, precision="single")
        result = gmres(laplace_small, b, restart=20, tol=1e-6, preconditioner=M32)
        assert result.converged
        assert "jacobi" in result.details["preconditioner"]

    def test_preconditioner_kernel_time_recorded(self, laplace_small):
        b = ones_rhs(laplace_small)
        M = JacobiPreconditioner(laplace_small)
        result = gmres(laplace_small, b, restart=20, tol=1e-8, preconditioner=M)
        assert result.timer.model_seconds_for("Precond") > 0


class TestOrthogonalizationChoices:
    @pytest.mark.parametrize("ortho", ["cgs", "cgs2", "mgs"])
    def test_all_orthos_converge(self, laplace_small, ortho):
        b = ones_rhs(laplace_small)
        result = gmres(laplace_small, b, restart=20, tol=1e-10, ortho=ortho)
        assert result.converged
        assert result.details["orthogonalization"] == ortho if ortho != "cgs1" else "cgs"

    def test_ortho_manager_instance_accepted(self, laplace_small):
        result = gmres(
            laplace_small, ones_rhs(laplace_small), restart=20, tol=1e-8,
            ortho=make_ortho_manager("mgs"),
        )
        assert result.converged

    def test_cgs2_fewer_kernel_calls_than_mgs(self, laplace_small):
        b = ones_rhs(laplace_small)
        r_cgs2 = gmres(laplace_small, b, restart=20, tol=1e-8, ortho="cgs2")
        r_mgs = gmres(laplace_small, b, restart=20, tol=1e-8, ortho="mgs")
        assert r_cgs2.timer.total_calls() < r_mgs.timer.total_calls()


class TestHistoriesAndTimers:
    def test_history_has_implicit_and_explicit_series(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=10, tol=1e-10)
        assert len(result.history.implicit_norms) == result.iterations
        assert len(result.history.explicit_norms) == result.restarts + 1
        assert result.history.implicit_series().shape[1] == 2

    def test_implicit_norms_decrease_within_cycle(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=50, tol=1e-10)
        norms = result.history.implicit_norms[:result.details["restart"]]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_external_timer_receives_records(self, laplace_small):
        timer = KernelTimer("external")
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=20, tol=1e-8, timer=timer)
        assert result.timer is timer
        assert timer.model_seconds_for("SpMV") > 0

    def test_enclosing_timer_sees_solver_kernels(self, laplace_small):
        with use_timer(name="outer") as outer:
            gmres(laplace_small, ones_rhs(laplace_small), restart=20, tol=1e-8)
        assert outer.model_seconds_for("SpMV") > 0

    def test_kernel_breakdown_covers_expected_labels(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=20, tol=1e-8)
        breakdown = result.kernel_breakdown()
        for label in ("SpMV", "GEMV (Trans)", "GEMV (No Trans)", "Norm", "Other"):
            assert breakdown.get(label, 0) > 0

    def test_summary_text(self, laplace_small):
        result = gmres(laplace_small, ones_rhs(laplace_small), restart=20, tol=1e-8)
        text = result.summary()
        assert "gmres" in text and "converged" in text


class TestErrorsAndEdgeCases:
    def test_wrong_rhs_length(self, laplace_small):
        with pytest.raises(ValueError):
            gmres(laplace_small, np.ones(3))

    def test_defaults_come_from_config(self, laplace_small):
        from repro.config import set_config

        set_config(restart=7, rtol=1e-6)
        result = gmres(laplace_small, ones_rhs(laplace_small))
        assert result.details["restart"] == 7
        assert result.details["tolerance"] == 1e-6


class TestOverflowedArnoldiNorm:
    @pytest.mark.parametrize("ortho", ["cgs", "cgs2", "mgs"])
    @pytest.mark.parametrize("big", [1e200, 1e300, 1e308])
    def test_gmres_ends_in_breakdown(self, ortho, big):
        A = overflowing_laplace3d(big)
        with np.errstate(over="ignore", invalid="ignore"):
            result = gmres(A, np.ones(A.n_rows), restart=20, ortho=ortho)
        assert result.status is SolverStatus.BREAKDOWN
        assert np.all(np.isfinite(result.x))

    def test_cycle_ends_at_the_overflowed_step(self):
        A = overflowing_laplace3d(1e300)
        ws = GmresWorkspace(A.n_rows, 20, "double")
        r = np.ones(A.n_rows)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = run_cycle(
                A, r, ws, residual_norm=float(np.linalg.norm(r)),
                ortho=make_ortho_manager("cgs2"),
                preconditioner=IdentityPreconditioner(),
            )
        assert outcome.nonfinite and not outcome.breakdown
        assert outcome.iterations == 1
        assert np.all(np.isfinite(outcome.update))


class TestRunGmresCycle:
    def test_cycle_respects_max_steps(self, laplace_small):
        ws = GmresWorkspace(laplace_small.n_rows, 20, "double")
        r = ones_rhs(laplace_small)
        outcome = run_cycle(
            laplace_small, r, ws, residual_norm=float(np.linalg.norm(r)),
            ortho=make_ortho_manager("cgs2"),
            preconditioner=IdentityPreconditioner(),
            max_steps=4,
        )
        assert outcome.iterations == 4
        assert outcome.implicit.shape == (4, 1)

    def test_cycle_precision_mismatch_raises(self, laplace_small):
        ws = GmresWorkspace(laplace_small.n_rows, 5, "single")
        r = ones_rhs(laplace_small)
        with pytest.raises(TypeError):
            run_cycle(
                laplace_small, r, ws, residual_norm=1.0,
                ortho=make_ortho_manager("cgs2"),
                preconditioner=IdentityPreconditioner(precision="single"),
            )

    def test_zero_residual_cycle(self, laplace_small):
        ws = GmresWorkspace(laplace_small.n_rows, 5, "double")
        outcome = run_cycle(
            laplace_small, np.zeros(laplace_small.n_rows), ws, residual_norm=0.0,
            ortho=make_ortho_manager("cgs2"),
            preconditioner=IdentityPreconditioner(),
        )
        assert outcome.iterations == 0
        np.testing.assert_allclose(outcome.update, 0.0)

    def test_cycle_update_reduces_residual(self, laplace_small):
        ws = GmresWorkspace(laplace_small.n_rows, 15, "double")
        b = ones_rhs(laplace_small)
        outcome = run_cycle(
            laplace_small, b, ws, residual_norm=float(np.linalg.norm(b)),
            ortho=make_ortho_manager("cgs2"),
            preconditioner=IdentityPreconditioner(),
        )
        new_residual = np.linalg.norm(b - laplace_small.matvec(outcome.update))
        assert new_residual < 0.5 * np.linalg.norm(b)
        assert new_residual == pytest.approx(outcome.implicit[-1, 0], rel=1e-6)
