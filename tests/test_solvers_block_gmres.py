"""Block-GMRES: batched multi-RHS solves, per-column tracking, deflation.

Covers the whole batched path: parity of `block_gmres`/`block_gmres_ir`
with the sequential solvers to solver tolerance, the `solve_many` entry
point (chunking, 1-D inputs, method dispatch), per-RHS convergence
bookkeeping (mixed hard/easy right-hand sides, a stagnating column, zero
and duplicate columns), preconditioned blocks (including the batched
polynomial application), and the band-Hessenberg Givens workspace
against a dense least-squares oracle.

These tests run under whichever backend ``REPRO_BACKEND`` selects, so
the SciPy CI leg exercises the same parity claims on the fast path.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import rng
from repro.linalg.dense import GivensWorkspace
from repro.matrices import bentpipe2d, laplace3d
from repro.ortho import make_ortho_manager
from repro.preconditioners.base import IdentityPreconditioner
from repro.preconditioners.jacobi import JacobiPreconditioner
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.solvers import (
    SolverStatus,
    StagnationTest,
    block_gmres,
    block_gmres_ir,
    gmres,
    gmres_ir,
    gmres_ir_three_precision,
    solve_many,
)
from repro.solvers.gmres import GmresWorkspace, run_cycle
from repro.sparse import CsrMatrix
from repro.sparse.ordering import permute_symmetric


@pytest.fixture
def matrix():
    return laplace3d(8)  # n = 512, SPD


def _rhs_block(matrix, k, seed=42):
    return rng(seed).standard_normal((matrix.n_rows, k))


def _operator(matrix, layout):
    """The fixture matrix (a stencil, DIA products) or a random symmetric
    permutation of it (too many diagonals for DIA: gather products)."""
    if layout == "stencil":
        return matrix
    return permute_symmetric(matrix, rng(4).permutation(matrix.n_rows))


# ---------------------------------------------------------------------- #
# parity with the sequential solvers                                     #
# ---------------------------------------------------------------------- #
class TestBlockGmresParity:
    def test_matches_sequential_to_solver_tolerance(self, matrix):
        tol = 1e-9
        B = _rhs_block(matrix, 5)
        res = block_gmres(matrix, B, restart=30, tol=tol)
        assert res.converged
        assert res.n_rhs == 5
        for c in range(5):
            seq = gmres(matrix, B[:, c], restart=30, tol=tol)
            assert seq.converged
            assert res.relative_residuals_fp64[c] <= tol
            diff = np.linalg.norm(res.X[:, c] - seq.x) / np.linalg.norm(seq.x)
            # Both solutions satisfy ||b - A x|| <= tol ||b||; their gap is
            # bounded by cond(A) * 2 tol, far below this threshold here.
            assert diff < 1e-6

    def test_single_column_block_matches_gmres(self, matrix):
        """One column through the block cycle (SpMM, BCGS2, band QR) takes
        the steps, and ends in the status, of the single-vector cycle.

        On ``2·I`` with a constant right-hand side every fp32 Arnoldi step
        is exact, so both widths stop at a lucky breakdown after one step;
        the correction is only fp32-accurate, and both refine again.  With
        the random right-hand side ``rng(42)`` whether the first step
        collapses to exactly zero depends on GEMV against GEMM rounding,
        so there only the outcome is compared, for the three-precision IR
        too.
        """
        b = _rhs_block(matrix, 1)
        doubled = CsrMatrix.from_scipy(sp.identity(64, format="csr") * 2.0)
        pairs = [
            (block_gmres(matrix, b, restart=25, tol=1e-8),
             gmres(matrix, b[:, 0], restart=25, tol=1e-8)),
            (block_gmres_ir(doubled, np.full((64, 1), 1 / 3), restart=10, tol=1e-8),
             gmres_ir(doubled, np.full(64, 1 / 3), restart=10, tol=1e-8)),
        ]
        for res, seq in pairs:
            assert res.statuses[0] == seq.status == SolverStatus.CONVERGED
            assert res.iterations[0] == seq.iterations
            assert res.relative_residuals_fp64[0] <= 1e-8
            assert np.linalg.norm(res.X[:, 0] - seq.x) / np.linalg.norm(seq.x) <= 1e-12
        assert seq.iterations == 2  # one step in each of two refinements

        b = rng(42).standard_normal(64)
        res = block_gmres_ir(doubled, b[:, None], restart=10, tol=1e-8)
        seq = gmres_ir(doubled, b, restart=10, tol=1e-8)
        three = gmres_ir_three_precision(doubled, b, restart=10, tol=1e-8)
        assert res.statuses[0] == seq.status == three.status == SolverStatus.CONVERGED
        assert np.linalg.norm(res.X[:, 0] - seq.x) / np.linalg.norm(seq.x) <= 1e-12
        assert three.relative_residual_fp64 <= 1e-8

    def test_nonsymmetric_problem(self):
        matrix = bentpipe2d(16)  # n = 256, convection dominated
        B = _rhs_block(matrix, 4, seed=3)
        res = block_gmres(matrix, B, restart=40, tol=1e-8, max_restarts=30)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-8

    def test_initial_guess_block(self, matrix):
        B = _rhs_block(matrix, 3)
        X0 = rng(9).standard_normal(B.shape)
        res = block_gmres(matrix, B, X0, restart=30, tol=1e-8)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-8

    def test_shared_timer_and_column_view(self, matrix):
        B = _rhs_block(matrix, 3)
        res = block_gmres(matrix, B, restart=30, tol=1e-8)
        assert res.timer.total_calls() > 0
        one = res.column(1)
        assert one.status == SolverStatus.CONVERGED
        assert one.timer is res.timer
        np.testing.assert_array_equal(one.x, res.X[:, 1])
        assert one.details["column"] == 1
        assert "block iterations" in res.summary()


class TestBlockGmresPreconditioned:
    def test_jacobi_default_apply_block(self, matrix):
        M = JacobiPreconditioner(matrix)
        B = _rhs_block(matrix, 4)
        res = block_gmres(matrix, B, restart=30, tol=1e-9, preconditioner=M)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-9

    def test_polynomial_batched_apply(self, matrix):
        M = GmresPolynomialPreconditioner(matrix, degree=8)
        B = _rhs_block(matrix, 4)
        res = block_gmres(matrix, B, restart=15, tol=1e-9, preconditioner=M)
        assert res.converged
        for c in range(4):
            seq = gmres(matrix, B[:, c], restart=30, tol=1e-9, preconditioner=M)
            diff = np.linalg.norm(res.X[:, c] - seq.x) / np.linalg.norm(seq.x)
            assert diff < 1e-6

    @pytest.mark.parametrize("layout", ["stencil", "permuted"])
    def test_polynomial_apply_block_matches_columnwise(self, matrix, layout):
        matrix = _operator(matrix, layout)
        M = GmresPolynomialPreconditioner(matrix, degree=7)
        V = np.asfortranarray(_rhs_block(matrix, 5, seed=8))
        out = np.asfortranarray(np.empty_like(V))
        got = M.apply_block(V, out=out)
        assert got is out
        for c in range(5):
            np.testing.assert_array_equal(got[:, c], M.apply(V[:, c].copy()))

    @pytest.mark.parametrize("layout", ["stencil", "permuted"])
    def test_precision_wrapped_apply_block_stays_batched(self, matrix, layout):
        """The mixed-precision wrapper delegates to the inner *batched*
        application (one spmm chain), matching its column-wise apply."""
        from repro.preconditioners.mixed import PrecisionWrappedPreconditioner

        matrix = _operator(matrix, layout)
        inner = GmresPolynomialPreconditioner(matrix, degree=6, precision="single")
        wrapped = PrecisionWrappedPreconditioner(inner, outer_precision="double")
        V = np.asfortranarray(_rhs_block(matrix, 4, seed=12))
        out = np.asfortranarray(np.empty_like(V))
        got = wrapped.apply_block(V, out=out)
        assert got is out
        for c in range(4):
            np.testing.assert_array_equal(got[:, c], wrapped.apply(V[:, c].copy()))

    def test_mixed_precision_preconditioned_block_ir(self, matrix):
        """block_gmres_ir with an fp64 preconditioner (wrapped to fp32 inner)
        converges and matches the sequential mixed path."""
        M = GmresPolynomialPreconditioner(matrix, degree=6)  # fp64
        B = _rhs_block(matrix, 3)
        res = block_gmres_ir(matrix, B, restart=15, tol=1e-10, preconditioner=M)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-10

    @pytest.mark.parametrize("layout", ["stencil", "permuted"])
    def test_power_form_apply_block(self, matrix, layout):
        matrix = _operator(matrix, layout)
        M = GmresPolynomialPreconditioner(matrix, degree=5, apply_method="power")
        V = np.asfortranarray(_rhs_block(matrix, 3, seed=8))
        got = M.apply_block(V)
        for c in range(3):
            np.testing.assert_array_equal(got[:, c], M.apply(V[:, c].copy()))


# ---------------------------------------------------------------------- #
# per-RHS convergence bookkeeping and deflation                          #
# ---------------------------------------------------------------------- #
class TestPerColumnBookkeeping:
    def test_mixed_hard_easy_iteration_counts(self, matrix):
        """An easy column (near an eigenvector) deflates early with a small
        per-column iteration count; the hard random columns keep going."""
        from scipy.sparse.linalg import eigsh

        _vals, vecs = eigsh(matrix.to_scipy(), k=1, which="SM")
        easy = vecs[:, 0]
        B = _rhs_block(matrix, 3, seed=5)
        B[:, 1] = easy  # GMRES resolves a near-eigenvector in a few steps
        res = block_gmres(matrix, B, restart=12, tol=1e-8, max_restarts=30)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-8
        assert res.iterations[1] < res.iterations[0]
        assert res.iterations[1] < res.iterations[2]
        # The easy column's count reflects when its implicit estimate hit the
        # target, not the whole block's run time.
        assert res.iterations[1] <= 12
        assert res.block_iterations >= res.iterations.max()

    def test_stagnating_column_is_deflated_with_status(self):
        """A column of a singular system stagnates and is deflated with
        STAGNATION while the solvable columns converge."""
        n = 24
        diag = np.linspace(1.0, 4.0, n)
        diag[0] = 0.0  # singular direction
        A = CsrMatrix.from_scipy(sp.diags(diag).tocsr())
        B = np.zeros((n, 3))
        B[:, 0] = rng(3).standard_normal(n)
        B[0, 0] = 1.0  # unsolvable: e_0 is outside the range of A
        B[:, 1] = rng(1).standard_normal(n)
        B[0, 1] = 0.0  # solvable
        B[:, 2] = rng(2).standard_normal(n)
        B[0, 2] = 0.0
        res = block_gmres(
            A,
            B,
            restart=6,
            tol=1e-10,
            max_restarts=40,
            stagnation=StagnationTest(patience=2, min_reduction=0.5),
            # The singular column's implicit estimate lives in a noise-spanned
            # space; disable the loss-of-accuracy test so the stagnation
            # detector is what fires deterministically.
            loss_of_accuracy_check=False,
        )
        assert res.statuses[0] == SolverStatus.STAGNATION
        assert res.statuses[1] == SolverStatus.CONVERGED
        assert res.statuses[2] == SolverStatus.CONVERGED
        assert res.relative_residuals_fp64[1] <= 1e-10
        assert res.relative_residuals_fp64[2] <= 1e-10
        # The floor is the e_0 share of the column.
        assert res.relative_residuals_fp64[0] == pytest.approx(
            1.0 / np.linalg.norm(B[:, 0]), rel=1e-6
        )

    def test_exhausted_column_ends_like_gmres(self):
        """On ``diag(0, 1, …, 1)`` the unsolvable column's residual becomes
        ``e_0``, whose Krylov space ``A e_0 = 0`` is exhausted: its width-1
        cycle stops at that lucky breakdown and, above tolerance, the
        column ends in BREAKDOWN — as ``gmres`` on the same vector does —
        while the solvable columns converge in one step.  The band QR keeps
        the unreduced ``e_0`` share in the column's implicit norm, so the
        default loss-of-accuracy check does not fire first."""
        n = 24
        diag = np.ones(n)
        diag[0] = 0.0
        A = CsrMatrix.from_scipy(sp.diags(diag).tocsr())
        B = np.zeros((n, 3))
        B[0, 0] = 1.0
        B[:, 1] = rng(1).standard_normal(n)
        B[0, 1] = 0.0
        B[:, 2] = rng(2).standard_normal(n)
        B[0, 2] = 0.0
        res = block_gmres(A, B, restart=6, tol=1e-10, max_restarts=40)
        assert res.statuses[0] == gmres(A, B[:, 0], restart=6).status
        assert res.statuses[0] == SolverStatus.BREAKDOWN
        assert res.statuses[1:] == [SolverStatus.CONVERGED] * 2
        assert res.iterations[1] <= 2
        assert res.iterations[2] <= 2

    def test_budget_exhaustion_marks_remaining_columns(self, matrix):
        B = _rhs_block(matrix, 3)
        res = block_gmres(matrix, B, restart=5, tol=1e-12, max_iterations=10)
        assert res.block_iterations <= 10
        assert all(
            s in (SolverStatus.MAX_ITERATIONS, SolverStatus.CONVERGED)
            for s in res.statuses
        )
        assert any(s == SolverStatus.MAX_ITERATIONS for s in res.statuses)

    def test_zero_rhs_column_deflates_immediately(self, matrix):
        B = _rhs_block(matrix, 3)
        B[:, 1] = 0.0
        res = block_gmres(matrix, B, restart=20, tol=1e-8)
        assert res.statuses[1] == SolverStatus.CONVERGED
        assert res.iterations[1] == 0
        np.testing.assert_array_equal(res.X[:, 1], 0)
        assert res.relative_residuals[1] == 0.0
        assert res.statuses[0] == SolverStatus.CONVERGED  # others unaffected

    def test_duplicate_rhs_columns(self, matrix):
        """Exactly duplicated columns (a rank-deficient block) both converge."""
        B = _rhs_block(matrix, 3)
        B[:, 2] = B[:, 0]
        res = block_gmres(matrix, B, restart=30, tol=1e-8)
        assert res.converged
        np.testing.assert_allclose(res.X[:, 0], res.X[:, 2], rtol=1e-6, atol=1e-9)

    def test_caller_rhs_block_is_not_mutated(self, matrix):
        """Deflation compacts internal buffers only — a Fortran-ordered
        caller block (which np.asfortranarray would alias) stays intact and
        the fp64 residual recheck uses the right columns."""
        from scipy.sparse.linalg import eigsh

        _vals, vecs = eigsh(matrix.to_scipy(), k=1, which="SM")
        B = np.asfortranarray(_rhs_block(matrix, 3, seed=5))
        B[:, 0] = vecs[:, 0]  # deflates before the others
        B_before = B.copy()
        res = block_gmres(matrix, B, restart=12, tol=1e-8, max_restarts=30)
        np.testing.assert_array_equal(B, B_before)
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-8

    def test_histories_per_column(self, matrix):
        B = _rhs_block(matrix, 2)
        res = block_gmres(matrix, B, restart=10, tol=1e-8)
        for c in range(2):
            h = res.histories[c]
            assert h.explicit_norms[-1] <= 1e-8
            assert len(h.implicit_norms) >= res.iterations[c] - 1
            # implicit estimates are recorded every block step
            assert h.implicit_iterations == sorted(h.implicit_iterations)


# ---------------------------------------------------------------------- #
# solve_many entry point                                                 #
# ---------------------------------------------------------------------- #
class TestSolveMany:
    def test_chunks_by_block_size(self, matrix):
        B = _rhs_block(matrix, 7)
        res = solve_many(matrix, B, block_size=3, restart=25, tol=1e-8)
        assert res.n_rhs == 7
        assert res.block_size == 3
        assert res.details["n_blocks"] == 3
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-8
        assert len(res.histories) == 7
        assert len(res.iterations) == 7

    def test_one_dimensional_rhs(self, matrix):
        b = _rhs_block(matrix, 1)[:, 0]
        res = solve_many(matrix, b, restart=25, tol=1e-8)
        assert res.n_rhs == 1
        seq = gmres(matrix, b, restart=25, tol=1e-8)
        assert np.linalg.norm(res.X[:, 0] - seq.x) / np.linalg.norm(seq.x) < 1e-6

    def test_gmres_ir_method(self, matrix):
        B = _rhs_block(matrix, 4)
        res = solve_many(matrix, B, method="gmres-ir", restart=25, tol=1e-9)
        assert res.solver == "block-gmres-ir"
        assert res.converged
        assert res.relative_residuals_fp64.max() <= 1e-9

    def test_shared_timer_across_chunks(self, matrix):
        B = _rhs_block(matrix, 4)
        res = solve_many(matrix, B, block_size=2, restart=25, tol=1e-8)
        assert res.timer.total_calls() > 0

    def test_x0_block_and_validation(self, matrix):
        B = _rhs_block(matrix, 4)
        X0 = np.zeros_like(B)
        res = solve_many(matrix, B, X0, block_size=2, restart=25, tol=1e-8)
        assert res.converged
        with pytest.raises(ValueError):
            solve_many(matrix, B, X0[:, :2], block_size=2)
        with pytest.raises(ValueError):
            solve_many(matrix, B, method="nope")
        with pytest.raises(ValueError):
            solve_many(matrix, np.empty((matrix.n_rows, 0)))

    @pytest.mark.parametrize("block_size", [0, -1, -5])
    def test_rejects_non_positive_block_size(self, matrix, block_size):
        # Not clamped to width 1: as OperatorSession(max_block=0) does.
        with pytest.raises(ValueError, match="block_size"):
            solve_many(matrix, _rhs_block(matrix, 3), block_size=block_size)


# ---------------------------------------------------------------------- #
# blocked GMRES-IR                                                       #
# ---------------------------------------------------------------------- #
class TestBlockGmresIr:
    def test_matches_sequential_gmres_ir(self, matrix):
        tol = 1e-10
        B = _rhs_block(matrix, 4)
        res = block_gmres_ir(matrix, B, restart=25, tol=tol)
        assert res.converged
        assert res.precision == "single/double"
        for c in range(4):
            seq = gmres_ir(matrix, B[:, c], restart=25, tol=tol)
            assert seq.converged
            assert res.relative_residuals_fp64[c] <= tol
            diff = np.linalg.norm(res.X[:, c] - seq.x) / np.linalg.norm(seq.x)
            assert diff < 1e-6

    def test_deflation_across_refinements(self, matrix):
        from scipy.sparse.linalg import eigsh

        _vals, vecs = eigsh(matrix.to_scipy(), k=1, which="SM")
        B = _rhs_block(matrix, 3)
        B[:, 0] = vecs[:, 0]
        res = block_gmres_ir(matrix, B, restart=12, tol=1e-10, max_restarts=25)
        assert res.converged
        assert res.iterations[0] <= res.iterations[1]

    def test_refine_every_two(self, matrix):
        B = _rhs_block(matrix, 3)
        res = block_gmres_ir(matrix, B, restart=10, tol=1e-10, refine_every=2)
        assert res.converged
        assert res.details["refine_every"] == 2

    def test_zero_block_short_circuit(self, matrix):
        B = np.zeros((matrix.n_rows, 2))
        res = block_gmres_ir(matrix, B, restart=10, tol=1e-10)
        assert res.converged
        np.testing.assert_array_equal(res.X, 0)


# ---------------------------------------------------------------------- #
# band-Hessenberg Givens workspace                                       #
# ---------------------------------------------------------------------- #
class TestBandGivensWorkspace:
    def _random_band_hessenberg(self, steps, k, seed=0):
        """Random band Hessenberg (column q has entries to row q + k)."""
        gen = rng(seed)
        cols = steps * k
        H = np.zeros((cols + k, cols))
        for q in range(cols):
            H[: q + k + 1, q] = gen.standard_normal(q + k + 1)
        return H

    def test_residuals_and_solution_match_lstsq_oracle(self):
        steps, k = 4, 3
        H = self._random_band_hessenberg(steps, k, seed=2)
        S = np.triu(rng(3).standard_normal((k, k))) + 3 * np.eye(k)
        ws = GivensWorkspace(max_cols=steps * k, band=k)
        ws.reset(S)
        rhs = np.zeros((steps * k + k, k))
        rhs[:k, :k] = S
        for j in range(steps):
            q = j * k
            ws.append(H[: q + 2 * k, q : q + k])
            norms = ws.residual_norms()
            for c in range(k):
                y_ref, *_ = np.linalg.lstsq(
                    H[: q + 2 * k, : q + k], rhs[: q + 2 * k, c], rcond=None
                )
                r_ref = np.linalg.norm(
                    rhs[: q + 2 * k, c] - H[: q + 2 * k, : q + k] @ y_ref
                )
                assert norms[c] == pytest.approx(r_ref, rel=1e-9, abs=1e-12)
        Y = ws.solve(out=np.empty((steps * k, k)))
        for c in range(k):
            y_ref, *_ = np.linalg.lstsq(H, rhs[:, c], rcond=None)
            np.testing.assert_allclose(Y[:, c], y_ref, rtol=1e-8, atol=1e-10)

    def test_narrower_active_band_after_deflation(self):
        k, steps = 2, 3
        ws = GivensWorkspace(max_cols=12, band=4)  # built for block size 4
        S = np.triu(rng(5).standard_normal((k, k))) + 2 * np.eye(k)
        ws.reset(S)  # deflated to width 2
        assert ws.active_band == k
        H = self._random_band_hessenberg(steps, k, seed=7)
        for j in range(steps):
            q = j * k
            ws.append(H[: q + 2 * k, q : q + k])
        Y = ws.solve(out=np.empty((steps * k, k)))
        rhs = np.zeros((steps * k + k, k))
        rhs[:k, :k] = S
        for c in range(k):
            y_ref, *_ = np.linalg.lstsq(H, rhs[:, c], rcond=None)
            np.testing.assert_allclose(Y[:, c], y_ref, rtol=1e-8, atol=1e-10)

    def test_zero_diagonal_coefficients_are_zeroed(self):
        """A fully zero Hessenberg column (deflated direction) yields a zero
        coefficient row instead of a division blow-up, claims no row of the
        QR, and leaves residual norms and coefficients those of the least
        squares problem, also after a later step reduces its open row."""
        k = 2
        ws = GivensWorkspace(max_cols=4, band=k)
        ws.reset(np.eye(k))
        H = np.zeros((3 * k, 2 * k))
        H[: 2 * k, 1] = rng(8).standard_normal(2 * k)  # column 0 entirely zero
        H[:, k:] = rng(9).standard_normal((3 * k, k))
        H[-1, k] = 0.0  # the band: column q + i reaches row q + k + i
        rhs = np.eye(3 * k, k)
        for steps in (1, 2):
            q = (steps - 1) * k
            ws.append(H[: q + 2 * k, q : q + k])
            rows, cols = (steps + 1) * k, steps * k
            norms = ws.residual_norms()
            Y = ws.solve(out=np.empty((cols, k)))
            np.testing.assert_array_equal(Y[0], 0)
            for c in range(k):
                y_ref, *_ = np.linalg.lstsq(H[:rows, :cols], rhs[:rows, c], rcond=None)
                r_ref = np.linalg.norm(rhs[:rows, c] - H[:rows, :cols] @ y_ref)
                assert norms[c] == pytest.approx(r_ref, rel=1e-12)
                np.testing.assert_allclose(Y[:, c], y_ref, rtol=1e-10, atol=1e-12)
        # A new cycle starts with no open row: H = I reduces everything.
        ws.reset(np.eye(k))
        ws.append(np.eye(2 * k, k))
        np.testing.assert_array_equal(ws.residual_norms(), 0.0)

    def test_validation(self):
        ws = GivensWorkspace(max_cols=6, band=2)
        with pytest.raises(ValueError):
            ws.reset(np.ones((3, 3)))  # wider than the band
        ws.reset(np.eye(2))
        with pytest.raises(ValueError):
            ws.append(np.ones((3, 2)))  # wrong panel shape
        with pytest.raises(ValueError):
            ws.append(np.ones(1), 0.5)  # a column in a block cycle
        with pytest.raises(ValueError):
            GivensWorkspace(max_cols=0, band=2)


# ---------------------------------------------------------------------- #
# cycle-level invariants                                                 #
# ---------------------------------------------------------------------- #
class TestBlockCycle:
    def test_workspace_reuse_is_deterministic(self, matrix):
        k = 4
        ws = GmresWorkspace(matrix.n_rows, 10, "double", k)
        ortho = make_ortho_manager("bcgs2")
        precond = IdentityPreconditioner(precision="double")
        R = np.asfortranarray(_rhs_block(matrix, k, seed=6))
        out1 = run_cycle(
            matrix, R, ws, ortho=ortho, preconditioner=precond
        )
        first = out1.update.copy()
        out2 = run_cycle(
            matrix, R, ws, ortho=ortho, preconditioner=precond
        )
        np.testing.assert_array_equal(first, out2.update)

    def test_deflated_width_cycles_on_same_workspace(self, matrix):
        """One workspace serves cycles of shrinking width (deflation)."""
        ws = GmresWorkspace(matrix.n_rows, 8, "double", 4)
        ortho = make_ortho_manager("bcgs2")
        precond = IdentityPreconditioner(precision="double")
        for k in (4, 2, 1):
            R = np.asfortranarray(_rhs_block(matrix, k, seed=k))
            out = run_cycle(
                matrix, R, ws, ortho=ortho, preconditioner=precond
            )
            assert out.iterations == 8
            assert out.update.shape == (matrix.n_rows, k)
            assert out.implicit.shape == (8, k)

    def test_precision_mismatch_raises(self, matrix):
        ws = GmresWorkspace(matrix.n_rows, 5, "single", 2)
        ortho = make_ortho_manager("bcgs2")
        precond = IdentityPreconditioner(precision="single")
        R = np.asfortranarray(_rhs_block(matrix, 2))
        with pytest.raises(TypeError):
            run_cycle(matrix, R, ws, ortho=ortho, preconditioner=precond)

    def test_implicit_estimates_track_true_residuals(self, matrix):
        """The per-column implicit estimates agree with explicitly computed
        residuals of the reconstructed iterates at the end of a cycle."""
        k = 3
        ws = GmresWorkspace(matrix.n_rows, 12, "double", k)
        ortho = make_ortho_manager("bcgs2")
        precond = IdentityPreconditioner(precision="double")
        R = np.asfortranarray(_rhs_block(matrix, k, seed=11))
        out = run_cycle(matrix, R, ws, ortho=ortho, preconditioner=precond)
        dense_A = matrix.to_scipy().toarray()
        for c in range(k):
            true_res = np.linalg.norm(R[:, c] - dense_A @ out.update[:, c])
            assert out.implicit[-1, c] == pytest.approx(true_res, rel=1e-6, abs=1e-10)
