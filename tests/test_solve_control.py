"""Tests for :class:`repro.solvers.SolveControl` and its threading through
the solver drivers (``gmres``, ``cg``, ``gmres_ir``, ``block_gmres``,
``block_gmres_ir``, ``solve_many``).

The fault-tolerance contract at the solver layer: a control token can stop
any solve cooperatively — deadline → ``TIMED_OUT``, cancellation →
``CANCELLED``, iteration budget → ``MAX_ITERATIONS`` — always resolving
with the best iterate reached, within one restart cycle (plus at most
``check_interval`` inner iterations) of the token firing.  The parts of
the contract every driver shares (pre-cancelled control, non-finite
right-hand side, zero right-hand side, probe events) are checked across
all drivers in ``test_solver_contract.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.matrices import laplace2d
from repro.preconditioners.base import Preconditioner
from repro.solvers import (
    SolveControl,
    SolverStatus,
    block_gmres,
    block_gmres_ir,
    cg,
    gmres,
    gmres_ir,
    solve_many,
)


class CancelAfter(Preconditioner):
    """Identity preconditioner that cancels a control after N applications.

    A deterministic way to fire a cancellation *mid-solve* without racing
    a wall clock: the solver applies the preconditioner every inner
    iteration, so the token trips at a known point of the iteration.
    """

    def __init__(self, control: SolveControl, after: int, precision="double"):
        super().__init__(precision=precision, name="cancel-after")
        self.control = control
        self.after = after
        self.calls = 0

    def apply(self, vector, out=None):
        self.calls += 1
        if self.calls >= self.after:
            self.control.cancel()
        if out is None:
            return vector.copy()
        out[...] = vector
        return out

    def apply_block(self, block, out=None):
        self.calls += 1
        if self.calls >= self.after:
            self.control.cancel()
        if out is None:
            return block.copy()
        out[...] = block
        return out


@pytest.fixture(scope="module")
def matrix():
    return laplace2d(12)  # n = 144


@pytest.fixture(scope="module")
def rhs(matrix):
    rng = np.random.default_rng(42)
    return rng.standard_normal(matrix.n_rows)


class TestSolveControlUnit:
    def test_poll_priority_cancel_beats_timeout(self):
        control = SolveControl(deadline_seconds=0.0)
        control.cancel()
        assert control.poll() == SolverStatus.CANCELLED

    def test_timeout_beats_budget(self):
        control = SolveControl(deadline_seconds=0.0, max_iterations=0)
        assert control.poll() == SolverStatus.TIMED_OUT

    def test_budget_fires_after_charges(self):
        control = SolveControl(max_iterations=3)
        assert control.poll() is None
        control.charge(3)
        assert control.iterations_charged == 3
        assert control.poll() == SolverStatus.MAX_ITERATIONS

    def test_unbounded_control_never_fires(self):
        control = SolveControl()
        control.charge(10_000)
        assert control.poll() is None
        assert control.remaining_seconds() is None
        assert not control.expired()

    def test_with_timeout_sets_deadline(self):
        control = SolveControl.with_timeout(10_000.0)
        remaining = control.remaining_seconds()
        assert remaining is not None and 0.0 < remaining <= 10.0

    def test_cancel_is_idempotent_and_threadsafe(self):
        control = SolveControl()
        threads = [threading.Thread(target=control.cancel) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert control.cancelled
        assert control.poll() == SolverStatus.CANCELLED

    def test_check_interval_validation(self):
        with pytest.raises(ValueError, match="check_interval"):
            SolveControl(check_interval=0)


class TestSingleVectorDrivers:
    def test_gmres_zero_deadline_times_out(self, matrix, rhs):
        result = gmres(
            matrix, rhs, tol=1e-10, control=SolveControl.with_timeout(0.0)
        )
        assert result.status == SolverStatus.TIMED_OUT
        assert result.iterations == 0

    def test_gmres_iteration_budget(self, matrix, rhs):
        control = SolveControl(max_iterations=5, check_interval=1)
        result = gmres(
            matrix, rhs, tol=1e-14, restart=30, max_restarts=50, control=control
        )
        assert result.status == SolverStatus.MAX_ITERATIONS
        assert result.iterations <= 5 + control.check_interval

    def test_gmres_cancel_mid_solve_bounded_latency(self, matrix, rhs):
        baseline = gmres(matrix, rhs, tol=1e-12, restart=10, max_restarts=200)
        assert baseline.status == SolverStatus.CONVERGED
        control = SolveControl(check_interval=1)
        precond = CancelAfter(control, after=3)
        result = gmres(
            matrix,
            rhs,
            tol=1e-12,
            restart=10,
            max_restarts=200,
            preconditioner=precond,
            control=control,
        )
        assert result.status == SolverStatus.CANCELLED
        # The cancellation fired at the 3rd inner iteration; the solver
        # must notice within check_interval iterations — one cycle at most.
        assert result.iterations <= 3 + control.check_interval
        assert result.iterations < baseline.iterations

    def test_gmres_keeps_partial_iterate_on_cancel(self, matrix, rhs):
        control = SolveControl(max_iterations=8, check_interval=1)
        result = gmres(matrix, rhs, tol=1e-14, restart=30, control=control)
        # The partial update is applied: the iterate is better than x0 = 0.
        assert 0.0 < result.relative_residual < 1.0
        assert np.all(np.isfinite(result.x))

    def test_cg_cancel_and_timeout(self, matrix, rhs):
        control = SolveControl(check_interval=1)
        control.cancel()
        result = cg(matrix, rhs, tol=1e-12, control=control)
        assert result.status == SolverStatus.CANCELLED
        assert result.iterations <= control.check_interval

        timed = cg(
            matrix,
            rhs,
            tol=1e-12,
            control=SolveControl.with_timeout(0.0, check_interval=1),
        )
        assert timed.status == SolverStatus.TIMED_OUT

    def test_gmres_ir_timeout_and_cancel(self, matrix, rhs):
        timed = gmres_ir(
            matrix, rhs, tol=1e-10, control=SolveControl.with_timeout(0.0)
        )
        assert timed.status == SolverStatus.TIMED_OUT
        assert timed.iterations == 0

        control = SolveControl()
        control.cancel()
        cancelled = gmres_ir(matrix, rhs, tol=1e-10, control=control)
        assert cancelled.status == SolverStatus.CANCELLED


class TestBlockDrivers:
    def _block(self, matrix, width=3, seed=7):
        rng = np.random.default_rng(seed)
        return np.asfortranarray(rng.standard_normal((matrix.n_rows, width)))

    def test_per_column_cancel_spares_batchmates(self, matrix):
        B = self._block(matrix)
        cancelled = SolveControl()
        cancelled.cancel()
        controls = [None, cancelled, None]
        result = block_gmres(
            matrix, B, tol=1e-8, restart=20, max_restarts=100, controls=controls
        )
        assert result.statuses[1] == SolverStatus.CANCELLED
        assert result.iterations[1] == 0
        assert result.statuses[0] == SolverStatus.CONVERGED
        assert result.statuses[2] == SolverStatus.CONVERGED

    def test_per_column_timeout(self, matrix):
        B = self._block(matrix)
        controls = [None, None, SolveControl.with_timeout(0.0)]
        result = block_gmres(
            matrix, B, tol=1e-8, restart=20, max_restarts=100, controls=controls
        )
        assert result.statuses[2] == SolverStatus.TIMED_OUT
        assert result.statuses[0] == SolverStatus.CONVERGED

    def test_whole_batch_control_cancels_everything(self, matrix):
        B = self._block(matrix)
        control = SolveControl()
        control.cancel()
        result = block_gmres(matrix, B, tol=1e-10, restart=20, control=control)
        assert all(s == SolverStatus.CANCELLED for s in result.statuses)

    def test_mid_solve_cancel_within_one_restart_cycle(self, matrix):
        B = self._block(matrix)
        restart = 5
        control = SolveControl(check_interval=1)
        precond = CancelAfter(control, after=2)
        result = block_gmres(
            matrix,
            B,
            tol=1e-12,
            restart=restart,
            max_restarts=100,
            preconditioner=precond,
            controls=[control, None, None],
        )
        assert result.statuses[0] == SolverStatus.CANCELLED
        # Per-column controls are honoured at restart boundaries: the
        # cancelled column is deflated after the cycle in which the token
        # fired — its iteration count stays within that first cycle.
        assert result.iterations[0] <= restart

    def test_block_gmres_ir_controls(self, matrix):
        B = self._block(matrix)
        timed = SolveControl.with_timeout(0.0)
        result = block_gmres_ir(
            matrix, B, tol=1e-8, restart=20, controls=[None, timed, None]
        )
        assert result.statuses[1] == SolverStatus.TIMED_OUT
        assert result.statuses[0] == SolverStatus.CONVERGED

    def test_controls_length_validated(self, matrix):
        B = self._block(matrix)
        with pytest.raises(ValueError, match="controls"):
            block_gmres(matrix, B, controls=[None])

    def test_solve_many_routes_controls_per_chunk(self, matrix):
        B = self._block(matrix, width=5)
        cancelled = SolveControl()
        cancelled.cancel()
        controls = [None, None, None, cancelled, None]
        result = solve_many(
            matrix, B, block_size=2, tol=1e-8, restart=20, controls=controls
        )
        assert result.statuses[3] == SolverStatus.CANCELLED
        assert result.statuses[0] == SolverStatus.CONVERGED
        assert result.statuses[4] == SolverStatus.CONVERGED
