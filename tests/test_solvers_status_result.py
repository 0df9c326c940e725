"""Tests for status tests, SolveResult and ConvergenceHistory."""

import numpy as np
import pytest

from repro.perfmodel.timer import KernelTimer
from repro.solvers import (
    ConvergenceHistory,
    LossOfAccuracyTest,
    SolveResult,
    SolverStatus,
    StagnationTest,
)


class TestStatusTests:
    def test_loss_of_accuracy_triggers_on_divergence(self):
        t = LossOfAccuracyTest(tolerance=1e-10, divergence_factor=10)
        assert t.triggered(implicit_norm=1e-11, explicit_norm=1e-4)

    def test_loss_of_accuracy_not_triggered_when_both_converged(self):
        t = LossOfAccuracyTest(tolerance=1e-10)
        assert not t.triggered(1e-11, 1e-11)

    def test_loss_of_accuracy_not_triggered_when_implicit_above_tol(self):
        t = LossOfAccuracyTest(tolerance=1e-10)
        assert not t.triggered(1e-6, 1e-3)

    def test_loss_of_accuracy_respects_divergence_factor(self):
        t = LossOfAccuracyTest(tolerance=1e-10, divergence_factor=1e6)
        assert not t.triggered(1e-11, 1e-8)
        assert t.triggered(1e-16, 1e-8)

    def test_stagnation_detects_flat_residuals(self):
        t = StagnationTest(patience=3, min_reduction=0.9)
        assert not t.update(1.0)
        flags = [t.update(0.99), t.update(0.985), t.update(0.99)]
        assert flags[-1] is True

    def test_stagnation_resets_on_improvement(self):
        t = StagnationTest(patience=2, min_reduction=0.9)
        t.update(1.0)
        t.update(0.99)
        assert not t.update(0.5)  # big improvement resets the counter
        assert not t.update(0.49)
        t.reset()
        assert not t.update(0.49)


class TestConvergenceHistory:
    def test_record_and_series(self):
        h = ConvergenceHistory()
        for i, r in enumerate([1.0, 0.5, 0.25]):
            h.record_implicit(i + 1, r)
        h.record_explicit(0, 1.0)
        h.record_explicit(3, 0.2)
        assert h.implicit_series().shape == (3, 2)
        assert h.explicit_series().shape == (2, 2)
        assert h.best_explicit() == 0.2

    def test_empty_history(self):
        h = ConvergenceHistory()
        assert h.implicit_series().shape == (0, 2)
        assert h.best_explicit() == np.inf

    def test_merge_with_offset(self):
        a = ConvergenceHistory()
        a.record_implicit(1, 0.5)
        a.record_explicit(1, 0.5)
        b = ConvergenceHistory()
        b.record_implicit(1, 0.1)
        merged = a.merged_with(b, iteration_offset=10)
        assert merged.implicit_iterations == [1, 11]
        assert merged.implicit_norms == [0.5, 0.1]
        # originals untouched
        assert a.implicit_iterations == [1]


class TestSolveResult:
    def make_result(self, status=SolverStatus.CONVERGED):
        timer = KernelTimer("t")
        from repro.perfmodel.costs import CostEstimate

        timer.record("spmv", "double", CostEstimate(2.0, 10, 10), wall_seconds=0.5)
        timer.record("gemv_t", "double", CostEstimate(1.0, 10, 10), wall_seconds=0.1)
        return SolveResult(
            x=np.zeros(3),
            status=status,
            iterations=10,
            restarts=2,
            relative_residual=1e-11,
            relative_residual_fp64=1e-11,
            history=ConvergenceHistory(),
            timer=timer,
            solver="gmres",
            precision="double",
        )

    def test_converged_flag(self):
        assert self.make_result().converged
        assert not self.make_result(SolverStatus.MAX_ITERATIONS).converged
        assert not self.make_result(SolverStatus.LOSS_OF_ACCURACY).converged

    def test_time_properties(self):
        r = self.make_result()
        assert r.model_seconds == pytest.approx(3.0)
        assert r.wall_seconds == pytest.approx(0.6)

    def test_kernel_breakdown(self):
        r = self.make_result()
        breakdown = r.kernel_breakdown()
        assert breakdown["SpMV"] == pytest.approx(2.0)
        assert breakdown["GEMV (Trans)"] == pytest.approx(1.0)

    def test_summary_mentions_status_and_counts(self):
        text = self.make_result().summary()
        assert "converged" in text
        assert "10" in text

    def test_status_enum_string(self):
        assert str(SolverStatus.LOSS_OF_ACCURACY) == "loss_of_accuracy"
        assert SolverStatus("converged") == SolverStatus.CONVERGED
