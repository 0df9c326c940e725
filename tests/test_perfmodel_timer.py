"""Tests for the kernel timer and the active-timer stack."""

import pytest

from repro.perfmodel.costs import CostEstimate
from repro.perfmodel.timer import (
    ORTHO_LABELS,
    KernelRecord,
    KernelTimer,
    active_timer,
    active_timers,
    canonical_label,
    pop_timer,
    push_timer,
    use_timer,
)


def cost(seconds=1.0, nbytes=8.0, flops=2.0):
    return CostEstimate(seconds=seconds, bytes=nbytes, flops=flops)


class TestCanonicalLabels:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("spmv", "SpMV"),
            ("SpMV", "SpMV"),
            ("gemv_t", "GEMV (Trans)"),
            ("GEMV (Trans)", "GEMV (Trans)"),
            ("gemv_n", "GEMV (No Trans)"),
            ("norm", "Norm"),
            ("dot", "Norm"),
            ("axpy", "Other"),
            ("cast", "Other"),
            ("Residual", "Other"),
            ("precond", "Precond"),
            ("Matrix copy", "Matrix copy"),
        ],
    )
    def test_mapping(self, raw, expected):
        assert canonical_label(raw) == expected

    def test_ortho_labels_match_paper(self):
        assert ORTHO_LABELS == ("GEMV (Trans)", "Norm", "GEMV (No Trans)")


class TestKernelRecord:
    def test_add(self):
        rec = KernelRecord(label="SpMV", precision="double")
        rec.add(cost(2.0, 16.0, 4.0), wall_seconds=0.5)
        rec.add(cost(1.0, 8.0, 2.0), wall_seconds=0.25)
        assert rec.calls == 2
        assert rec.model_seconds == 3.0
        assert rec.wall_seconds == 0.75
        assert rec.bytes == 24.0

    def test_merge_requires_same_label(self):
        a = KernelRecord("SpMV", "double", calls=1, model_seconds=1.0)
        b = KernelRecord("Norm", "double")
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_mixes_precisions(self):
        a = KernelRecord("SpMV", "double", calls=1, model_seconds=1.0)
        b = KernelRecord("SpMV", "single", calls=2, model_seconds=0.5)
        merged = a.merged_with(b)
        assert merged.calls == 3
        assert merged.precision == "mixed"


class TestKernelTimer:
    def test_record_and_totals(self):
        t = KernelTimer("t")
        t.record("spmv", "double", cost(1.0))
        t.record("spmv", "single", cost(0.5))
        t.record("gemv_t", "double", cost(2.0), wall_seconds=0.1)
        assert t.total_model_seconds() == pytest.approx(3.5)
        assert t.total_calls() == 3
        assert t.total_wall_seconds() == pytest.approx(0.1)
        assert set(t.labels()) == {"SpMV", "GEMV (Trans)"}

    def test_seconds_by_label_merges_precisions(self):
        t = KernelTimer("t")
        t.record("spmv", "double", cost(1.0))
        t.record("spmv", "single", cost(0.5))
        assert t.model_seconds_by_label()["SpMV"] == pytest.approx(1.5)

    def test_model_seconds_for_label_and_precision(self):
        t = KernelTimer("t")
        t.record("norm", "double", cost(1.0))
        t.record("norm", "single", cost(0.25))
        assert t.model_seconds_for("Norm") == pytest.approx(1.25)
        assert t.model_seconds_for("Norm", "single") == pytest.approx(0.25)

    def test_orthogonalization_seconds(self):
        t = KernelTimer("t")
        t.record("gemv_t", "double", cost(1.0))
        t.record("gemv_n", "double", cost(2.0))
        t.record("norm", "double", cost(0.5))
        t.record("spmv", "double", cost(10.0))
        assert t.orthogonalization_seconds() == pytest.approx(3.5)

    def test_merge_from(self):
        a, b = KernelTimer("a"), KernelTimer("b")
        a.record("spmv", "double", cost(1.0))
        b.record("spmv", "double", cost(2.0))
        b.record("norm", "single", cost(0.5))
        a.merge_from(b)
        assert a.total_model_seconds() == pytest.approx(3.5)
        assert a.model_seconds_for("SpMV") == pytest.approx(3.0)

    def test_reset(self):
        t = KernelTimer("t")
        t.record("spmv", "double", cost(1.0))
        t.reset()
        assert t.total_model_seconds() == 0.0
        assert t.records == []

    def test_summary_contains_labels(self):
        t = KernelTimer("solver")
        t.record("spmv", "double", cost(1.0), wall_seconds=0.25)
        text = t.summary()
        assert "solver" in text and "SpMV" in text
        # Modelled and host wall seconds side by side (Table I, Aim 1).
        assert text.splitlines()[1].split()[:5] == ["SpMV", "1.000000", "model", "s", "0.250000"]

    def test_wall_clock_context(self):
        t = KernelTimer("t")
        with t.wall_clock() as out:
            sum(range(1000))
        assert out[0] >= 0.0


class TestTimerStack:
    def test_push_pop(self):
        assert active_timer() is None
        t = KernelTimer("outer")
        push_timer(t)
        assert active_timer() is t
        assert pop_timer() is t
        assert active_timer() is None

    def test_pop_empty_raises(self):
        with pytest.raises(RuntimeError):
            pop_timer()

    def test_use_timer_creates_and_restores(self):
        with use_timer(name="auto") as t:
            assert active_timer() is t
        assert active_timer() is None

    def test_nested_timers_both_visible(self):
        with use_timer(name="outer") as outer:
            with use_timer(name="inner") as inner:
                stack = active_timers()
                assert stack == [outer, inner]
        assert active_timers() == []
