"""Health intelligence: SLO engine, anomaly detection, adaptive sampling.

Four layers under test (ISSUE 10):

* :class:`repro.obs.Sampler` — deterministic head stride + tail keep
  rules, including the acceptance gates: head sampling honours the
  configured rate exactly over >= 1k requests, tail sampling retains
  100% of failed / timed-out requests.
* :class:`repro.obs.SloEngine` — sliding windows, burn-rate math and
  multi-window alerting, all under injected clocks.
* The anomaly detectors — convergence stagnation, residual spikes,
  non-finite residuals, breakdowns, latency spikes, breaker flapping and
  cost-model drift, from synthetic streams.
* :class:`repro.obs.HealthMonitor` end to end — the chaos alert
  integrity gate (fault episodes raise typed alerts and flip
  ``/healthz`` away from ``healthy``; a healthy replay raises zero
  alerts and burns zero budget) plus the ``/healthz`` + ``/slo`` HTTP
  surface, and trace-ledger reconciliation across ``farm.close``
  racing in-flight submits.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.matrices import laplace2d
from repro.obs import (
    ALERT_SEVERITIES,
    AlertLedger,
    BreakerFlapDetector,
    ConvergenceWatch,
    HealthMonitor,
    LatencySpikeDetector,
    Observability,
    ProbeEvent,
    Sampler,
    SloEngine,
    SloPolicy,
    Tracer,
    cost_model_drift,
    prometheus_text,
    start_metrics_server,
    watch_health,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import nearest_rank
from repro.perfmodel.timer import KernelRecord
from repro.serve import DeadlineExceededError, Outcome, RejectedError
from repro.serve.telemetry import LEDGER_CAPACITY
from repro.solvers import SolverStatus
from repro.testing import FaultInjectingBackend, fault_injecting_session_factory
from repro.backends import get_backend


@pytest.fixture(scope="module")
def matrix():
    return laplace2d(8)  # n = 64


def book_batch(sink, width, wait_s, solve_s, *, failed=0, cancelled=0):
    """Book one batch's outcomes in ``sink``: the first ``failed``
    requests errored, the last ``cancelled`` were cancelled mid-solve,
    the rest converged."""
    names = (
        ["error"] * failed
        + ["converged"] * (width - failed - cancelled)
        + ["cancelled"] * cancelled
    )
    for name in names:
        sink.record(Outcome(name, name == "error", wait_s, solve_s))


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _request_roots(tracer):
    return [
        s
        for s in tracer.finished_spans()
        if s.parent_id is None and s.name == "request"
    ]


# ---------------------------------------------------------------------- #
# adaptive sampling                                                      #
# ---------------------------------------------------------------------- #
class TestSampler:
    def test_head_rate_is_exact_over_1k_requests(self):
        # Acceptance gate: configured rate +/- 2% over >= 1k requests.
        # The deterministic stride makes it exact.
        for rate in (0.1, 0.25, 0.5):
            sampler = Sampler(head_rate=rate)
            kept = sum(sampler.head_sample() for _ in range(1000))
            assert kept == int(1000 * rate)
            assert abs(kept / 1000 - rate) <= 0.02
            assert sampler.requests_seen == 1000
            assert sampler.head_sampled == kept

    def test_head_rate_extremes(self):
        assert all(Sampler(head_rate=1.0).head_sample() for _ in range(50))
        off = Sampler(head_rate=0.0)
        assert not any(off.head_sample() for _ in range(50))

    def test_tail_keeps_every_failure_outcome(self):
        sampler = Sampler(head_rate=0.0)
        for outcome in ("failed", "timed_out", "error", "rejected", "abandoned"):
            assert sampler.tail_keep(outcome, 10.0, False), outcome
        assert not sampler.tail_keep("converged", 10.0, False)
        assert not sampler.tail_keep("cancelled", 10.0, False)

    def test_tail_keeps_detector_flagged(self):
        sampler = Sampler(head_rate=0.0)
        assert sampler.tail_keep("converged", 10.0, True)

    def test_tail_keeps_slowest_decile(self):
        sampler = Sampler(head_rate=0.0, min_slow_samples=32)
        for us in range(1, 101):
            sampler.observe(float(us))
        assert sampler.tail_keep("converged", 99.0, False)  # top decile
        assert not sampler.tail_keep("converged", 50.0, False)  # median

    def test_tail_disabled_drops_everything(self):
        sampler = Sampler(head_rate=0.0, tail_keep=False)
        assert not sampler.tail_keep("failed", 10.0, True)


class TestAdaptiveTracingInServeLayer:
    def test_converged_requests_are_sampled_out(self, matrix):
        tracer = Tracer(sampler=Sampler(head_rate=0.0, tail_keep=True))
        obs = Observability(tracer=tracer, registry=None)
        with repro.session(matrix, restart=10, tol=1e-8, obs=obs) as session:
            rng = np.random.default_rng(0)
            for _ in range(6):
                session.submit(rng.standard_normal(matrix.n_rows)).result()
        assert _request_roots(tracer) == []
        assert tracer.sampled_out_traces == 6
        assert tracer.open_spans == 0

    def test_head_sampling_in_serve_path_is_exact(self, matrix):
        tracer = Tracer(sampler=Sampler(head_rate=0.5, tail_keep=False))
        obs = Observability(tracer=tracer, registry=None)
        with repro.session(matrix, restart=10, tol=1e-8, obs=obs) as session:
            rng = np.random.default_rng(1)
            for _ in range(20):
                session.submit(rng.standard_normal(matrix.n_rows)).result()
        roots = _request_roots(tracer)
        assert len(roots) == 10
        assert all(r.attrs.get("sampled") == "head" for r in roots)
        assert tracer.sampled_out_traces == 10

    def test_tail_retains_every_timed_out_request(self, matrix):
        # Acceptance gate: 100% retention of failed / timed-out requests
        # with head sampling fully off.
        tracer = Tracer(sampler=Sampler(head_rate=0.0, tail_keep=True))
        obs = Observability(tracer=tracer, registry=None)
        farm = repro.farm(workers=1, name="tailfarm", obs=obs)
        farm.register("lap", matrix, restart=10, tol=1e-8)
        rng = np.random.default_rng(2)
        n_bad = 0
        futures = []
        with farm:
            for i in range(12):
                deadline = 0.0 if i % 3 == 0 else None  # every 3rd is DOA
                try:
                    futures.append(
                        farm.submit(
                            "lap",
                            rng.standard_normal(matrix.n_rows),
                            deadline_ms=deadline,
                        )
                    )
                except (RejectedError, DeadlineExceededError):
                    n_bad += 1
                    continue
            for future in futures:
                try:
                    future.result(timeout=30)
                except DeadlineExceededError:
                    n_bad += 1
        assert n_bad > 0
        roots = _request_roots(tracer)
        bad_roots = [
            r for r in roots if r.attrs.get("outcome") not in ("converged",)
        ]
        assert len(bad_roots) == n_bad  # every failure retained
        assert all(r.attrs.get("sampled") == "tail" for r in bad_roots)
        # Ledger reconciles: kept roots + sampled out == every request seen.
        assert len(roots) + tracer.sampled_out_traces == 12
        assert tracer.open_spans == 0

    def test_deferred_trace_reconstructs_stage_children(self, matrix):
        tracer = Tracer(sampler=Sampler(head_rate=0.0, tail_keep=True))
        obs = Observability(tracer=tracer, registry=None)
        farm = repro.farm(workers=1, name="stagesfarm", obs=obs)
        farm.register("lap", matrix, restart=10, tol=1e-8)
        with farm:
            with pytest.raises(DeadlineExceededError):
                farm.submit(
                    "lap", np.ones(matrix.n_rows), deadline_ms=0.0
                ).result(timeout=30)
        (root,) = _request_roots(tracer)
        children = [
            s for s in tracer.finished_spans() if s.parent_id == root.span_id
        ]
        names = {c.name for c in children}
        assert "submit" in names  # stage marks were replayed into spans
        for child in children:
            assert child.start_us >= root.start_us - 0.01
            assert child.end_us <= (root.end_us or 0) + 0.01


# ---------------------------------------------------------------------- #
# SLO engine                                                             #
# ---------------------------------------------------------------------- #
class TestSloEngine:
    POLICY = SloPolicy(
        availability_target=0.99, fast_window_s=10.0, slow_window_s=100.0
    )

    def test_empty_windows_are_healthy(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        engine.tracker("svc")
        status = engine.status("svc")
        assert status.fast.total == 0
        assert status.fast.availability == 1.0
        assert status.fast.burn_rate == 0.0
        assert not status.breached
        assert status.error_budget_remaining == 1.0

    def test_burn_rate_math(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        tracker = engine.tracker("svc")
        # 10 requests, 1 failed: error rate 0.1 against a 0.01 budget.
        book_batch(tracker, 10, 0.001, 0.002, failed=1)
        status = engine.status("svc")
        assert status.fast.total == 10
        assert status.fast.bad == 1
        assert status.fast.availability == pytest.approx(0.9)
        assert status.fast.burn_rate == pytest.approx(10.0)
        # Both windows see the same events here -> both over threshold?
        # fast threshold 14.4 > 10: no burn alert despite the slow window.
        assert status.slow.burn_rate == pytest.approx(10.0)
        assert not status.burn_alert

    def test_multi_window_alert_requires_both_windows(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        tracker = engine.tracker("svc")
        # Hard outage: 20/20 failed -> burn 100x in both windows.
        book_batch(tracker, 20, 0.001, 0.001, failed=20)
        status = engine.status("svc")
        assert status.burn_alert and status.breached
        assert status.error_budget_remaining == 0.0
        # Slide past the fast window but stay inside the slow one: the
        # fast window empties, so the alert clears (fast reacts first).
        clock.advance(50.0)
        status = engine.status("svc")
        assert status.fast.total == 0
        assert status.slow.total == 20
        assert not status.burn_alert

    def test_events_age_out_of_the_slow_window(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        tracker = engine.tracker("svc")
        book_batch(tracker, 5, 0.001, 0.001, failed=5)
        clock.advance(101.0)
        status = engine.status("svc")
        assert status.slow.total == 0
        assert status.error_budget_remaining == 1.0

    def test_cancellations_are_neutral(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        tracker = engine.tracker("svc")
        book_batch(tracker, 4, 0.001, 0.001, cancelled=2)
        tracker.record(Outcome("cancelled", True))  # dropped while queued
        status = engine.status("svc")
        assert status.fast.total == 2  # only the two good completions count
        assert status.fast.availability == 1.0

    def test_latency_objective(self):
        clock = FakeClock()
        policy = SloPolicy(
            availability_target=0.99,
            latency_p95_ms=1.0,
            fast_window_s=10.0,
            slow_window_s=100.0,
        )
        engine = SloEngine(policy, clock=clock)
        tracker = engine.tracker("svc")
        book_batch(tracker, 20, 0.005, 0.005)  # 10 ms >> 1 ms bound
        status = engine.status("svc")
        assert status.fast.latency_p95_ms == pytest.approx(10.0)
        assert status.fast.latency_breached
        assert status.latency_alert and status.breached

    def test_rejections_count_against_availability(self):
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        tracker = engine.tracker("svc")
        tracker.record(Outcome("rejected", True))
        tracker.record(Outcome("deadline_exceeded", True))
        tracker.record(Outcome("abandoned", True))
        book_batch(tracker, 1, 0.001, 0.001)
        status = engine.status("svc")
        assert status.fast.total == 4
        assert status.fast.bad == 3

    def test_nearest_rank_quantiles(self):
        ordered = [float(v) for v in range(1, 21)]
        assert nearest_rank(ordered, 0.50) == 10.0
        assert nearest_rank(ordered, 0.95) == 19.0
        assert nearest_rank(ordered, 0.99) == 20.0
        assert nearest_rank([], 0.95) == 0.0

    def test_window_reports_only_retained_outcomes(self):
        # More outcomes than the ring holds inside one window: the window
        # is count-bound, not time-bound.
        clock = FakeClock()
        engine = SloEngine(self.POLICY, clock=clock)
        ledger = engine.tracker("svc")
        book_batch(ledger, LEDGER_CAPACITY + 10, 0.001, 0.001, failed=10)
        status = engine.status("svc")
        assert status.slow.total == LEDGER_CAPACITY
        assert status.slow.bad == 0  # the failures fell off the ring
        assert ledger.snapshot().requests_failed == 10  # counters are lifetime

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(availability_target=1.5)
        with pytest.raises(ValueError):
            SloPolicy(fast_window_s=600.0, slow_window_s=300.0)
        assert SloPolicy(availability_target=0.999).error_budget == pytest.approx(
            0.001
        )


# ---------------------------------------------------------------------- #
# anomaly detectors                                                      #
# ---------------------------------------------------------------------- #
def _restart_event(iteration, restarts, residual, **kwargs):
    return ProbeEvent(
        solver="gmres",
        kind="restart",
        iteration=iteration,
        restarts=restarts,
        residual=residual,
        **kwargs,
    )


class TestAnomalyDetectors:
    def test_convergence_stagnation_fires_once(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc/tenant")
        for restart in range(10):  # flat residual: no improvement at all
            watch(_restart_event(restart * 10, restart, 1e-3))
        alerts = [a for a in ledger.alerts() if a.detector == "convergence_stagnation"]
        assert len(alerts) == 1  # one-shot per watch, not one per boundary
        assert alerts[0].severity == "warning"
        assert alerts[0].component == "svc/tenant"
        assert watch.alerts == 1

    def test_steady_convergence_raises_nothing(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc")
        residual = 1.0
        for restart in range(10):
            residual *= 0.5  # 50% improvement per boundary
            watch(_restart_event(restart * 10, restart, residual))
        watch(
            ProbeEvent(
                solver="gmres",
                kind="terminal",
                iteration=100,
                restarts=10,
                residual=residual,
                status=SolverStatus.CONVERGED,
            )
        )
        assert ledger.total == 0

    def test_residual_spike(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc")
        watch(_restart_event(10, 0, 1e-6))
        watch(_restart_event(20, 1, 1e-3))  # 1000x over the best seen
        (alert,) = ledger.alerts()
        assert alert.detector == "residual_spike"
        assert alert.severity == "warning"

    def test_nonfinite_residual_is_critical(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc")
        watch(_restart_event(10, 0, math.nan))
        (alert,) = ledger.alerts()
        assert alert.detector == "nonfinite_residual"
        assert alert.severity == "critical"

    def test_terminal_breakdown_is_critical(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc")
        watch(
            ProbeEvent(
                solver="gmres",
                kind="terminal",
                iteration=10,
                restarts=1,
                residual=1e-3,
                status=SolverStatus.BREAKDOWN,
            )
        )
        (alert,) = ledger.alerts()
        assert alert.detector == "solver_breakdown"
        assert alert.severity == "critical"

    def test_latency_spike_detector(self):
        ledger = AlertLedger()
        detector = LatencySpikeDetector(ledger, warmup=4, min_ms=1.0)
        for _ in range(6):
            assert detector.observe("svc", 0.010) is None  # steady 10 ms
        alert = detector.observe("svc", 0.200)  # 20x the EMA
        assert alert is not None and alert.detector == "latency_spike"
        # The spike was excluded from the EMA: steady traffic stays quiet.
        assert detector.observe("svc", 0.010) is None

    def test_breaker_flap_detector(self):
        clock = FakeClock()
        ledger = AlertLedger(clock=clock)
        detector = BreakerFlapDetector(ledger, flap_threshold=3, clock=clock)
        detector.observe("farm/t", 1)
        clock.advance(5.0)
        detector.observe("farm/t", 2)
        clock.advance(5.0)
        detector.observe("farm/t", 3)
        flapping = [a for a in ledger.alerts() if a.detector == "breaker_flapping"]
        assert len(flapping) == 1
        assert flapping[0].severity == "critical"
        trips = [a for a in ledger.alerts() if a.detector == "breaker_trip"]
        assert len(trips) == 3

    def test_cost_model_drift(self):
        class StubTimer:
            name = "stub"

            def __init__(self, records):
                self.records = records

        drifted = KernelRecord(label="spmv", precision="fp64")
        drifted.calls = 50
        drifted.model_seconds = 0.001
        drifted.wall_seconds = 0.100  # 100x the model: drift
        steady = KernelRecord(label="dot", precision="fp64")
        steady.calls = 50
        steady.model_seconds = 0.010
        steady.wall_seconds = 0.012  # 1.2x: fine
        ledger = AlertLedger()
        fired = cost_model_drift(StubTimer([drifted, steady]), ledger)
        assert len(fired) == 1
        assert fired[0].detector == "cost_model_drift"
        assert "spmv" in fired[0].component


# ---------------------------------------------------------------------- #
# health monitor                                                         #
# ---------------------------------------------------------------------- #
class TestHealthMonitor:
    def test_empty_monitor_is_healthy(self):
        report = HealthMonitor().health()
        assert report.state == "healthy"
        assert report.alerts_total == 0

    def test_critical_alert_makes_unhealthy_then_ages_out(self):
        clock = FakeClock()
        monitor = HealthMonitor(alert_window_s=120.0, clock=clock)
        monitor.ledger.emit("solve_error", "critical", "svc", "boom")
        report = monitor.health()
        assert report.state == "unhealthy"
        assert report.components["svc"].state == "unhealthy"
        assert any("critical" in r for r in report.components["svc"].reasons)
        clock.advance(121.0)  # alert leaves the active window
        assert monitor.health().state == "healthy"

    def test_warning_alert_degrades(self):
        monitor = HealthMonitor()
        monitor.ledger.emit("queue_saturation", "warning", "farm/t", "full")
        report = monitor.health()
        assert report.state == "degraded"
        assert report.components["farm/t"].state == "degraded"

    def test_slo_breach_makes_unhealthy(self):
        clock = FakeClock()
        policy = SloPolicy(
            availability_target=0.99, fast_window_s=10.0, slow_window_s=100.0
        )
        monitor = HealthMonitor(policy, clock=clock)
        book_batch(monitor.tracker("svc"), 20, 0.001, 0.001, failed=20)
        report = monitor.health()
        assert report.state == "unhealthy"
        assert report.slo["svc"].breached
        assert any(
            "SLO breached" in r for r in report.components["svc"].reasons
        )

    def test_healthz_payload_schema(self):
        monitor = HealthMonitor()
        monitor.register_component("svc")
        payload = monitor.healthz()
        assert payload["status"] == "healthy"
        assert payload["components"]["svc"] == {"state": "healthy", "reasons": []}
        assert payload["alerts"] == {"active": 0, "total": 0}
        assert payload["slo"] == {}
        json.dumps(payload)  # must be JSON-serializable

    def test_observe_batch_holdoff(self):
        clock = FakeClock()
        monitor = HealthMonitor(holdoff_s=30.0, clock=clock)

        class Report:
            exception = RuntimeError("kernel fault")
            nonfinite = False
            statuses = ()
            width = 2

        assert monitor.observe_batch("svc", Report(), 0.001) == 1
        assert monitor.observe_batch("svc", Report(), 0.001) == 0  # held off
        clock.advance(31.0)
        assert monitor.observe_batch("svc", Report(), 0.001) == 1


class TestHealthEndpoints:
    def test_healthz_and_slo_endpoints(self):
        reg = MetricsRegistry()
        monitor = HealthMonitor()
        book_batch(monitor.tracker("svc"), 1, 0.001, 0.002)
        with start_metrics_server(port=0, registry=reg, health=monitor) as server:
            base = server.url.rsplit("/", 1)[0]
            with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
                assert response.status == 200
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["status"] == "healthy"
            assert "svc" in payload["components"]
            with urllib.request.urlopen(base + "/slo", timeout=10) as response:
                slo = json.loads(response.read().decode("utf-8"))
            assert slo["svc"]["fast"]["total"] == 1
            assert slo["svc"]["breached"] is False

            # A critical alert flips /healthz to 503 with the same schema.
            monitor.ledger.emit("solve_error", "critical", "svc", "boom")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/healthz", timeout=10)
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "unhealthy"

    def test_endpoints_404_without_monitor(self):
        reg = MetricsRegistry()
        with start_metrics_server(port=0, registry=reg) as server:
            base = server.url.rsplit("/", 1)[0]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/healthz", timeout=10)
            assert excinfo.value.code == 404

    def test_watch_health_publishes_slo_metrics(self):
        reg = MetricsRegistry()
        monitor = HealthMonitor()
        book_batch(monitor.tracker("svc"), 4, 0.001, 0.002, failed=1)
        monitor.ledger.emit("residual_spike", "warning", "svc", "spike")
        watch_health(monitor, registry=reg)
        text = prometheus_text(reg)
        assert 'repro_slo_availability_ratio{scope="svc",window="fast"} 0.75' in text
        assert 'repro_slo_burn_rate{scope="svc",window="fast"}' in text
        assert 'repro_slo_error_budget_remaining_ratio{scope="svc"}' in text
        assert 'repro_alerts_total{detector="residual_spike"} 1' in text
        assert 'repro_alerts_active{severity="warning"} 1' in text
        assert 'repro_alerts_active{severity="critical"} 0' in text
        # 1 failure in 4 against a 99.9% target breaches both windows.
        assert 'repro_slo_breached{scope="svc"} 1' in text
        assert 'repro_health_state{component="svc"} 2' in text  # unhealthy


class TestOneOutcomeLedger:
    """Under a health monitor, ``stats()``, ``/slo`` and ``/healthz`` read
    one ledger per scope."""

    def test_session_stats_and_slo_share_the_ledger(self, matrix):
        monitor = HealthMonitor()
        obs = Observability(tracer=None, registry=None, health=monitor)
        with repro.session(
            matrix, restart=10, tol=1e-8, name="ledgersvc", obs=obs
        ) as session:
            assert monitor.tracker(session.name) is session.scheduler.telemetry
            assert session.submit(np.ones(matrix.n_rows)).result(timeout=30).converged
            with pytest.raises(ValueError):
                session.submit(np.ones(matrix.n_rows + 1)).result(timeout=30)
            stats = session.stats()
        status = monitor.slo.status(session.name)
        assert stats.requests_failed == status.fast.bad == 1
        assert stats.requests_completed + stats.requests_failed == status.fast.total

    def test_farm_scopes_match_their_stats(self, matrix):
        monitor = HealthMonitor()
        obs = Observability(tracer=None, registry=None, health=monitor)
        farm = repro.farm(workers=2, name="ledgerfarm", obs=obs)
        farm.register("a", matrix, restart=10, tol=1e-8)
        farm.register("b", matrix, restart=10, tol=1e-8)
        with farm:
            futures = [farm.submit(k, np.ones(matrix.n_rows)) for k in "aabbb"]
            futures.append(farm.submit("a", np.ones(matrix.n_rows + 1)))
            futures.append(farm.submit("b", np.ones(matrix.n_rows), deadline_ms=0.0))
            concurrent.futures.wait(futures, timeout=60)
            stats = farm.stats()
        scopes = {
            "ledgerfarm": stats.fleet,
            "ledgerfarm/a": stats.tenants["a"].serve,
            "ledgerfarm/b": stats.tenants["b"].serve,
        }
        assert stats.fleet.requests_failed == 2
        for scope, serve in scopes.items():
            window = monitor.slo.status(scope).fast
            assert window.total == (
                serve.requests_completed
                + serve.requests_failed
                - serve.requests_cancelled
            ), scope
            assert window.bad == serve.requests_failed, scope


# ---------------------------------------------------------------------- #
# chaos integration: the alert integrity gate                            #
# ---------------------------------------------------------------------- #
#: Detectors wired into the dispatch path; chaos alerts must be typed.
CHAOS_DETECTORS = {
    "solve_error",
    "solve_nonfinite",
    "solver_breakdown",
    "nonfinite_residual",
    "residual_spike",
    "convergence_stagnation",
    "latency_spike",
    "queue_saturation",
    "breaker_trip",
    "breaker_flapping",
}


def _run_farm(matrix, backend, monitor, tracer, *, n_requests, seed):
    obs = Observability(tracer=tracer, registry=None, health=monitor)
    farm = repro.farm(
        workers=2, name="chaosfarm", obs=obs, breaker_threshold=100
    )
    farm.register(
        "t1",
        factory=fault_injecting_session_factory(
            matrix, backend, restart=10, tol=1e-8, max_restarts=40, max_block=4
        ),
        n_rows=matrix.n_rows,
    )
    rng = np.random.default_rng(seed)
    with farm:
        futures = [
            farm.submit("t1", rng.standard_normal(matrix.n_rows))
            for _ in range(n_requests)
        ]
        done, not_done = concurrent.futures.wait(futures, timeout=120)
        assert not not_done
    return futures


class TestChaosAlertIntegrity:
    def test_fault_episodes_raise_typed_alerts(self, matrix):
        faulty = FaultInjectingBackend(
            get_backend("numpy"),
            seed=11,
            nan_rate=0.05,
            exception_rate=0.01,
            kernels={"spmv", "spmm"},
        )
        monitor = HealthMonitor(holdoff_s=0.0)
        tracer = Tracer(sampler=Sampler(head_rate=0.0, tail_keep=True))
        futures = _run_farm(
            matrix, faulty, monitor, tracer, n_requests=16, seed=5
        )
        assert faulty.total_injected > 0

        n_bad = 0
        for future in futures:
            exc = future.exception(timeout=0)
            if exc is not None:
                n_bad += 1
            elif future.result(timeout=0).status is not SolverStatus.CONVERGED:
                n_bad += 1
        assert n_bad > 0  # the adversary landed at these rates

        # Every alert is typed and severity-tagged; at least one fired.
        alerts = monitor.ledger.alerts()
        assert len(alerts) >= 1
        for alert in alerts:
            assert alert.detector in CHAOS_DETECTORS, alert
            assert alert.severity in ALERT_SEVERITIES
            assert alert.component.startswith("chaosfarm")
        assert any(a.severity == "critical" for a in alerts)

        # /healthz transitioned away from healthy while alerts are active.
        payload = monitor.healthz()
        assert payload["status"] != "healthy"
        assert payload["alerts"]["total"] == len(alerts)

        # Detector-flagged batches forced tail retention: every failed
        # request's trace survived sampling.
        roots = _request_roots(tracer)
        bad_roots = [
            r for r in roots if r.attrs.get("outcome") != "converged"
        ]
        assert len(bad_roots) >= n_bad
        assert len(roots) + tracer.sampled_out_traces == 16
        assert tracer.open_spans == 0

    def test_healthy_replay_raises_zero_alerts(self, matrix):
        monitor = HealthMonitor(holdoff_s=0.0)
        tracer = Tracer(sampler=Sampler(head_rate=0.0, tail_keep=True))
        futures = _run_farm(
            matrix,
            get_backend("numpy"),
            monitor,
            tracer,
            n_requests=16,
            seed=5,
        )
        for future in futures:
            assert future.result(timeout=0).status is SolverStatus.CONVERGED

        assert monitor.ledger.total == 0  # zero false positives
        report = monitor.health()
        assert report.state == "healthy"
        for status in report.slo.values():  # zero SLO burn anywhere
            assert status.fast.burn_rate == 0.0
            assert status.slow.burn_rate == 0.0
        # ... and nothing needed to be tail-kept.
        assert _request_roots(tracer) == []
        assert tracer.sampled_out_traces == 16


# ---------------------------------------------------------------------- #
# trace ledger across farm.close racing in-flight submits (satellite)    #
# ---------------------------------------------------------------------- #
class TestTraceLedgerAcrossClose:
    @pytest.mark.parametrize("drain", [True, False])
    def test_every_submit_gets_a_terminal_outcome(self, matrix, drain):
        tracer = Tracer()  # no sampler: every request must leave a root
        obs = Observability(tracer=tracer, registry=None)
        farm = repro.farm(workers=2, name=f"closefarm-{drain}", obs=obs)
        farm.register("lap", matrix, restart=10, tol=1e-8)
        rng = np.random.default_rng(7)
        futures = []
        submitted = 0
        try:
            for _ in range(24):
                futures.append(
                    farm.submit("lap", rng.standard_normal(matrix.n_rows))
                )
                submitted += 1
        except RejectedError:
            pass
        farm.close(drain=drain)  # races the in-flight requests

        done, not_done = concurrent.futures.wait(futures, timeout=60)
        assert not not_done

        n_ok = n_failed = 0
        for future in futures:
            if future.cancelled() or future.exception(timeout=0) is not None:
                n_failed += 1
            else:
                assert future.result(timeout=0).status in SolverStatus
                n_ok += 1
        assert n_ok + n_failed == submitted
        if not drain:
            pass  # abandonment is timing-dependent; the ledger check below
            # is the invariant either way.

        # Telemetry reconciles at quiescence.
        fleet = farm.stats().fleet
        assert fleet.requests_submitted == submitted
        assert fleet.requests_submitted == (
            fleet.requests_completed + fleet.requests_failed
        )

        # Span ledger: one finished request root per submit, every root
        # carries a terminal outcome, nothing left open.
        roots = _request_roots(tracer)
        assert len(roots) == submitted
        for root in roots:
            assert "outcome" in root.attrs, root.attrs
        assert tracer.open_spans == 0
