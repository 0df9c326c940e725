"""Tests for repro.obs — tracing, solver probes, metrics and logging.

Covers the observability layer in isolation (tracer semantics, Chrome
export validity, Prometheus exposition-format validation, the stdlib
HTTP exporter, structured logging) plus its two integration seams: the
``probe=`` hook on the solver drivers and the ``obs=`` kwarg on the
serving facade.  The chaos-integration test (span integrity under
faults) lives in ``test_obs_chaos.py``.
"""

from __future__ import annotations

import gc
import json
import logging
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.config import ObsConfig, ReproConfig, get_config, set_config
from repro.matrices import laplace2d
from repro.backends import get_backend
from repro.linalg.context import use_backend
from repro.obs import (
    METRIC_NAME_RE,
    METRIC_NAMES,
    AlertLedger,
    ConvergenceWatch,
    HealthMonitor,
    MetricsRegistry,
    Observability,
    ProbeEvent,
    PROBE_KINDS,
    RequestTrace,
    Tracer,
    export_chrome_trace,
    get_logger,
    log_event,
    prometheus_text,
    resolve_observability,
    span_probe,
    start_metrics_server,
)
from repro.obs.metrics import Scrape
from repro.obs.trace import _reset_default_tracer, default_tracer
from repro.perfmodel.costs import CostEstimate
from repro.perfmodel.timer import KernelTimer
from repro.serve import RejectedError, SolverFarm
from repro.serve.telemetry import LatencySummary
from repro.solvers import SolverStatus, block_gmres, cg, gmres
from repro.testing import FaultInjectingBackend


@pytest.fixture(autouse=True)
def _fresh_default_tracer():
    """Keep the process-default tracer out of cross-test state."""
    _reset_default_tracer()
    yield
    _reset_default_tracer()


@pytest.fixture
def matrix():
    return laplace2d(8)


# ---------------------------------------------------------------------- #
# tracer                                                                 #
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_root_span_starts_its_own_trace(self):
        tracer = Tracer()
        root = tracer.start_span("request", tenant="a")
        assert root.trace_id == root.span_id
        assert root.parent_id is None
        assert root.attrs == {"tenant": "a"}
        assert not root.finished

    def test_child_inherits_trace_and_parent(self):
        tracer = Tracer()
        root = tracer.start_span("request")
        child = tracer.start_span("solve", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_finish_is_idempotent_first_closer_wins(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.finish(outcome="first")
        end = span.end_us
        span.finish(outcome="second")
        assert span.end_us == end
        assert span.attrs["outcome"] == "second"  # attrs merge, end doesn't
        assert len(tracer.finished_spans()) == 1
        assert tracer.open_spans == 0

    def test_open_span_accounting(self):
        tracer = Tracer()
        spans = [tracer.start_span(f"s{i}") for i in range(3)]
        assert tracer.open_spans == 3
        for span in spans:
            span.finish()
        assert tracer.open_spans == 0

    def test_context_manager_records_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.start_span("risky") as span:
                raise ValueError("boom")
        assert span.finished
        assert "ValueError" in span.attrs["error"]

    def test_durations_are_nonnegative_and_ordered(self):
        tracer = Tracer()
        with tracer.start_span("outer") as outer:
            with tracer.start_span("inner", parent=outer) as inner:
                pass
        assert inner.start_us >= outer.start_us
        assert inner.end_us <= outer.end_us
        assert outer.duration_us >= inner.duration_us >= 0.0

    def test_capacity_bound_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.start_span(f"s{i}").finish()
        finished = tracer.finished_spans()
        assert len(finished) == 4
        assert [s.name for s in finished] == ["s6", "s7", "s8", "s9"]
        assert tracer.dropped_spans == 6

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear_empties_buffer(self):
        tracer = Tracer()
        tracer.start_span("s").finish()
        tracer.clear()
        assert tracer.finished_spans() == []
        assert tracer.dropped_spans == 0

    def test_spans_by_trace_groups_trees(self):
        tracer = Tracer()
        roots = [tracer.start_span("request") for _ in range(3)]
        for root in roots:
            tracer.start_span("solve", parent=root).finish()
            root.finish()
        groups = tracer.spans_by_trace()
        assert len(groups) == 3
        for root in roots:
            names = {s.name for s in groups[root.trace_id]}
            assert names == {"request", "solve"}

    def test_concurrent_span_churn_is_safe(self):
        tracer = Tracer()
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        def churn():
            barrier.wait()
            for i in range(per_thread):
                root = tracer.start_span("request")
                child = tracer.start_span("solve", parent=root)
                child.event("probe", i=i)
                child.finish()
                root.finish(outcome="converged")

        threads = [threading.Thread(target=churn) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.open_spans == 0
        assert len(tracer.finished_spans()) == n_threads * per_thread * 2
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(set(ids)) == len(ids)  # no id reuse under contention


class TestRequestTrace:
    def test_full_lifecycle_produces_nested_tree(self):
        tracer = Tracer()
        trace = RequestTrace(tracer, tenant="a", deadline_ms=None)
        trace.submitted()
        trace.dequeued(batch=7, width=2)
        trace.finish("converged", iterations=12)
        spans = tracer.finished_spans()
        assert tracer.open_spans == 0
        by_name = {s.name: s for s in spans}
        assert set(by_name) == {"request", "submit", "queued", "dispatch"}
        root = by_name["request"]
        assert root.attrs["outcome"] == "converged"
        assert root.attrs["iterations"] == 12
        assert root.attrs["tenant"] == "a"
        # Stage spans chain to the root and stay inside its interval...
        stages = [by_name["submit"], by_name["queued"], by_name["dispatch"]]
        for stage in stages:
            assert stage.parent_id == root.span_id
            assert stage.trace_id == root.trace_id
            assert stage.start_us >= root.start_us
            assert stage.end_us <= root.end_us
        # ...and do not overlap each other.
        assert by_name["submit"].end_us <= by_name["queued"].start_us
        assert by_name["queued"].end_us <= by_name["dispatch"].start_us
        assert by_name["dispatch"].attrs["batch"] == 7

    def test_finish_is_one_shot(self):
        tracer = Tracer()
        trace = RequestTrace(tracer)
        trace.finish("cancelled")
        trace.finish("converged")
        trace.dequeued()  # post-terminal transitions are ignored
        roots = [s for s in tracer.finished_spans() if s.name == "request"]
        assert len(roots) == 1
        assert roots[0].attrs["outcome"] == "cancelled"
        assert tracer.open_spans == 0

    def test_finish_without_dequeue_closes_open_stage(self):
        tracer = Tracer()
        trace = RequestTrace(tracer)
        trace.submitted()
        trace.finish("deadline_exceeded")
        assert tracer.open_spans == 0
        names = {s.name for s in tracer.finished_spans()}
        assert names == {"request", "submit", "queued"}

    def test_rejected_is_an_immediately_closed_tree(self, matrix):
        # A queue_depth=1 farm whose worker holds the one queued request
        # for a long batching window: the next submit is refused.
        tracer = Tracer()
        farm = SolverFarm(
            workers=1,
            queue_depth=1,
            max_wait_ms=5000.0,
            obs=Observability(tracer=tracer, registry=None),
        )
        farm.register("op", matrix, max_block=4, restart=8, tol=1e-8)
        b = np.ones(matrix.n_rows)
        with farm:
            queued = farm.submit("op", b)
            with pytest.raises(RejectedError):
                farm.submit("op", b)
            roots = [s for s in tracer.finished_spans() if s.name == "request"]
            assert len(roots) == 1
            assert roots[0].attrs["outcome"] == "rejected"
            assert roots[0].attrs["reason"] == "queue_full"
            farm.close(drain=False)
        with pytest.raises(RuntimeError, match="closed"):
            queued.result(timeout=10)
        assert tracer.open_spans == 0


# ---------------------------------------------------------------------- #
# Chrome trace-event export                                              #
# ---------------------------------------------------------------------- #
class TestChromeExport:
    def _traced_tracer(self):
        tracer = Tracer()
        trace = RequestTrace(tracer, tenant="a")
        trace.submitted()
        trace.dequeued(width=1)
        trace.root.event("gmres:restart", iteration=10, residual=1e-3)
        trace.finish("converged")
        return tracer

    def test_payload_is_valid_trace_event_json(self, tmp_path):
        tracer = self._traced_tracer()
        path = tmp_path / "trace.json"
        payload = export_chrome_trace(path, tracer=tracer)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["displayTimeUnit"] == "ms"
        assert on_disk["otherData"]["exporter"] == "repro.obs"
        assert on_disk["otherData"]["dropped_spans"] == 0

        events = on_disk["traceEvents"]
        assert events, "export produced no events"
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        for event in events:
            assert event["pid"] == 1
            if event["ph"] == "X":  # complete event: interval with args
                assert event["dur"] >= 0
                assert event["ts"] >= 0
                assert "trace_id" in event["args"]
                assert "span_id" in event["args"]
            elif event["ph"] == "i":  # instant event: thread-scoped
                assert event["s"] == "t"
                assert "span_id" in event["args"]
            else:  # metadata: names the thread track
                assert event["name"] == "thread_name"
                assert event["args"]["name"]

    def test_span_counts_reconcile(self):
        tracer = self._traced_tracer()
        payload = export_chrome_trace(tracer=tracer)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == len(tracer.finished_spans())
        assert len(instants) == sum(
            len(s.events) for s in tracer.finished_spans()
        )
        roots = [e for e in complete if "parent_id" not in e["args"]]
        assert len(roots) == 1
        assert roots[0]["args"]["outcome"] == "converged"

    def test_export_without_tracer_raises(self):
        with pytest.raises(RuntimeError, match="tracing is not enabled"):
            export_chrome_trace()


# ---------------------------------------------------------------------- #
# solver probes                                                          #
# ---------------------------------------------------------------------- #
class TestSolverProbes:
    def test_gmres_probe_sequence(self, matrix):
        b = np.ones(matrix.n_rows)
        events = []
        result = gmres(
            matrix, b, restart=10, tol=1e-10, max_restarts=50,
            probe=events.append,
        )
        assert result.status == SolverStatus.CONVERGED
        assert events, "probe saw no events"
        assert all(isinstance(e, ProbeEvent) for e in events)
        assert {e.kind for e in events} <= set(PROBE_KINDS)
        assert all(e.solver == "gmres" for e in events)
        terminals = [e for e in events if e.kind == "terminal"]
        assert len(terminals) == 1
        assert events[-1] is terminals[0]
        assert terminals[0].status == result.status
        assert terminals[0].iteration == result.iterations
        assert terminals[0].residual == pytest.approx(result.relative_residual)
        restarts = [e for e in events if e.kind == "restart"]
        assert restarts, "no restart-boundary events for a multi-cycle solve"
        iters = [e.iteration for e in restarts]
        assert iters == sorted(iters)
        # Probes observe, never mutate: the solve matches an unprobed run.
        bare = gmres(matrix, b, restart=10, tol=1e-10, max_restarts=50)
        assert bare.iterations == result.iterations
        np.testing.assert_allclose(bare.x, result.x)

    def test_gmres_zero_rhs_emits_single_terminal(self, matrix):
        events = []
        gmres(matrix, np.zeros(matrix.n_rows), probe=events.append)
        assert [e.kind for e in events] == ["terminal"]
        assert events[0].residual == 0.0
        assert events[0].status == SolverStatus.CONVERGED

    def test_cg_probe_terminal(self, matrix):
        events = []
        result = cg(
            matrix, np.ones(matrix.n_rows), tol=1e-10,
            explicit_residual_every=5, probe=events.append,
        )
        terminals = [e for e in events if e.kind == "terminal"]
        assert len(terminals) == 1
        assert terminals[0].solver == "cg"
        assert terminals[0].status == result.status
        residuals = [e for e in events if e.kind == "residual"]
        assert all(e.iteration % 5 == 0 for e in residuals)

    def test_block_gmres_probe_reports_deflation_and_statuses(self, matrix):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((matrix.n_rows, 3))
        events = []
        result = block_gmres(
            matrix, B, restart=8, tol=1e-8, max_restarts=60,
            probe=events.append,
        )
        terminals = [e for e in events if e.kind == "terminal"]
        assert len(terminals) == 1
        counts = terminals[0].extra["statuses"]
        assert sum(counts.values()) == B.shape[1]
        assert counts.get("CONVERGED", 0) == sum(
            1 for s in result.statuses if s == SolverStatus.CONVERGED
        )
        for event in events:
            if event.kind == "restart":
                # active == 0 is the final boundary: everything deflated.
                assert 0 <= event.active <= B.shape[1]
                assert event.deflated >= 0

    def test_span_probe_bridges_events_onto_span(self):
        tracer = Tracer()
        span = tracer.start_span("solve")
        hook = span_probe(span)
        hook(ProbeEvent(solver="gmres", kind="restart", iteration=10,
                        restarts=1, residual=1e-3))
        hook(ProbeEvent(solver="gmres", kind="terminal", iteration=12,
                        restarts=1, residual=1e-11,
                        status=SolverStatus.CONVERGED))
        span.finish()
        names = [name for name, _ts, _attrs in span.events]
        assert names == ["gmres:restart", "gmres:terminal"]
        _, _, attrs = span.events[-1]
        assert attrs["status"] == "CONVERGED"
        assert attrs["residual"] == 1e-11


class TestBreakdownAlert:
    """A solver breakdown books exactly one ``solver_breakdown`` alert."""

    def test_block_terminal_with_a_broken_down_column_fires(self):
        ledger = AlertLedger()
        watch = ConvergenceWatch(ledger, "svc")
        watch(ProbeEvent(
            solver="block-gmres", kind="terminal", iteration=4, restarts=1,
            residual=1e-3, active=0,
            extra={"statuses": {"CONVERGED": 2, "BREAKDOWN": 1}},
        ))
        (alert,) = ledger.alerts()
        assert alert.detector == "solver_breakdown"
        assert alert.severity == "critical"

    @pytest.mark.parametrize("width", [1, 3])
    def test_one_breakdown_dispatch_books_one_alert(self, matrix, width):
        # A batch runs SpMM and its width-1 retries SpMV: poison both.
        faulty = FaultInjectingBackend(
            get_backend("numpy"), nan_rate=1.0, kernels=("spmv", "spmm")
        )
        monitor = HealthMonitor()
        with use_backend(faulty):
            session = repro.session(
                matrix, restart=10, tol=1e-8, max_block=width,
                max_wait_ms=500.0, policy="block",
                obs=Observability(tracer=None, registry=None, health=monitor),
            )
        with session:
            futures = [
                session.submit(np.full(matrix.n_rows, c + 1.0))
                for c in range(width)
            ]
            statuses = [f.result(timeout=60).status for f in futures]
        assert statuses == [SolverStatus.BREAKDOWN] * width
        assert session.stats().batches_dispatched == 1
        assert monitor.ledger.counts_by_detector()["solver_breakdown"] == 1


# ---------------------------------------------------------------------- #
# metrics                                                                #
# ---------------------------------------------------------------------- #
#: One Prometheus text-format 0.0.4 sample line:
#:   name{label="value",...} value
#: Label values are quoted strings in which `\\`, `\"` and `\n` escapes
#: are legal and *any* other character — including `{`, `}` and `,` — may
#: appear raw, so the label block must be parsed as quoted strings, not
#: as "anything but braces".
_LABEL_RE = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{' + _LABEL_RE + r'(?:,' + _LABEL_RE + r')*\})?'
    r' (?P<value>-?[0-9.e+-]+|NaN|[+-]Inf)$'
)


def assert_valid_exposition(text: str):
    """Validate Prometheus text exposition format; return sample names."""
    names = []
    typed = set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert len(parts) == 4 and parts[3] in (
                "counter", "gauge", "histogram", "untyped"
            ), line
            typed.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        base = re.sub(r"_(bucket|sum|count)$", "", match.group("name"))
        assert base in typed or match.group("name") in typed, (
            f"sample {line!r} precedes its # TYPE header"
        )
        names.append(match.group("name"))
    assert text == "" or text.endswith("\n")
    return names


class TestMetrics:
    def test_label_set_must_match_declaration(self):
        c = Scrape().counter("repro_widgets_total", "Widgets.", ("kind",))
        with pytest.raises(ValueError):
            c.set(1)  # missing label
        with pytest.raises(ValueError):
            c.set(1, kind="a", extra="b")

    def test_name_convention_is_enforced(self):
        scrape = Scrape()
        for bad in ("widgets_total", "repro_CamelCase", "repro_", "repro_a-b"):
            with pytest.raises(ValueError):
                scrape.counter(bad, "nope")

    def test_reregistration_conflicts_are_rejected(self):
        scrape = Scrape()
        c = scrape.counter("repro_things_total", "Things.", ("kind",))
        assert scrape.counter("repro_things_total", "Things.", ("kind",)) is c
        with pytest.raises(ValueError):
            scrape.gauge("repro_things_total", "Things.", ("kind",))
        with pytest.raises(ValueError):
            scrape.counter("repro_things_total", "Things.", ("other",))

    def test_label_values_are_escaped(self):
        g = Scrape().gauge("repro_escape_check", "Escaping.", ("name",))
        g.set(1, name='with "quotes"\nand\\slash')
        _help, _type, line = g.expose()
        assert '\\"quotes\\"' in line and "\\n" in line and "\\\\slash" in line
        assert "\n" not in line

    def test_hostile_label_values_survive_exposition(self):
        """Escaping pin: every text-format 0.0.4 special plus raw braces,
        commas and equals signs must round-trip through the exposition
        and still validate as a well-formed sample line."""
        reg = MetricsRegistry()
        hostile = 'a\\b"c"\nd{e},f=g'
        reg.register_collector(
            lambda scrape: scrape.gauge(
                "repro_escape_pin", "Hostile labels.", ("name",)
            ).set(1, name=hostile)
        )
        text = prometheus_text(reg)
        names = assert_valid_exposition(text)
        assert "repro_escape_pin" in names
        (line,) = [
            ln for ln in text.splitlines() if ln.startswith("repro_escape_pin{")
        ]
        # Escapes per the spec: backslash, double-quote and newline only.
        assert 'name="a\\\\b\\"c\\"\\nd{e},f=g"' in line
        assert "\n" not in line

    def test_exposition_format_is_valid(self):
        reg = MetricsRegistry()

        def collect(scrape):
            scrape.counter("repro_requests_total", "Reqs.", ("scope",)).set(
                1, scope="x"
            )
            scrape.gauge("repro_depth", "Depth.").set(3)

        reg.register_collector(collect)
        names = assert_valid_exposition(prometheus_text(reg))
        assert "repro_requests_total" in names
        assert "repro_depth" in names

    def test_scrapes_share_no_samples(self):
        """Each scrape builds its families afresh: a series a collector
        stopped writing is gone, not frozen at its last value."""
        reg = MetricsRegistry()
        labels = iter([("a", "b"), ("b",)])

        def collect(scrape):
            depth = scrape.gauge("repro_depth", "Depth.", ("tenant",))
            for tenant in next(labels):
                depth.set(1, tenant=tenant)

        reg.register_collector(collect)
        assert 'repro_depth{tenant="a"} 1' in prometheus_text(reg)
        text = prometheus_text(reg)
        assert 'repro_depth{tenant="b"} 1' in text
        assert 'tenant="a"' not in text

    def test_catalog_names_are_valid_and_unique(self):
        assert len(set(METRIC_NAMES)) == len(METRIC_NAMES)
        for name in METRIC_NAMES:
            assert METRIC_NAME_RE.match(name), name

    def test_collector_retirement_on_false(self):
        reg = MetricsRegistry()
        calls = []

        def once(registry):
            calls.append(1)
            return False

        reg.register_collector(once)
        reg.expose()
        reg.expose()
        assert len(calls) == 1  # retired after the first scrape

    def test_session_collector_retires_with_its_session(self, matrix):
        reg = MetricsRegistry()
        session = repro.session(
            matrix, restart=10, tol=1e-8,
            obs=Observability(tracer=None, registry=reg),
        )
        with session:
            session.submit(np.ones(matrix.n_rows)).result()
            text = prometheus_text(reg)
            assert_valid_exposition(text)
            assert re.search(
                r'repro_requests_submitted_total\{scope="session",name="[^"]+"\} 1',
                text,
            )
        # Closing the session retires the collector AND drops its series:
        # a scrape must not keep exporting a dead session forever.
        text = prometheus_text(reg)
        assert_valid_exposition(text)
        assert 'scope="session"' not in text
        del session
        gc.collect()
        reg.collect()
        assert not reg._collectors  # weakref collector retired itself

    def test_farm_metrics_cover_breakers_and_queues(self, matrix):
        reg = MetricsRegistry()
        farm = repro.farm(
            workers=1, name="mfarm",
            obs=Observability(tracer=None, registry=reg),
        )
        farm.register("lap", matrix, restart=10, tol=1e-8)
        with farm:
            farm.submit("lap", np.ones(matrix.n_rows)).result()
            text = prometheus_text(reg)
            assert_valid_exposition(text)
            assert 'repro_breaker_state{name="mfarm",tenant="lap"} 0' in text
            assert 'repro_queue_depth{name="mfarm",tenant="lap"} 0' in text
            assert re.search(
                r'repro_requests_completed_total\{scope="farm",name="mfarm"\} 1',
                text,
            )
            assert re.search(
                r'repro_sessions_created_total\{name="mfarm"\} 1', text
            )
        # A closed farm's series disappear from the exposition.
        text = prometheus_text(reg)
        assert_valid_exposition(text)
        assert "mfarm" not in text

    def test_closing_a_same_named_session_keeps_the_live_ones_series(self, matrix):
        reg = MetricsRegistry()
        obs = Observability(tracer=None, registry=reg)
        live = repro.session(matrix, restart=10, tol=1e-8, obs=obs)
        closed = repro.session(matrix, restart=10, tol=1e-8, obs=obs)
        assert live.name == closed.name  # both take the default name
        with live:
            live.submit(np.ones(matrix.n_rows)).result()
            closed.close()
            text = prometheus_text(reg)
        assert_valid_exposition(text)
        assert (
            f'repro_requests_submitted_total{{scope="session",name="{live.name}"}} 1'
            in text
        )

    def test_closing_a_same_named_farm_keeps_the_live_ones_series(self, matrix):
        reg = MetricsRegistry()
        obs = Observability(tracer=None, registry=reg)
        live = repro.farm(workers=1, obs=obs)
        closed = repro.farm(workers=1, obs=obs)
        assert live.name == closed.name == "farm"
        live.register("lap", matrix, restart=10, tol=1e-8)
        with live:
            live.submit("lap", np.ones(matrix.n_rows)).result()
            closed.close()
            text = prometheus_text(reg)
        assert_valid_exposition(text)
        assert 'repro_queue_depth{name="farm",tenant="lap"} 0' in text
        assert re.search(
            r'repro_requests_completed_total\{scope="farm",name="farm"\} 1', text
        )


class TestHTTPExporter:
    def test_serves_metrics_on_ephemeral_port(self):
        reg = MetricsRegistry()
        reg.register_collector(
            lambda scrape: scrape.counter("repro_pings_total", "Pings.").set(1)
        )
        with start_metrics_server(port=0, registry=reg) as server:
            assert server.port != 0
            with urllib.request.urlopen(server.url, timeout=10) as response:
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert "repro_pings_total 1" in body
            assert_valid_exposition(body)
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.url.replace("/metrics", "/nope"), timeout=10
                )


# ---------------------------------------------------------------------- #
# structured logging                                                     #
# ---------------------------------------------------------------------- #
class TestLogging:
    def test_log_event_formats_key_values(self, caplog):
        logger = get_logger("serve")
        assert logger.name == "repro.serve"
        with caplog.at_level(logging.INFO, logger="repro"):
            log_event(logger, "batch_retry_sequential", width=4,
                      cause="nonfinite residual", ratio=0.3333333333)
        (record,) = caplog.records
        assert record.message.startswith("batch_retry_sequential ")
        assert "width=4" in record.message
        assert 'cause="nonfinite residual"' in record.message  # quoted: space
        assert "ratio=0.333333" in record.message  # floats use %.6g
        assert record.name == "repro.serve"

    def test_log_event_honours_level(self, caplog):
        logger = get_logger("serve.farm")
        with caplog.at_level(logging.WARNING, logger="repro"):
            log_event(logger, "ignored_info", detail="x")
            log_event(logger, "breaker_open", level=logging.WARNING, tenant="a")
        assert [r.message.split()[0] for r in caplog.records] == ["breaker_open"]
        assert caplog.records[0].levelno == logging.WARNING

    def test_root_logger_namespace(self):
        assert get_logger().name == "repro"


# ---------------------------------------------------------------------- #
# config + facade plumbing                                               #
# ---------------------------------------------------------------------- #
class TestObsConfig:
    def test_defaults_are_off_for_tracing_on_for_metrics(self):
        cfg = ReproConfig()
        assert cfg.obs.tracing is False
        assert cfg.obs.metrics is True
        assert cfg.obs.trace_capacity == 65536

    def test_frozen(self):
        with pytest.raises(Exception):
            ObsConfig().tracing = True  # type: ignore[misc]

    def test_config_driven_default_tracer(self):
        assert default_tracer() is None  # tracing off by default
        set_config(ReproConfig(obs=ObsConfig(tracing=True, trace_capacity=128)))
        _reset_default_tracer()
        tracer = default_tracer()
        assert isinstance(tracer, Tracer)
        assert default_tracer() is tracer  # lazy singleton
        assert tracer._capacity == 128

    def test_explicit_enable_overrides_config(self):
        tracer = repro.obs.enable_tracing(capacity=64)
        assert default_tracer() is tracer
        repro.obs.disable_tracing()
        assert default_tracer() is None  # even though config might say on

    def test_resolve_observability(self):
        assert resolve_observability(None).tracer is None  # config default
        tracer = Tracer()
        shorthand = resolve_observability(tracer)
        assert shorthand.tracer is tracer
        bundle = Observability.disabled()
        assert resolve_observability(bundle) is bundle
        with pytest.raises(TypeError):
            resolve_observability(42)

    def test_disabled_turns_everything_off(self):
        obs = Observability.disabled()
        assert obs.tracer is None and obs.registry is None

    def test_metrics_config_gates_default_registry(self):
        set_config(ReproConfig(obs=ObsConfig(metrics=False)))
        assert Observability().registry is None
        set_config(ReproConfig())
        assert Observability().registry is repro.obs.default_registry()

    def test_session_facade_accepts_obs(self, matrix):
        tracer = Tracer()
        with repro.session(matrix, restart=10, tol=1e-8, obs=tracer) as s:
            s.submit(np.ones(matrix.n_rows)).result()
        assert tracer.open_spans == 0
        roots = [x for x in tracer.finished_spans() if x.name == "request"]
        assert len(roots) == 1
        assert roots[0].attrs["outcome"] == "converged"


# ---------------------------------------------------------------------- #
# satellite pins: telemetry zeros + deterministic timer summaries        #
# ---------------------------------------------------------------------- #
class TestLatencySummaryEmptyWindow:
    def test_empty_window_is_all_zeros(self):
        summary = LatencySummary.from_seconds([])
        assert summary.count == 0
        assert summary.mean_ms == 0.0
        assert summary.p50_ms == 0.0
        assert summary.p95_ms == 0.0
        assert summary.max_ms == 0.0
        assert all(v == 0 for v in summary.as_dict().values())

    def test_empty_iterator_not_just_empty_list(self):
        summary = LatencySummary.from_seconds(iter(()))
        assert summary.count == 0 and summary.max_ms == 0.0

    def test_nonempty_window_converts_to_ms(self):
        summary = LatencySummary.from_seconds([0.001, 0.003])
        assert summary.count == 2
        assert summary.mean_ms == pytest.approx(2.0)
        assert summary.max_ms == pytest.approx(3.0)


class TestKernelTimerSummaryOrder:
    def test_equal_cost_labels_sort_by_name(self):
        timer = KernelTimer("t")
        # Insert in an order that would betray dict-insertion ordering.
        for label in ("zeta", "alpha", "mid"):
            timer.record(label, "double", CostEstimate(1.0, 0.0, 0.0))
        lines = timer.summary().splitlines()[1:]
        assert [line.split()[0] for line in lines] == ["alpha", "mid", "zeta"]

    def test_descending_cost_dominates(self):
        timer = KernelTimer("t")
        timer.record("cheap", "double", CostEstimate(0.5, 0.0, 0.0))
        timer.record("dear", "double", CostEstimate(2.0, 0.0, 0.0))
        timer.record("tied_b", "double", CostEstimate(1.0, 0.0, 0.0))
        timer.record("tied_a", "double", CostEstimate(1.0, 0.0, 0.0))
        lines = timer.summary().splitlines()[1:]
        labels = [line.split()[0] for line in lines]
        assert labels == ["dear", "tied_a", "tied_b", "cheap"]

    def test_summary_is_deterministic_across_insertion_orders(self):
        a, b = KernelTimer("x"), KernelTimer("x")
        costs = [("SpMV", 1.0), ("Norm", 1.0), ("Other", 0.25)]
        for label, seconds in costs:
            a.record(label, "double", CostEstimate(seconds, 0.0, 0.0))
        for label, seconds in reversed(costs):
            b.record(label, "double", CostEstimate(seconds, 0.0, 0.0))
        assert a.summary() == b.summary()
