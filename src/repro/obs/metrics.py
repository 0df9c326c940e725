"""Metrics registry with Prometheus text exposition.

A :class:`MetricsRegistry` is a list of *collectors*: callbacks that, on
every scrape, read the stack's existing snapshot state (session and farm
``stats()``, read from the :class:`~repro.serve.telemetry.ServeTelemetry`
outcome ledgers, circuit-breaker states, registry occupancy,
:class:`~repro.perfmodel.timer.KernelTimer` records) into a fresh
:class:`Scrape` of counter and gauge families, which is rendered and
dropped.  No sample outlives its scrape: the ledgers stay the only
store, and a closed or collected source is absent from the next
exposition because its collector has retired.  The pull model keeps the
serve hot paths untouched: nothing is published per request;
``prometheus_text()`` samples whatever the ledgers already maintain.

Metric names are validated at creation against the project convention —
snake_case with a ``repro_`` prefix (:data:`METRIC_NAME_RE`) — and the
full catalog the built-in collectors emit is :data:`METRIC_NAMES`, which
``tools/check_metric_names.py`` lints in CI.

Everything here is stdlib; the optional HTTP exporter
(:func:`start_metrics_server`) uses ``http.server`` only.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricFamily",
    "MetricsRegistry",
    "Scrape",
    "default_registry",
    "prometheus_text",
    "start_metrics_server",
    "MetricsHTTPServer",
    "watch_session",
    "watch_farm",
    "watch_timer",
    "METRIC_NAMES",
    "METRIC_NAME_RE",
]

#: Project metric-name convention: snake_case, ``repro_`` prefix.
METRIC_NAME_RE = re.compile(r"^repro_[a-z][a-z0-9_]*$")
_LABEL_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

#: Catalog of every metric the built-in collectors publish.  Kept as a
#: module constant so the CI metrics-name lint can validate the whole
#: surface without instantiating a farm.
METRIC_NAMES = (
    # request ledger (per session / tenant / fleet, via `scope`+`name`)
    "repro_requests_submitted_total",
    "repro_requests_completed_total",
    "repro_requests_failed_total",
    "repro_requests_retried_total",
    "repro_requests_timed_out_total",
    "repro_requests_cancelled_total",
    # batching
    "repro_batches_dispatched_total",
    "repro_block_iterations_total",
    "repro_batch_occupancy_mean",
    # latency + throughput (windowed summaries, exported as gauges)
    "repro_request_latency_ms",
    "repro_rhs_per_second",
    # farm lifecycle
    "repro_queue_depth",
    "repro_sessions_live",
    "repro_sessions_created_total",
    "repro_session_evictions_total",
    "repro_admission_rejections_total",
    "repro_breaker_trips_total",
    "repro_breaker_state",
    "repro_session_bytes_estimated",
    # per-kernel cost-model drift (from KernelTimer records)
    "repro_kernel_calls_total",
    "repro_kernel_model_seconds_total",
    "repro_kernel_wall_seconds_total",
    "repro_kernel_wall_model_ratio",
    # SLO engine + health surface (published by obs.health.watch_health)
    "repro_slo_availability_ratio",
    "repro_slo_burn_rate",
    "repro_slo_latency_quantile_ms",
    "repro_slo_error_budget_remaining_ratio",
    "repro_slo_breached",
    "repro_alerts_total",
    "repro_alerts_active",
    "repro_health_state",
)

def _validate_name(name: str) -> str:
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the convention "
            f"(snake_case with a 'repro_' prefix: {METRIC_NAME_RE.pattern})"
        )
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class MetricFamily:
    """One metric of one scrape: labelled samples, the last write wins."""

    __slots__ = ("kind", "name", "help", "labelnames", "_samples")

    def __init__(
        self, kind: str, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        self.kind = kind
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._samples: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[label]) for label in self.labelnames)
        self._samples[key] = float(value)

    def expose(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in sorted(self._samples.items()):
            pairs = ",".join(
                f'{label}="{_escape_label_value(v)}"'
                for label, v in zip(self.labelnames, key)
            )
            labels = "{" + pairs + "}" if pairs else ""
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Scrape:
    """The metric families of one :meth:`MetricsRegistry.collect` call.

    Collectors fill it through :meth:`counter` / :meth:`gauge`
    (get-or-create by name); :meth:`expose` renders it.  A scrape is
    owned by the one ``collect()`` that built it, so it takes no lock.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self, kind: str, name: str, help: str, labelnames: Sequence[str]
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = MetricFamily(kind, name, help, labelnames)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        elif tuple(labelnames) != family.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}, not {tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """A monotonic counter, copied from a lifetime ledger count."""
        return self._family("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """A point-in-time value (queue depth, breaker state, ratios)."""
        return self._family("gauge", name, help, labelnames)

    def expose(self) -> str:
        """Prometheus text exposition format 0.0.4, families by name."""
        lines: List[str] = []
        for _, family in sorted(self._families.items()):
            lines.extend(family.expose())
        return "\n".join(lines) + ("\n" if lines else "")


Collector = Callable[[Scrape], Optional[bool]]


class MetricsRegistry:
    """The scrape-time collector list; it stores no sample values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: List[Collector] = []

    def register_collector(self, collector: Collector) -> None:
        """Register a scrape-time callback.

        The collector is called with a fresh :class:`Scrape` on every
        :meth:`collect`; returning ``False`` unregisters it (the built-in
        watchers do this when their watched object has been closed or
        collected).
        """
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> Scrape:
        """Run all collectors into a new :class:`Scrape`, dropping the
        ones that signal retirement."""
        with self._lock:
            collectors = list(self._collectors)
        scrape = Scrape()
        dead = [c for c in collectors if c(scrape) is False]
        if dead:
            with self._lock:
                for collector in dead:
                    if collector in self._collectors:
                        self._collectors.remove(collector)
        return scrape

    def expose(self) -> str:
        """Prometheus text exposition format 0.0.4 of a fresh scrape."""
        return self.collect().expose()


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry the serve layer publishes into."""
    return _DEFAULT_REGISTRY


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Scrape ``registry`` (default: the process registry) as text."""
    return (registry or _DEFAULT_REGISTRY).expose()


# ---------------------------------------------------------------------- #
# built-in collectors: mirror the stack's snapshots at scrape time       #
# ---------------------------------------------------------------------- #
def _publish_serve_stats(reg: Scrape, stats, *, scope: str, name: str) -> None:
    """Mirror one :class:`ServeStats` snapshot into the scrape."""
    labels = ("scope", "name")
    where = dict(scope=scope, name=name)
    counters = (
        ("repro_requests_submitted_total", "Requests submitted (incl. sync rejections).", stats.requests_submitted),
        ("repro_requests_completed_total", "Requests whose future resolved with a result.", stats.requests_completed),
        ("repro_requests_failed_total", "Requests whose future resolved with an exception.", stats.requests_failed),
        ("repro_requests_retried_total", "Requests re-solved through the width-1 retry path.", stats.requests_retried),
        ("repro_requests_timed_out_total", "Requests that hit their deadline (queue or mid-solve).", stats.requests_timed_out),
        ("repro_requests_cancelled_total", "Requests cancelled by their client.", stats.requests_cancelled),
        ("repro_batches_dispatched_total", "Batched solves dispatched.", stats.batches_dispatched),
        ("repro_block_iterations_total", "Block-Arnoldi steps across all dispatches.", stats.block_iterations),
    )
    for metric, help, value in counters:
        reg.counter(metric, help, labels).set(value, **where)
    reg.gauge(
        "repro_batch_occupancy_mean",
        "Mean dispatched block width (micro-batching coalescing).",
        labels,
    ).set(stats.mean_batch_occupancy, **where)
    reg.gauge(
        "repro_rhs_per_second",
        "Completed requests per second of service uptime.",
        labels,
    ).set(stats.rhs_per_second, **where)
    latency = reg.gauge(
        "repro_request_latency_ms",
        "Windowed latency summaries (stage = queue_wait|solve|total).",
        ("scope", "name", "stage", "quantile"),
    )
    for stage, summary in (
        ("queue_wait", stats.queue_wait),
        ("solve", stats.solve),
        ("total", stats.latency),
    ):
        for quantile, value in (
            ("mean", summary.mean_ms),
            ("p50", summary.p50_ms),
            ("p95", summary.p95_ms),
            ("max", summary.max_ms),
        ):
            latency.set(value, stage=stage, quantile=quantile, **where)


def watch_session(session, *, registry: Optional[MetricsRegistry] = None) -> None:
    """Publish an :class:`~repro.serve.session.OperatorSession`'s stats.

    Holds only a weak reference.  The collector retires once the session
    is garbage-collected, closed, or released by the registry (its
    scheduler closed); from the next scrape on the session's series are
    absent, never frozen at their last values.
    """
    registry = registry or _DEFAULT_REGISTRY
    ref = weakref.ref(session)

    def collect(reg: Scrape):
        live = ref()
        if live is None or live.closed or live.scheduler.closed:
            return False
        _publish_serve_stats(reg, live.stats(), scope="session", name=live.name)

    registry.register_collector(collect)


def watch_farm(farm, *, registry: Optional[MetricsRegistry] = None) -> None:
    """Publish a :class:`~repro.serve.farm.SolverFarm`'s full snapshot.

    Fleet-level serve stats, per-tenant queue depths and breaker states,
    and the registry lifecycle counters — all sampled at scrape time from
    ``farm.stats()``.  Like :func:`watch_session`, the collector retires
    (and the farm's series vanish) once the farm is closed or collected.
    """
    registry = registry or _DEFAULT_REGISTRY
    ref = weakref.ref(farm)

    def collect(reg: Scrape):
        live = ref()
        if live is None or live.closed:
            return False
        stats = live.stats()
        farm_name = live.name
        _publish_serve_stats(reg, stats.fleet, scope="farm", name=farm_name)
        for key, tenant in stats.tenants.items():
            _publish_serve_stats(
                reg, tenant.serve, scope="tenant", name=f"{farm_name}/{key}"
            )
        farm_labels = ("name",)
        reg.gauge(
            "repro_sessions_live", "Warm sessions resident in the registry.", farm_labels
        ).set(stats.sessions_live, name=farm_name)
        reg.counter(
            "repro_sessions_created_total",
            "Sessions built (or rebuilt after eviction).",
            farm_labels,
        ).set(stats.sessions_created, name=farm_name)
        reg.counter(
            "repro_session_evictions_total", "LRU session evictions.", farm_labels
        ).set(stats.evictions, name=farm_name)
        reg.counter(
            "repro_admission_rejections_total",
            "Requests rejected at admission (backpressure + open breakers).",
            farm_labels,
        ).set(stats.rejections, name=farm_name)
        reg.counter(
            "repro_breaker_trips_total", "Circuit-breaker trips.", farm_labels
        ).set(stats.breaker_trips, name=farm_name)
        reg.gauge(
            "repro_session_bytes_estimated",
            "Estimated resident bytes of warm sessions.",
            farm_labels,
        ).set(stats.estimated_session_bytes, name=farm_name)
        depth = reg.gauge(
            "repro_queue_depth", "Queued requests per tenant.", ("name", "tenant")
        )
        for key, tenant in stats.tenants.items():
            depth.set(tenant.queue_depth, name=farm_name, tenant=key)
        breaker = reg.gauge(
            "repro_breaker_state",
            "Circuit-breaker state per tenant (0=closed, 1=open, 2=half_open).",
            ("name", "tenant"),
        )
        for key, state in live.breaker_states().items():
            breaker.set(state, name=farm_name, tenant=key)

    registry.register_collector(collect)


def watch_timer(
    timer, *, registry: Optional[MetricsRegistry] = None, backend: str = ""
) -> None:
    """Publish per-kernel wall-vs-model drift from a ``KernelTimer``.

    The ratio ``wall / model`` per kernel label is the cost-model
    calibration signal the ROADMAP's autotuning item consumes: 1.0 means
    the analytic model still predicts this machine; sustained drift means
    the model (or the machine) changed.
    """
    registry = registry or _DEFAULT_REGISTRY
    ref = weakref.ref(timer)

    def collect(reg: Scrape):
        live = ref()
        if live is None:
            return False
        labels = ("timer", "label", "precision", "backend")
        calls = reg.counter(
            "repro_kernel_calls_total", "Kernel invocations metered.", labels
        )
        model = reg.counter(
            "repro_kernel_model_seconds_total",
            "Modelled kernel seconds (analytic V100 cost model).",
            labels,
        )
        wall = reg.counter(
            "repro_kernel_wall_seconds_total", "Measured kernel wall seconds.", labels
        )
        ratio = reg.gauge(
            "repro_kernel_wall_model_ratio",
            "Measured/modelled seconds per kernel label (cost-model drift).",
            ("timer", "label", "backend"),
        )
        wall_by_label: Dict[str, float] = {}
        model_by_label: Dict[str, float] = {}
        for record in live.records:
            where = dict(
                timer=live.name,
                label=record.label,
                precision=record.precision,
                backend=backend,
            )
            calls.set(record.calls, **where)
            model.set(record.model_seconds, **where)
            wall.set(record.wall_seconds, **where)
            wall_by_label[record.label] = (
                wall_by_label.get(record.label, 0.0) + record.wall_seconds
            )
            model_by_label[record.label] = (
                model_by_label.get(record.label, 0.0) + record.model_seconds
            )
        for label, wall_seconds in wall_by_label.items():
            model_seconds = model_by_label.get(label, 0.0)
            if model_seconds > 0:
                ratio.set(
                    wall_seconds / model_seconds,
                    timer=live.name,
                    label=label,
                    backend=backend,
                )

    registry.register_collector(collect)


# ---------------------------------------------------------------------- #
# optional stdlib-only HTTP exporter                                     #
# ---------------------------------------------------------------------- #
class MetricsHTTPServer:
    """Serve ``/metrics`` (and, with a health monitor, ``/healthz`` +
    ``/slo``) from a daemon thread (``http.server`` only).

    ``health`` is duck-typed (a :class:`~repro.obs.health.HealthMonitor`
    in practice — this module stays import-free of the health layer):
    ``/healthz`` renders ``health.health().as_dict()`` as JSON with
    status 200, or 503 when overall state is ``unhealthy``; ``/slo``
    renders the per-scope SLO evaluation.  Without a monitor both paths
    are 404, exactly as before.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health=None,
    ) -> None:
        import json
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        def expose() -> bytes:
            return registry.expose().encode("utf-8")

        class Handler(BaseHTTPRequestHandler):
            def _send(self, status: int, body: bytes, content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?")[0]
                if path in ("/", "/metrics"):
                    self._send(
                        200,
                        expose(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                    return
                if health is not None and path == "/healthz":
                    report = health.health()
                    body = json.dumps(report.as_dict(), indent=2).encode("utf-8")
                    status = 503 if report.state == "unhealthy" else 200
                    self._send(status, body, "application/json; charset=utf-8")
                    return
                if health is not None and path == "/slo":
                    payload = {
                        scope: status.as_dict()
                        for scope, status in health.slo.evaluate().items()
                    }
                    body = json.dumps(payload, indent=2).encode("utf-8")
                    self._send(200, body, "application/json; charset=utf-8")
                    return
                self.send_error(404)

            def log_message(self, format: str, *args: object) -> None:
                pass  # stay quiet: this is a metrics sidecar, not a web app

        self._server = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-metrics-exporter-{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def start_metrics_server(
    port: int = 0,
    *,
    host: str = "127.0.0.1",
    registry: Optional[MetricsRegistry] = None,
    health=None,
) -> MetricsHTTPServer:
    """Start the HTTP exporter; ``port=0`` picks a free port.

    Pass a :class:`~repro.obs.health.HealthMonitor` as ``health`` to also
    serve ``/healthz`` and ``/slo``.  Returns the running server
    (``.url``, ``.port``, ``.close()``).
    """
    return MetricsHTTPServer(
        registry or _DEFAULT_REGISTRY, host=host, port=port, health=health
    )
