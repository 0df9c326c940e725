"""repro.obs — observability for the whole stack.

Three cooperating pieces, all off the hot path by default:

* **Tracing** (:mod:`repro.obs.trace`): span-based request traces
  through the serve layer (``submit → queued → dispatch → solve →
  demux``) plus solver convergence probes, exportable as Chrome
  trace-event JSON (:func:`export_chrome_trace`) for
  ``chrome://tracing`` / Perfetto.  Off by default; enable per session
  (``obs=``), process-wide (:func:`enable_tracing`) or via config
  (``ReproConfig(obs=ObsConfig(tracing=True))``).
* **Metrics** (:mod:`repro.obs.metrics`): a registry of pull-based
  collectors that build fresh counter and gauge families on every
  scrape, with Prometheus text exposition (:func:`prometheus_text`) and
  an optional stdlib HTTP exporter (:func:`start_metrics_server`).
  Sessions, farms and kernel timers publish by being sampled at scrape
  time — the serve hot paths pay nothing.
* **Structured logging** (:mod:`repro.obs.log`): ``event key=value``
  records under the ``"repro"`` logger namespace for breaker trips,
  evictions and width-1 retries.

On top of the raw streams sits the health intelligence layer:

* **SLO engine** (:mod:`repro.obs.slo`): declarative availability +
  latency objectives evaluated per session, tenant and fleet over
  sliding windows of the serve layer's outcome ledgers, with
  multi-window burn-rate alerting.
* **Anomaly detectors** (:mod:`repro.obs.anomaly`): convergence
  stagnation / residual spikes from the probe stream, latency spikes,
  breaker flapping, queue saturation and cost-model drift — all feeding
  a bounded :class:`AlertLedger`.
* **Health surface** (:mod:`repro.obs.health`): a :class:`HealthMonitor`
  folding SLOs, alerts and breaker states into per-component
  ``healthy/degraded/unhealthy``, served as ``/healthz`` + ``/slo`` by
  the HTTP exporter.
* **Adaptive sampling** (:class:`Sampler` on :class:`Tracer`): head
  stride sampling with tail retention of failed / slow /
  detector-flagged requests, for always-on production tracing.
* **Offline analysis** (``python -m repro.obs.report``): critical-path
  and anomaly breakdowns from an exported Chrome trace JSON.

Quickstart::

    import repro
    from repro.obs import Observability, Tracer, export_chrome_trace

    obs = Observability(tracer=Tracer())      # tracing on, metrics on
    session = repro.session(matrix, obs=obs)
    session.submit(b).result()
    export_chrome_trace("trace.json", tracer=obs.tracer)
    print(repro.obs.prometheus_text())
"""

from __future__ import annotations

from typing import Optional

from ..config import ObsConfig, get_config
from .anomaly import (
    ALERT_SEVERITIES,
    Alert,
    AlertLedger,
    BreakerFlapDetector,
    ConvergenceWatch,
    LatencySpikeDetector,
    cost_model_drift,
)
from .health import (
    HEALTH_STATES,
    ComponentHealth,
    HealthMonitor,
    HealthReport,
    watch_health,
)
from .log import LOGGER_NAME, get_logger, log_event
from .slo import SloEngine, SloPolicy, SloStatus, WindowReport
from .metrics import (
    METRIC_NAME_RE,
    METRIC_NAMES,
    MetricsHTTPServer,
    MetricsRegistry,
    default_registry,
    prometheus_text,
    start_metrics_server,
    watch_farm,
    watch_session,
    watch_timer,
)
from .probe import PROBE_KINDS, ProbeEvent, span_probe
from .trace import (
    RequestTrace,
    Sampler,
    Span,
    Tracer,
    default_tracer,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
)

__all__ = [
    # bundle + config
    "Observability",
    "resolve_observability",
    "ObsConfig",
    # tracing
    "Tracer",
    "Span",
    "Sampler",
    "RequestTrace",
    "enable_tracing",
    "disable_tracing",
    "default_tracer",
    "export_chrome_trace",
    # SLOs
    "SloPolicy",
    "SloEngine",
    "SloStatus",
    "WindowReport",
    # anomaly detection
    "Alert",
    "AlertLedger",
    "ALERT_SEVERITIES",
    "ConvergenceWatch",
    "LatencySpikeDetector",
    "BreakerFlapDetector",
    "cost_model_drift",
    # health surface
    "HealthMonitor",
    "HealthReport",
    "ComponentHealth",
    "HEALTH_STATES",
    "watch_health",
    # solver probes
    "ProbeEvent",
    "PROBE_KINDS",
    "span_probe",
    # metrics
    "MetricsRegistry",
    "default_registry",
    "prometheus_text",
    "start_metrics_server",
    "MetricsHTTPServer",
    "watch_session",
    "watch_farm",
    "watch_timer",
    "METRIC_NAMES",
    "METRIC_NAME_RE",
    # logging
    "LOGGER_NAME",
    "get_logger",
    "log_event",
]

_UNSET = object()


class Observability:
    """The tracer + metrics-registry (+ health monitor) bundle a session
    or farm runs with.

    Omitted pieces resolve from ``get_config().obs`` at construction
    time: ``tracer`` from the process-default tracer (``None`` unless
    tracing is on), ``registry`` from the process registry (unless
    ``ObsConfig.metrics`` is off).  Pass ``tracer=None`` /
    ``registry=None`` explicitly to force a piece off regardless of
    config — :meth:`disabled` does both, which is what the overhead
    benchmark uses as its baseline.

    ``health`` is explicit-only (default ``None``): pass a
    :class:`HealthMonitor` to have served requests book their outcomes in
    its per-scope ledgers (which ``stats()`` then also reads), run its
    anomaly detectors in the dispatch loop, and have
    farms register themselves for breaker/queue health.
    """

    __slots__ = ("tracer", "registry", "health")

    def __init__(self, *, tracer=_UNSET, registry=_UNSET, health=None) -> None:
        if tracer is _UNSET:
            tracer = default_tracer()
        if registry is _UNSET:
            registry = default_registry() if get_config().obs.metrics else None
        self.tracer: Optional[Tracer] = tracer
        self.registry: Optional[MetricsRegistry] = registry
        self.health: Optional[HealthMonitor] = health

    @classmethod
    def disabled(cls) -> "Observability":
        """Everything off — no tracer, no metrics, regardless of config."""
        return cls(tracer=None, registry=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observability(tracing={'on' if self.tracer else 'off'}, "
            f"metrics={'on' if self.registry else 'off'}, "
            f"health={'on' if self.health else 'off'})"
        )


def resolve_observability(obs) -> Observability:
    """Normalise the ``obs=`` kwarg of sessions and farms.

    ``None`` → config-driven defaults; an :class:`Observability` passes
    through; a bare :class:`Tracer` is shorthand for "trace with this".
    """
    if obs is None:
        return Observability()
    if isinstance(obs, Observability):
        return obs
    if isinstance(obs, Tracer):
        return Observability(tracer=obs)
    raise TypeError(
        f"obs= expects an Observability, a Tracer or None, got {type(obs).__name__}"
    )
