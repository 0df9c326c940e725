"""Component health aggregation over SLOs, alerts and breaker states.

The :class:`HealthMonitor` is the one object that answers "is the stack
healthy?".  It owns the :class:`~repro.obs.slo.SloEngine` and the
:class:`~repro.obs.anomaly.AlertLedger`, runs the pull-side detectors
(queue saturation, breaker flapping) against weakly referenced farms,
and folds everything into per component states:

* ``unhealthy`` — an open circuit breaker, a critical alert inside the
  alert window, or a breached SLO (both burn windows over threshold).
* ``degraded`` — a half-open breaker, a warning alert, or the fast SLO
  window burning error budget faster than 1× while the slow window is
  still fine.
* ``healthy`` — none of the above.

The serve layer reaches the monitor through
:class:`~repro.obs.Observability` (``obs=`` on sessions and farms); the
HTTP exporter serves :meth:`healthz` as ``/healthz`` (status 503 when
overall unhealthy) and the SLO evaluation as ``/slo``.
:func:`watch_health` mirrors the same aggregation into ``repro_slo_*`` /
``repro_alert*`` / ``repro_health_state`` metrics at scrape time.

Pull-side alerts are held off per (detector, component) for
``holdoff_s`` so a persistently saturated queue produces one alert per
holdoff window, not one per scrape.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from .anomaly import (
    AlertLedger,
    BreakerFlapDetector,
    ConvergenceWatch,
    LatencySpikeDetector,
)
from .slo import SloEngine, SloPolicy, SloStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..serve.telemetry import ServeTelemetry

__all__ = [
    "HEALTH_STATES",
    "ComponentHealth",
    "HealthReport",
    "HealthMonitor",
    "watch_health",
]

#: Component states, in escalation order (index = badness).
HEALTH_STATES = ("healthy", "degraded", "unhealthy")


@dataclass(frozen=True)
class ComponentHealth:
    """One component's verdict plus the reasons that produced it."""

    component: str
    state: str
    reasons: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {"state": self.state, "reasons": list(self.reasons)}


@dataclass(frozen=True)
class HealthReport:
    """The whole stack's health at one instant."""

    state: str  #: worst component state ("healthy" when nothing is known)
    components: Dict[str, ComponentHealth] = field(default_factory=dict)
    alerts_active: int = 0
    alerts_total: int = 0
    slo: Dict[str, SloStatus] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """The ``/healthz`` payload (see README for the schema)."""
        return {
            "status": self.state,
            "components": {
                name: health.as_dict()
                for name, health in sorted(self.components.items())
            },
            "alerts": {"active": self.alerts_active, "total": self.alerts_total},
            "slo": {
                scope: {
                    "breached": status.breached,
                    "error_budget_remaining": round(
                        status.error_budget_remaining, 6
                    ),
                    "fast_burn_rate": round(status.fast.burn_rate, 4),
                    "slow_burn_rate": round(status.slow.burn_rate, 4),
                }
                for scope, status in sorted(self.slo.items())
            },
        }


class HealthMonitor:
    """SLO engine + alert ledger + pull-side detectors, aggregated.

    Thread-safe; one monitor typically serves a whole process.  Farms are
    watched through weak references — a collected farm silently leaves
    the component map, it does not pin memory or report stale health.
    """

    def __init__(
        self,
        policy: SloPolicy = SloPolicy(),
        *,
        alert_window_s: float = 120.0,
        queue_saturation: float = 0.8,
        holdoff_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self.alert_window_s = alert_window_s
        self.slo = SloEngine(policy, clock=clock)
        self.ledger = AlertLedger(clock=clock)
        self.latency = LatencySpikeDetector(self.ledger)
        self.flaps = BreakerFlapDetector(self.ledger, clock=clock)
        self._queue_saturation = queue_saturation
        self._holdoff_s = holdoff_s
        self._lock = threading.Lock()
        self._components: set = set()
        self._farms: List[weakref.ref] = []
        self._last_fired: Dict[Tuple[str, str], float] = {}

    # -- registration ---------------------------------------------------- #
    def register_component(self, name: str) -> None:
        """Make ``name`` appear in health reports even before any signal."""
        with self._lock:
            self._components.add(name)

    def watch_farm(self, farm) -> None:
        """Watch a :class:`~repro.serve.farm.SolverFarm` (weakly)."""
        with self._lock:
            self._farms.append(weakref.ref(farm))
            self._components.add(farm.name)

    def tracker(self, scope: str) -> "ServeTelemetry":
        """The scope's outcome ledger (registers the scope as a component);
        a scheduler wired to this monitor books into and reads from it."""
        self.register_component(scope)
        return self.slo.tracker(scope)

    # -- push side (dispatch loop) --------------------------------------- #
    def convergence_watch(self, component: str) -> ConvergenceWatch:
        """A fresh probe-stream detector for one dispatched solve."""
        return ConvergenceWatch(self.ledger, component)

    def observe_batch(self, component: str, report, solve_seconds: float) -> int:
        """Feed one :class:`~repro.serve.scheduler.BatchReport`; returns
        the number of alerts fired (the dispatch loop uses a non-zero
        count to tail-flag the batch's traces)."""
        fired = 0
        if report.exception is not None and self._should_fire("solve_error", component):
            self.ledger.emit(
                "solve_error",
                "critical",
                component,
                f"batched solve raised {type(report.exception).__name__}",
                error=repr(report.exception),
                width=report.width,
            )
            fired += 1
        if report.nonfinite and self._should_fire("solve_nonfinite", component):
            self.ledger.emit(
                "solve_nonfinite",
                "critical",
                component,
                "batched solve produced non-finite results",
                width=report.width,
            )
            fired += 1
        if self.latency.observe(component, solve_seconds) is not None:
            fired += 1
        return fired

    def _should_fire(self, detector: str, component: str) -> bool:
        now = self._clock()
        key = (detector, component)
        with self._lock:
            if now - self._last_fired.get(key, -float("inf")) < self._holdoff_s:
                return False
            self._last_fired[key] = now
            return True

    # -- pull side (scrape / health query) ------------------------------- #
    def evaluate(self) -> None:
        """Run the pull-side detectors against the watched objects."""
        with self._lock:
            farms = list(self._farms)
        for ref in farms:
            farm = ref()
            if farm is None or farm.closed:
                continue
            stats = farm.stats()
            for key, tenant in stats.tenants.items():
                component = f"{farm.name}/{key}"
                if (
                    tenant.queue_depth >= self._queue_saturation * farm.queue_depth
                    and self._should_fire("queue_saturation", component)
                ):
                    self.ledger.emit(
                        "queue_saturation",
                        "warning",
                        component,
                        f"queue {tenant.queue_depth}/{farm.queue_depth} "
                        f"(>= {self._queue_saturation:.0%} full)",
                        queue_depth=tenant.queue_depth,
                        queue_limit=farm.queue_depth,
                    )
                self.flaps.observe(component, tenant.breaker_trips)

    def _breaker_states(self) -> Dict[str, int]:
        states: Dict[str, int] = {}
        with self._lock:
            farms = list(self._farms)
        for ref in farms:
            farm = ref()
            if farm is None or farm.closed:
                continue
            for key, state in farm.breaker_states().items():
                states[f"{farm.name}/{key}"] = state
        return states

    def health(self, *, evaluate: bool = True) -> HealthReport:
        """Aggregate everything into one :class:`HealthReport`."""
        if evaluate:
            self.evaluate()
        now = self._clock()
        slo_statuses = self.slo.evaluate(now=now)
        active = self.ledger.active(self.alert_window_s, now=now)
        breakers = self._breaker_states()
        with self._lock:
            components = set(self._components)
        components.update(slo_statuses)
        components.update(alert.component for alert in active)
        components.update(breakers)
        verdicts: Dict[str, ComponentHealth] = {}
        worst = 0
        for component in sorted(components):
            reasons: List[str] = []
            level = 0
            breaker = breakers.get(component)
            if breaker == 1:
                level = max(level, 2)
                reasons.append("circuit breaker open")
            elif breaker == 2:
                level = max(level, 1)
                reasons.append("circuit breaker half-open (probing)")
            for alert in active:
                if alert.component != component:
                    continue
                if alert.severity == "critical":
                    level = max(level, 2)
                else:
                    level = max(level, 1)
                reasons.append(f"{alert.severity} alert: {alert.detector}")
            status = slo_statuses.get(component)
            if status is not None:
                if status.breached:
                    level = max(level, 2)
                    reasons.append("SLO breached (both burn windows over threshold)")
                elif status.fast.burn_rate > 1.0 or status.fast.latency_breached:
                    level = max(level, 1)
                    reasons.append(
                        f"burning error budget ({status.fast.burn_rate:.1f}x "
                        "in the fast window)"
                    )
            verdicts[component] = ComponentHealth(
                component=component,
                state=HEALTH_STATES[level],
                reasons=tuple(reasons),
            )
            worst = max(worst, level)
        return HealthReport(
            state=HEALTH_STATES[worst],
            components=verdicts,
            alerts_active=len(active),
            alerts_total=self.ledger.total,
            slo=slo_statuses,
        )

    def healthz(self) -> Dict[str, object]:
        """The ``/healthz`` JSON payload."""
        return self.health().as_dict()


def watch_health(monitor: HealthMonitor, *, registry=None) -> None:
    """Publish a :class:`HealthMonitor`'s aggregation as metrics.

    Registers a scrape-time collector (weak reference, like the other
    watchers) exporting the ``repro_slo_*`` burn/budget/latency surface,
    alert counters and the numeric component health state.
    """
    from .metrics import default_registry

    registry = registry if registry is not None else default_registry()
    ref = weakref.ref(monitor)

    def collect(reg):
        live = ref()
        if live is None:
            return False
        report = live.health()
        availability = reg.gauge(
            "repro_slo_availability_ratio",
            "Windowed availability per SLO scope (1.0 = no errors).",
            ("scope", "window"),
        )
        burn = reg.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn multiple per scope and window (1.0 = on budget).",
            ("scope", "window"),
        )
        latency = reg.gauge(
            "repro_slo_latency_quantile_ms",
            "Windowed latency quantiles per SLO scope.",
            ("scope", "window", "quantile"),
        )
        budget = reg.gauge(
            "repro_slo_error_budget_remaining_ratio",
            "Slow-window error budget left (0 = exhausted).",
            ("scope",),
        )
        breached = reg.gauge(
            "repro_slo_breached",
            "1 when both burn windows exceed their alerting thresholds.",
            ("scope",),
        )
        for scope, status in report.slo.items():
            for window, window_report in (("fast", status.fast), ("slow", status.slow)):
                availability.set(window_report.availability, scope=scope, window=window)
                burn.set(window_report.burn_rate, scope=scope, window=window)
                for quantile, value in (
                    ("p50", window_report.latency_p50_ms),
                    ("p95", window_report.latency_p95_ms),
                    ("p99", window_report.latency_p99_ms),
                ):
                    latency.set(value, scope=scope, window=window, quantile=quantile)
            budget.set(status.error_budget_remaining, scope=scope)
            breached.set(1.0 if status.breached else 0.0, scope=scope)
        alerts_total = reg.counter(
            "repro_alerts_total", "Alerts emitted, by detector.", ("detector",)
        )
        for detector, count in live.ledger.counts_by_detector().items():
            alerts_total.set(count, detector=detector)
        active = reg.gauge(
            "repro_alerts_active",
            "Alerts inside the health alert window, by severity.",
            ("severity",),
        )
        counts = {"warning": 0, "critical": 0}
        for alert in live.ledger.active(live.alert_window_s):
            counts[alert.severity] = counts.get(alert.severity, 0) + 1
        for severity, count in counts.items():
            active.set(count, severity=severity)
        state = reg.gauge(
            "repro_health_state",
            "Component health (0=healthy, 1=degraded, 2=unhealthy).",
            ("component",),
        )
        for name, health in report.components.items():
            state.set(HEALTH_STATES.index(health.state), component=name)

    registry.register_collector(collect)
