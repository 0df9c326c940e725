"""Anomaly detectors over the serve and solver telemetry streams.

Each detector watches one raw stream the stack already produces and
turns pathological patterns into typed :class:`Alert` records:

* :class:`ConvergenceWatch` — per-dispatch consumer of the solver
  :class:`~repro.obs.probe.ProbeEvent` stream: non-finite residuals,
  residual spikes, convergence stagnation.
* :class:`LatencySpikeDetector` — per-component EMA over batch solve
  wall times; flags solves far above the component's recent normal.
* :class:`BreakerFlapDetector` — circuit-breaker trip counts per
  operator; one trip is a warning, repeated trips inside the window
  (flapping: trip → half-open probe succeeds → trip again) is critical.
* :func:`cost_model_drift` — wall vs modelled seconds per kernel label
  from a :class:`~repro.perfmodel.timer.KernelTimer`; a persistent ratio
  far from 1 means the cost model no longer predicts the machine.

Alerts flow into a shared bounded :class:`AlertLedger` which also mirrors
every alert as a structured ``obs/log.py`` line (``alert detector=...``),
so greppable logs and the in-memory ledger never disagree.  The
:class:`~repro.obs.health.HealthMonitor` owns the ledger and folds the
alert stream into component health.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .log import get_logger, log_event
from .probe import ProbeEvent

__all__ = [
    "Alert",
    "AlertLedger",
    "ConvergenceWatch",
    "LatencySpikeDetector",
    "BreakerFlapDetector",
    "cost_model_drift",
    "ALERT_SEVERITIES",
]

#: Severity levels, in escalation order.
ALERT_SEVERITIES = ("warning", "critical")

_LOGGER = get_logger("obs.anomaly")


@dataclass(frozen=True)
class Alert:
    """One structured anomaly observation.

    ``detector`` is the stable machine-readable kind (``residual_spike``,
    ``queue_saturation``, …); ``component`` names the scope it fired for
    (a farm, ``"<farm>/<tenant>"``, a session, a kernel label).
    ``t_monotonic`` is a ``time.monotonic`` timestamp — alerts order and
    window correctly across clock steps but carry no wall-clock time.
    """

    detector: str
    severity: str
    component: str
    message: str
    t_monotonic: float
    context: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "component": self.component,
            "message": self.message,
            "age_s": None,  # filled in by the health surface at render time
            "context": dict(self.context),
        }


class AlertLedger:
    """Bounded, thread-safe alert ring with per-detector counters.

    ``emit()`` is the single entry point: it stamps the alert, appends it
    (oldest falls off beyond ``capacity``), bumps the counters and mirrors
    the alert to the ``repro.obs.anomaly`` logger as a structured
    ``alert`` event (warning → ``WARNING``, critical → ``ERROR``).
    """

    def __init__(
        self,
        *,
        capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._alerts: Deque[Alert] = deque(maxlen=max(16, int(capacity)))
        self._by_detector: Dict[str, int] = {}
        self._total = 0

    def emit(
        self,
        detector: str,
        severity: str,
        component: str,
        message: str,
        **context: object,
    ) -> Alert:
        if severity not in ALERT_SEVERITIES:
            raise ValueError(f"severity must be one of {ALERT_SEVERITIES}, got {severity!r}")
        alert = Alert(
            detector=detector,
            severity=severity,
            component=component,
            message=message,
            t_monotonic=self._clock(),
            context=dict(context),
        )
        with self._lock:
            self._alerts.append(alert)
            self._by_detector[detector] = self._by_detector.get(detector, 0) + 1
            self._total += 1
        log_event(
            _LOGGER,
            "alert",
            level=logging.ERROR if severity == "critical" else logging.WARNING,
            detector=detector,
            severity=severity,
            component=component,
            message=message,
            **context,
        )
        return alert

    # -- reading --------------------------------------------------------- #
    @property
    def total(self) -> int:
        with self._lock:
            return self._total

    def counts_by_detector(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._by_detector)

    def alerts(self) -> List[Alert]:
        """Snapshot of the retained alerts (oldest first)."""
        with self._lock:
            return list(self._alerts)

    def active(self, window_s: float, *, now: Optional[float] = None) -> List[Alert]:
        """Alerts younger than ``window_s`` seconds (oldest first)."""
        now = self._clock() if now is None else now
        cutoff = now - window_s
        with self._lock:
            return [a for a in self._alerts if a.t_monotonic >= cutoff]


class ConvergenceWatch:
    """Probe-stream detector for one dispatched solve.

    Built per dispatch (``HealthMonitor.convergence_watch``) and chained
    in front of the span probe, it inspects every
    :class:`~repro.obs.probe.ProbeEvent` of that solve:

    * ``nonfinite_residual`` (critical) — the explicit residual went NaN
      or Inf at a restart/refinement boundary.
    * ``residual_spike`` (warning) — the residual jumped more than
      ``spike_factor``× above the best residual seen so far (divergence,
      not the plateauing of a hard problem).
    * ``convergence_stagnation`` (warning) — ``stall_boundaries``
      consecutive boundaries improved the residual by less than
      ``stall_improvement`` relative — the solver is burning restarts
      without converging.
    * ``solver_breakdown`` (critical) — the terminal status, or for a
      block solve any column's, is ``BREAKDOWN``.

    Each kind fires at most once per watch (one alert per episode, not
    one per restart), so a 400-restart stagnating solve costs one alert.
    """

    __slots__ = (
        "_ledger",
        "_component",
        "_best",
        "_last",
        "_flat",
        "_fired",
        "alerts",
        "_spike_factor",
        "_stall_boundaries",
        "_stall_improvement",
    )

    def __init__(
        self,
        ledger: AlertLedger,
        component: str,
        *,
        spike_factor: float = 100.0,
        stall_boundaries: int = 6,
        stall_improvement: float = 0.10,
    ) -> None:
        self._ledger = ledger
        self._component = component
        self._best = math.inf
        self._last = math.inf
        self._flat = 0
        self._fired: Dict[str, bool] = {}
        #: Alerts fired by this watch (the dispatch loop flags traces with it).
        self.alerts = 0
        self._spike_factor = spike_factor
        self._stall_boundaries = stall_boundaries
        self._stall_improvement = stall_improvement

    def _fire(self, detector: str, severity: str, message: str, **context) -> None:
        if self._fired.get(detector):
            return
        self._fired[detector] = True
        self.alerts += 1
        self._ledger.emit(detector, severity, self._component, message, **context)

    def __call__(self, event: ProbeEvent) -> None:
        residual = event.residual
        if event.kind == "terminal":
            # A block solve has no single status: it counts its columns'
            # terminal statuses in extra["statuses"].
            status = getattr(event.status, "name", None)
            columns = event.extra.get("statuses", {})
            if status == "BREAKDOWN" or columns.get("BREAKDOWN"):
                self._fire(
                    "solver_breakdown",
                    "critical",
                    f"{event.solver} reported breakdown",
                    solver=event.solver,
                    iteration=event.iteration,
                )
            return
        if not math.isfinite(residual):
            self._fire(
                "nonfinite_residual",
                "critical",
                f"{event.solver} residual became non-finite",
                solver=event.solver,
                iteration=event.iteration,
                restarts=event.restarts,
            )
            return
        if self._best < math.inf and residual > self._best * self._spike_factor:
            self._fire(
                "residual_spike",
                "warning",
                f"{event.solver} residual spiked {residual / self._best:.1f}x above best",
                solver=event.solver,
                residual=residual,
                best=self._best,
                restarts=event.restarts,
            )
        if self._last < math.inf:
            improvement = 1.0 - residual / self._last if self._last > 0 else 0.0
            if improvement < self._stall_improvement:
                self._flat += 1
                if self._flat >= self._stall_boundaries:
                    self._fire(
                        "convergence_stagnation",
                        "warning",
                        f"{event.solver} stagnated for {self._flat} boundaries",
                        solver=event.solver,
                        residual=residual,
                        restarts=event.restarts,
                    )
            else:
                self._flat = 0
        self._last = residual
        self._best = min(self._best, residual)


class LatencySpikeDetector:
    """Per-component EMA over batch solve wall times.

    A solve is a spike when it exceeds ``max(factor × ema, min_ms)``
    after the component has seen at least ``warmup`` samples — the floor
    keeps micro-solves (EMA of a few hundred microseconds) from alerting
    on scheduler jitter.
    """

    def __init__(
        self,
        ledger: AlertLedger,
        *,
        factor: float = 5.0,
        min_ms: float = 50.0,
        warmup: int = 8,
        alpha: float = 0.2,
    ) -> None:
        self._ledger = ledger
        self._lock = threading.Lock()
        self._factor = factor
        self._min_s = min_ms / 1e3
        self._warmup = max(1, int(warmup))
        self._alpha = alpha
        self._state: Dict[str, Tuple[float, int]] = {}  # component -> (ema, n)

    def observe(self, component: str, solve_seconds: float) -> Optional[Alert]:
        """Feed one batch solve wall time; returns the alert if one fired."""
        with self._lock:
            ema, n = self._state.get(component, (0.0, 0))
            spike = (
                n >= self._warmup
                and solve_seconds > max(self._factor * ema, self._min_s)
            )
            if not spike:
                # Spikes are excluded from the EMA so one outlier does not
                # raise the bar for detecting the next one.
                ema = (
                    solve_seconds
                    if n == 0
                    else (1.0 - self._alpha) * ema + self._alpha * solve_seconds
                )
                n += 1
            self._state[component] = (ema, n)
        if not spike:
            return None
        return self._ledger.emit(
            "latency_spike",
            "warning",
            component,
            f"solve took {solve_seconds * 1e3:.1f} ms vs {ema * 1e3:.1f} ms EMA",
            solve_ms=solve_seconds * 1e3,
            ema_ms=ema * 1e3,
        )


class BreakerFlapDetector:
    """Circuit-breaker trip pattern detector.

    Fed with cumulative per-operator trip counts (from
    :class:`~repro.serve.telemetry.FarmStats`), it alerts on every *new* trip
    (warning) and escalates to ``breaker_flapping`` (critical) when an
    operator trips ``flap_threshold`` times within ``flap_window_s`` —
    the open → half-open probe → open again loop that means the operator
    is sick, not unlucky.
    """

    def __init__(
        self,
        ledger: AlertLedger,
        *,
        flap_threshold: int = 3,
        flap_window_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._ledger = ledger
        self._lock = threading.Lock()
        self._clock = clock
        self._flap_threshold = max(2, int(flap_threshold))
        self._flap_window_s = flap_window_s
        self._seen: Dict[str, int] = {}  # component -> trip count already handled
        self._trips: Dict[str, Deque[float]] = {}
        self._flapping_fired: Dict[str, float] = {}

    def observe(self, component: str, trip_count: int) -> List[Alert]:
        """Reconcile one component's cumulative trip count; returns new alerts."""
        now = self._clock()
        fired: List[Alert] = []
        with self._lock:
            seen = self._seen.get(component, 0)
            new_trips = max(0, trip_count - seen)
            self._seen[component] = max(seen, trip_count)
            if not new_trips:
                return fired
            window = self._trips.setdefault(component, deque(maxlen=64))
            for _ in range(new_trips):
                window.append(now)
            cutoff = now - self._flap_window_s
            recent = sum(1 for t in window if t >= cutoff)
            flapping = (
                recent >= self._flap_threshold
                and now - self._flapping_fired.get(component, -math.inf)
                >= self._flap_window_s
            )
            if flapping:
                self._flapping_fired[component] = now
        fired.append(
            self._ledger.emit(
                "breaker_trip",
                "warning",
                component,
                f"circuit breaker tripped (total {trip_count})",
                trips=trip_count,
            )
        )
        if flapping:
            fired.append(
                self._ledger.emit(
                    "breaker_flapping",
                    "critical",
                    component,
                    f"{recent} breaker trips in {self._flap_window_s:.0f}s",
                    recent_trips=recent,
                    window_s=self._flap_window_s,
                )
            )
        return fired


def cost_model_drift(
    timer,
    ledger: AlertLedger,
    *,
    component: str = "perfmodel",
    min_calls: int = 10,
    max_ratio: float = 3.0,
    min_wall_seconds: float = 1e-3,
) -> List[Alert]:
    """Flag kernel labels whose wall/modelled ratio drifted out of band.

    ``timer`` is a :class:`~repro.perfmodel.timer.KernelTimer` (duck
    typed: only ``records()`` is used).  A label alerts when it has at
    least ``min_calls`` calls, at least ``min_wall_seconds`` of measured
    wall time, and wall/modelled outside ``[1/max_ratio, max_ratio]`` —
    the modelled device no longer predicts the machine for that kernel,
    so every consumer of the cost model (batching policy, figures) is
    suspect.  One alert per drifted label per call; holding repeats off
    is the caller's job.
    """
    fired: List[Alert] = []
    for record in timer.records:
        if record.calls < min_calls:
            continue
        if record.wall_seconds < min_wall_seconds or record.model_seconds <= 0:
            continue
        ratio = record.wall_seconds / record.model_seconds
        if 1.0 / max_ratio <= ratio <= max_ratio:
            continue
        fired.append(
            ledger.emit(
                "cost_model_drift",
                "warning",
                f"{component}/{record.label}",
                f"wall/model ratio {ratio:.2f} for {record.label} ({record.precision})",
                label=record.label,
                precision=record.precision,
                ratio=ratio,
                calls=record.calls,
            )
        )
    return fired
