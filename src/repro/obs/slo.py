"""Sliding-window SLO evaluation with multi-window burn-rate alerting.

A :class:`SloPolicy` declares the objectives — availability over the
served/failed ledger, optional latency quantile bounds — and the two
evaluation windows.  A :class:`SloTracker` is an outcome *sink*, listed
among a served request's sinks next to its telemetry:
:meth:`repro.serve.scheduler.PendingRequest.resolve` books the request's
:class:`~repro.serve.telemetry.Outcome` in it, one ledger entry per
request.  The :class:`SloEngine` owns one tracker per scope (``"farm"``,
``"farm/tenant"``, a session name, …) and evaluates the policy over both
windows on demand.

Multi-window burn-rate alerting follows the SRE-workbook shape: the
*fast* window (default 5 min) catches sharp regressions quickly, the
*slow* window (default 1 h) filters blips — the availability page fires
only when **both** windows burn error budget faster than their
thresholds.  Burn rate is ``error_rate / error_budget``: ``1.0`` means
the scope is consuming budget exactly as fast as the policy allows,
``14.4`` (the default fast threshold) means a 30-day budget would be
gone in ~2 days.

All timestamps are monotonic (``time.monotonic``), never wall-clock, so
windows are immune to clock steps; tests inject a fake clock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from ..config import get_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..serve.telemetry import Outcome

__all__ = [
    "SloPolicy",
    "SloTracker",
    "SloEngine",
    "WindowReport",
    "SloStatus",
]

#: Bound on per-tracker event retention (oldest events fall off first;
#: the slow window is also pruned by time, this is the memory backstop).
DEFAULT_EVENT_CAPACITY = 16384


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list (0.0 for empty)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[index]


@dataclass(frozen=True)
class SloPolicy:
    """Declarative service-level objectives plus alerting windows.

    availability_target:
        Fraction of *counted* requests (everything except client
        cancellations) that must succeed.  The error budget is
        ``1 - availability_target``.
    latency_p95_ms / latency_p99_ms:
        Optional latency objectives: the windowed quantile must stay at
        or below the bound.  ``0`` disables that quantile's objective.
    fast_window_s / slow_window_s:
        The two sliding evaluation windows (seconds, monotonic clock).
    fast_burn_threshold / slow_burn_threshold:
        Burn-rate multiples that trip the availability alert; the alert
        requires **both** windows over their threshold (multi-window
        alerting — fast reacts, slow confirms).
    """

    availability_target: float = 0.999
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError(
                f"availability_target must be in (0, 1), got {self.availability_target}"
            )
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("SLO windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ValueError("fast_window_s must not exceed slow_window_s")

    @property
    def error_budget(self) -> float:
        """Allowed error fraction (``1 - availability_target``)."""
        return 1.0 - self.availability_target

    @classmethod
    def from_config(cls) -> "SloPolicy":
        """Policy implied by the active :class:`repro.config.ObsConfig`."""
        obs = get_config().obs
        return cls(
            availability_target=obs.slo_availability_target,
            latency_p95_ms=obs.slo_latency_p95_ms,
            fast_window_s=obs.slo_fast_window_s,
            slow_window_s=obs.slo_slow_window_s,
        )


@dataclass(frozen=True)
class WindowReport:
    """The policy evaluated over one sliding window of one scope."""

    window_s: float
    total: int  #: counted requests (good + bad; cancellations excluded)
    bad: int
    availability: float  #: good / total (1.0 when the window is empty)
    error_rate: float  #: bad / total
    burn_rate: float  #: error_rate / policy error budget
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_breached: bool  #: a configured latency objective is exceeded

    def as_dict(self) -> Dict[str, object]:
        return {
            "window_s": self.window_s,
            "total": self.total,
            "bad": self.bad,
            "availability": round(self.availability, 6),
            "error_rate": round(self.error_rate, 6),
            "burn_rate": round(self.burn_rate, 4),
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p95_ms": round(self.latency_p95_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "latency_breached": self.latency_breached,
        }


@dataclass(frozen=True)
class SloStatus:
    """One scope's full SLO evaluation (both windows + alert verdicts)."""

    scope: str
    fast: WindowReport
    slow: WindowReport
    burn_alert: bool  #: both windows over their burn-rate threshold
    latency_alert: bool  #: a latency objective exceeded in both windows
    breached: bool  #: burn_alert or latency_alert
    error_budget_remaining: float  #: 1 - slow-window burn (clamped to [0, 1])

    def as_dict(self) -> Dict[str, object]:
        return {
            "scope": self.scope,
            "fast": self.fast.as_dict(),
            "slow": self.slow.as_dict(),
            "burn_alert": self.burn_alert,
            "latency_alert": self.latency_alert,
            "breached": self.breached,
            "error_budget_remaining": round(self.error_budget_remaining, 6),
        }


class SloTracker:
    """Per-scope sliding ledger of (timestamp, latency, goodness) events.

    An outcome sink of the serve layer: :meth:`record` ledgers one
    request's :class:`~repro.serve.telemetry.Outcome`.  Timeouts (queued
    or mid-solve) and failures are bad, other solved requests good.
    Client cancellations are *neutral* (latency kept for the quantiles,
    excluded from availability): the client changed its mind, the
    service did nothing wrong.
    """

    __slots__ = ("_lock", "_clock", "_events")

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        #: (t_monotonic, latency_s or None, good: Optional[bool])
        self._events: Deque[Tuple[float, Optional[float], Optional[bool]]] = deque(
            maxlen=max(64, int(capacity))
        )

    # -- the outcome-sink protocol --------------------------------------- #
    def record_submitted(self) -> None:
        """No-op: admission is not an outcome."""

    def record_dispatch(self, width: int, block_iterations: int) -> None:
        """No-op: the dispatch shape is throughput detail, not an SLO input."""

    def record(self, outcome: "Outcome") -> None:
        """Ledger one request's terminal outcome."""
        if outcome.name == "cancelled":
            good: Optional[bool] = None
        else:
            good = not (outcome.failed or outcome.timed_out)
        event = (self._clock(), outcome.latency_s, good)
        with self._lock:
            self._events.append(event)

    # -- evaluation ------------------------------------------------------ #
    def events_since(
        self, cutoff: float
    ) -> List[Tuple[float, Optional[float], Optional[bool]]]:
        with self._lock:
            return [event for event in self._events if event[0] >= cutoff]

    def window(self, policy: SloPolicy, window_s: float, now: float) -> WindowReport:
        """Evaluate ``policy`` over the trailing ``window_s`` seconds."""
        events = self.events_since(now - window_s)
        total = bad = 0
        latencies: List[float] = []
        for _, latency, good in events:
            if latency is not None:
                latencies.append(latency * 1e3)
            if good is None:
                continue
            total += 1
            if not good:
                bad += 1
        availability = 1.0 if total == 0 else (total - bad) / total
        error_rate = 0.0 if total == 0 else bad / total
        burn_rate = error_rate / policy.error_budget
        latencies.sort()
        p50 = _quantile(latencies, 0.50)
        p95 = _quantile(latencies, 0.95)
        p99 = _quantile(latencies, 0.99)
        latency_breached = bool(
            (policy.latency_p95_ms > 0 and p95 > policy.latency_p95_ms)
            or (policy.latency_p99_ms > 0 and p99 > policy.latency_p99_ms)
        )
        return WindowReport(
            window_s=window_s,
            total=total,
            bad=bad,
            availability=availability,
            error_rate=error_rate,
            burn_rate=burn_rate,
            latency_p50_ms=p50,
            latency_p95_ms=p95,
            latency_p99_ms=p99,
            latency_breached=latency_breached,
        )


class SloEngine:
    """Per-scope :class:`SloTracker` registry + policy evaluation.

    Scopes are free-form strings; the serve wiring uses the farm name for
    the fleet, ``"<farm>/<tenant>"`` per tenant, and the session name for
    a standalone session.  ``tracker(scope)`` is get-or-create so sinks
    can be built before any traffic exists.
    """

    def __init__(
        self,
        policy: Optional[SloPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else SloPolicy.from_config()
        self._clock = clock
        self._lock = threading.Lock()
        self._trackers: Dict[str, SloTracker] = {}

    def tracker(self, scope: str) -> SloTracker:
        with self._lock:
            tracker = self._trackers.get(scope)
            if tracker is None:
                tracker = SloTracker(clock=self._clock)
                self._trackers[scope] = tracker
            return tracker

    def scopes(self) -> List[str]:
        with self._lock:
            return sorted(self._trackers)

    def status(self, scope: str, *, now: Optional[float] = None) -> SloStatus:
        """Evaluate one scope against the policy (both windows)."""
        now = self._clock() if now is None else now
        policy = self.policy
        tracker = self.tracker(scope)
        fast = tracker.window(policy, policy.fast_window_s, now)
        slow = tracker.window(policy, policy.slow_window_s, now)
        burn_alert = (
            fast.burn_rate >= policy.fast_burn_threshold
            and slow.burn_rate >= policy.slow_burn_threshold
        )
        latency_alert = fast.latency_breached and slow.latency_breached
        return SloStatus(
            scope=scope,
            fast=fast,
            slow=slow,
            burn_alert=burn_alert,
            latency_alert=latency_alert,
            breached=burn_alert or latency_alert,
            error_budget_remaining=max(0.0, min(1.0, 1.0 - slow.burn_rate)),
        )

    def evaluate(self, *, now: Optional[float] = None) -> Dict[str, SloStatus]:
        """Evaluate every known scope; keyed by scope name."""
        now = self._clock() if now is None else now
        return {scope: self.status(scope, now=now) for scope in self.scopes()}
