"""Sliding-window SLO evaluation with multi-window burn-rate alerting.

A :class:`SloPolicy` declares the objectives — availability over the
served/failed outcomes, optional latency quantile bounds — and the two
evaluation windows.  The outcomes live in each scope's
:class:`~repro.serve.telemetry.ServeTelemetry` ledger, the object its
``stats()`` read too: :meth:`SloEngine.tracker` gets or creates it, and
:func:`window_report` evaluates one window of its entries.

Multi-window burn-rate alerting follows the SRE-workbook shape: the
*fast* window (default 5 min) catches sharp regressions quickly, the
*slow* window (default 1 h) filters blips — the availability page fires
only when **both** windows burn error budget faster than their
thresholds.  Burn rate is ``error_rate / error_budget``: ``1.0`` means
the scope is consuming budget exactly as fast as the policy allows,
``14.4`` (the default fast threshold) means a 30-day budget would be
gone in ~2 days.

A window sees only the outcomes its ledger retains
(:data:`~repro.serve.telemetry.LEDGER_CAPACITY`, 16384): above ~4.5
requests/s the default 1 h slow window is bounded by count, not time.

All timestamps are monotonic (``time.monotonic``), never wall-clock, so
windows are immune to clock steps; tests inject a fake clock.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import get_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..serve.telemetry import Outcome, ServeTelemetry

__all__ = [
    "SloPolicy",
    "SloEngine",
    "WindowReport",
    "SloStatus",
    "nearest_rank",
    "window_report",
]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an already-sorted sequence: the
    smallest value with at least ``q`` of the samples at or below it
    (0.0 for empty)."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
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


def window_report(
    entries: Sequence[Tuple[float, "Outcome"]], policy: SloPolicy, window_s: float
) -> WindowReport:
    """Evaluate ``policy`` over one window's ledger ``entries``.

    Timeouts (queued or mid-solve) and failures are bad, other outcomes
    good.  Client cancellations are *neutral* (latency kept for the
    quantiles, excluded from availability): the client changed its mind,
    the service did nothing wrong.
    """
    total = bad = 0
    latencies: List[float] = []
    for _, outcome in entries:
        latency = outcome.latency_s
        if latency is not None:
            latencies.append(latency * 1e3)
        if outcome.name == "cancelled":
            continue
        total += 1
        if outcome.failed or outcome.timed_out:
            bad += 1
    availability = 1.0 if total == 0 else (total - bad) / total
    error_rate = 0.0 if total == 0 else bad / total
    latencies.sort()
    p95 = nearest_rank(latencies, 0.95)
    p99 = nearest_rank(latencies, 0.99)
    return WindowReport(
        window_s=window_s,
        total=total,
        bad=bad,
        availability=availability,
        error_rate=error_rate,
        burn_rate=error_rate / policy.error_budget,
        latency_p50_ms=nearest_rank(latencies, 0.50),
        latency_p95_ms=p95,
        latency_p99_ms=p99,
        latency_breached=bool(
            (policy.latency_p95_ms > 0 and p95 > policy.latency_p95_ms)
            or (policy.latency_p99_ms > 0 and p99 > policy.latency_p99_ms)
        ),
    )


class SloEngine:
    """Per-scope outcome ledgers + policy evaluation.

    Scopes are free-form strings; the serve wiring uses the farm name for
    the fleet, ``"<farm>/<tenant>"`` per tenant, and the session name for
    a standalone session, so two live sessions with the same name share
    one ledger.  ``tracker(scope)`` is get-or-create so a scheduler can
    take its ledger before any traffic exists.
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
        self._ledgers: Dict[str, "ServeTelemetry"] = {}

    def tracker(self, scope: str) -> "ServeTelemetry":
        """The scope's outcome ledger, stamped with the engine's clock."""
        from ..serve.telemetry import ServeTelemetry  # serve imports obs

        with self._lock:
            ledger = self._ledgers.get(scope)
            if ledger is None:
                ledger = self._ledgers[scope] = ServeTelemetry(clock=self._clock)
            return ledger

    def scopes(self) -> List[str]:
        with self._lock:
            return sorted(self._ledgers)

    def status(self, scope: str, *, now: Optional[float] = None) -> SloStatus:
        """Evaluate one scope against the policy (both windows)."""
        now = self._clock() if now is None else now
        policy = self.policy
        ledger = self.tracker(scope)
        fast, slow = (
            window_report(ledger.outcomes_since(now - window_s), policy, window_s)
            for window_s in (policy.fast_window_s, policy.slow_window_s)
        )
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
