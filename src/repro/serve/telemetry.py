"""Service telemetry: per-request latency, batch occupancy, throughput.

The serve layer's observable surface.  A :class:`ServeTelemetry` records
one stream of request events — a session's, or one farm tenant's, or a
farm's whole fleet (:class:`FarmTelemetry` holds one per tenant plus the
fleet's and fans each event out to both).  It is updated from client
threads (submits, rejections) and worker threads (dispatches, drops)
under its own lock; :meth:`ServeTelemetry.snapshot` freezes everything
into an immutable :class:`ServeStats` dataclass, which is what
``benchmarks/_harness.py --serve`` dumps into ``BENCH_serve.json``.

Latency accounting per request:

* **queue wait** — from ``submit()`` to a worker popping the request
  into a batch (the price of micro-batching; bounded by ``max_wait_ms``
  when traffic is sparse);
* **solve** — wall time of the batched solve the request rode in (shared
  by all requests of the batch, by construction of batching);
* **total latency** — the sum, i.e. submit-to-future-resolution as the
  client experiences it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

import numpy as np

__all__ = [
    "LatencySummary",
    "ServeStats",
    "ServeTelemetry",
    "TelemetryFanout",
    "TenantStats",
    "FarmStats",
    "FarmTelemetry",
    "LATENCY_WINDOW",
]

#: Samples kept per latency series for the percentile summaries.  A
#: long-lived session serves an unbounded number of requests; the lifetime
#: counters stay exact while the latency distributions cover the most
#: recent window (4096 requests is plenty for stable p50/p95 and keeps
#: both memory and snapshot cost bounded).
LATENCY_WINDOW = 4096


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of a latency series (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float

    @classmethod
    def from_seconds(cls, samples: Iterable[float]) -> "LatencySummary":
        samples = list(samples)
        if not samples:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, max_ms=0.0)
        ms = np.asarray(samples, dtype=np.float64) * 1e3
        return cls(
            count=int(ms.size),
            mean_ms=float(ms.mean()),
            p50_ms=float(np.percentile(ms, 50)),
            p95_ms=float(np.percentile(ms, 95)),
            max_ms=float(ms.max()),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "max_ms": self.max_ms,
        }


@dataclass(frozen=True)
class ServeStats:
    """Immutable snapshot of a session's service counters.

    Attributes
    ----------
    requests_submitted / requests_completed / requests_failed:
        Lifetime request counters.  ``failed`` counts requests whose future
        resolved with an exception (rejected inputs, solver errors) — a
        column that merely did not converge completes *successfully* with a
        non-``CONVERGED`` status.
    requests_retried:
        Requests whose batched solve did not converge and that were
        re-solved through the width-1 path before resolving (batch-failure
        containment; see :mod:`repro.serve.scheduler`).
    requests_timed_out:
        Requests that hit their ``deadline_ms`` — either expired in the
        queue (failing fast with ``DeadlineExceededError``, also counted
        in ``requests_failed``) or resolved with status ``TIMED_OUT``
        mid-solve (also counted in ``requests_completed``).
    requests_cancelled:
        Requests cancelled by their client — dropped from the queue
        (their future resolves as cancelled; also counted in
        ``requests_failed``) or resolved with status ``CANCELLED``
        mid-solve (also counted in ``requests_completed``).  At
        quiescence ``submitted == completed + failed`` always holds; the
        timeout/cancellation counters classify *why* within those two.
    batches_dispatched:
        Number of batched solves the scheduler ran.
    batch_occupancy:
        Histogram ``{width: batches}`` of dispatched block widths — the
        direct readout of how well micro-batching coalesced the traffic.
    queue_wait / solve / latency:
        :class:`LatencySummary` of the per-request queue wait, solve time
        and total latency, over the most recent :data:`LATENCY_WINDOW`
        requests (counters are lifetime; the distributions are windowed
        so a long-lived session stays bounded in memory).
    rhs_per_second:
        Completed requests per second of service uptime (first submit to
        last completion) — the throughput number the serving gate checks.
    block_iterations:
        Total block-Arnoldi steps across all dispatches.
    """

    requests_submitted: int
    requests_completed: int
    requests_failed: int
    requests_retried: int
    requests_timed_out: int
    requests_cancelled: int
    batches_dispatched: int
    batch_occupancy: Dict[int, int]
    queue_wait: LatencySummary
    solve: LatencySummary
    latency: LatencySummary
    rhs_per_second: float
    elapsed_seconds: float
    block_iterations: int

    @property
    def mean_batch_occupancy(self) -> float:
        total = sum(self.batch_occupancy.values())
        if total == 0:
            return 0.0
        return sum(k * v for k, v in self.batch_occupancy.items()) / total

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by ``BENCH_serve.json``)."""
        return {
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_retried": self.requests_retried,
            "requests_timed_out": self.requests_timed_out,
            "requests_cancelled": self.requests_cancelled,
            "batches_dispatched": self.batches_dispatched,
            "batch_occupancy": {str(k): v for k, v in sorted(self.batch_occupancy.items())},
            "mean_batch_occupancy": self.mean_batch_occupancy,
            "queue_wait": self.queue_wait.as_dict(),
            "solve": self.solve.as_dict(),
            "latency": self.latency.as_dict(),
            "rhs_per_second": self.rhs_per_second,
            "elapsed_seconds": self.elapsed_seconds,
            "block_iterations": self.block_iterations,
        }


class ServeTelemetry:
    """Thread-safe accumulator behind :class:`ServeStats` snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._retried = 0
        self._timed_out = 0
        self._cancelled = 0
        self._batches = 0
        self._occupancy: Dict[int, int] = {}
        # Bounded windows: lifetime counters stay exact, the latency
        # distributions cover the most recent LATENCY_WINDOW requests.
        self._queue_waits: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._solves: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._block_iterations = 0
        self._first_submit: Optional[float] = None
        self._last_completion: Optional[float] = None

    # ------------------------------------------------------------------ #
    # recording (called by the scheduler)                                #
    # ------------------------------------------------------------------ #
    def record_submitted(self) -> None:
        now = time.perf_counter()
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = now

    def record_rejected(self) -> None:
        """A request failed validation before ever entering the queue."""
        with self._lock:
            self._submitted += 1
            self._failed += 1

    def record_timeout(self) -> None:
        """An already-submitted request expired in the queue.

        The batch assembler found its deadline lapsed and failed it fast
        with ``DeadlineExceededError`` — it was never dispatched.
        """
        with self._lock:
            self._failed += 1
            self._timed_out += 1

    def record_cancelled(self) -> None:
        """An already-submitted request was cancelled while queued.

        Its future resolved as cancelled; the request was dropped before
        dispatch and no solver work was spent on it.
        """
        with self._lock:
            self._failed += 1
            self._cancelled += 1

    def record_abandoned(self) -> None:
        """An already-submitted request was failed by a non-drain close."""
        with self._lock:
            self._failed += 1

    def record_batch(
        self,
        queue_waits: List[float],
        solve_seconds: "float | List[float]",
        *,
        block_iterations: int = 0,
        failed: int = 0,
        retried: int = 0,
        timed_out: int = 0,
        cancelled: int = 0,
    ) -> None:
        """Account one dispatched batch.

        ``queue_waits`` has one entry per request in the batch;
        ``solve_seconds`` is the batch solve wall time (a scalar shared by
        every request, or one entry per request when sequential retries
        gave some of them extra solve time); ``failed`` counts requests
        whose future was resolved with an exception (the rest completed)
        and ``retried`` those that went through the width-1 retry.
        ``timed_out`` / ``cancelled`` count requests of this batch that
        resolved with status ``TIMED_OUT`` / ``CANCELLED`` mid-solve —
        they still count as completed (their future carries a result).
        """
        now = time.perf_counter()
        occupancy = len(queue_waits)
        if isinstance(solve_seconds, (int, float)):
            solve_seconds = [float(solve_seconds)] * occupancy
        if len(solve_seconds) != occupancy:
            raise ValueError("solve_seconds must match the batch occupancy")
        with self._lock:
            self._batches += 1
            self._occupancy[occupancy] = self._occupancy.get(occupancy, 0) + 1
            self._completed += occupancy - failed
            self._failed += failed
            self._retried += retried
            self._timed_out += timed_out
            self._cancelled += cancelled
            self._block_iterations += block_iterations
            self._queue_waits.extend(queue_waits)
            self._solves.extend(solve_seconds)
            self._latencies.extend(
                w + s for w, s in zip(queue_waits, solve_seconds)
            )
            self._last_completion = now

    # ------------------------------------------------------------------ #
    # reading                                                            #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ServeStats:
        """Freeze the counters into an immutable :class:`ServeStats`."""
        with self._lock:
            if self._first_submit is not None and self._last_completion is not None:
                elapsed = max(self._last_completion - self._first_submit, 0.0)
            else:
                elapsed = 0.0
            throughput = self._completed / elapsed if elapsed > 0 else 0.0
            return ServeStats(
                requests_submitted=self._submitted,
                requests_completed=self._completed,
                requests_failed=self._failed,
                requests_retried=self._retried,
                requests_timed_out=self._timed_out,
                requests_cancelled=self._cancelled,
                batches_dispatched=self._batches,
                batch_occupancy=dict(self._occupancy),
                queue_wait=LatencySummary.from_seconds(self._queue_waits),
                solve=LatencySummary.from_seconds(self._solves),
                latency=LatencySummary.from_seconds(self._latencies),
                rhs_per_second=throughput,
                elapsed_seconds=elapsed,
                block_iterations=self._block_iterations,
            )


class TelemetryFanout:
    """Forward the recording half of :class:`ServeTelemetry` to many sinks.

    The farm accounts every event twice — once in the tenant's own
    telemetry, once in the fleet-wide aggregate — so both levels report
    exact counters and true (not re-derived) latency percentiles.  A
    fanout bundles the two sinks behind the single-telemetry interface
    :func:`~repro.serve.scheduler.run_batch` expects; ``snapshot()``
    reads the *first* sink (the tenant).
    """

    def __init__(self, *sinks: ServeTelemetry) -> None:
        if not sinks:
            raise ValueError("TelemetryFanout needs at least one sink")
        self._sinks = sinks

    def record_submitted(self) -> None:
        for sink in self._sinks:
            sink.record_submitted()

    def record_rejected(self) -> None:
        for sink in self._sinks:
            sink.record_rejected()

    def record_timeout(self) -> None:
        for sink in self._sinks:
            sink.record_timeout()

    def record_cancelled(self) -> None:
        for sink in self._sinks:
            sink.record_cancelled()

    def record_abandoned(self) -> None:
        for sink in self._sinks:
            sink.record_abandoned()

    def record_batch(self, queue_waits, solve_seconds, **kwargs) -> None:
        for sink in self._sinks:
            sink.record_batch(queue_waits, solve_seconds, **kwargs)

    def snapshot(self) -> ServeStats:
        return self._sinks[0].snapshot()


@dataclass(frozen=True)
class TenantStats:
    """One tenant's slice of a :class:`FarmStats` snapshot.

    ``fairness_share`` is the tenant's fraction of all completed fleet
    requests; ``expected_share`` its registered weight over the total
    registered weight — the two numbers whose divergence the fairness
    accounting watches (a starved tenant shows ``fairness_share`` well
    below ``expected_share`` while it has queued work).
    """

    key: str
    weight: float
    queue_depth: int
    rejected: int
    evictions: int
    breaker_trips: int
    fairness_share: float
    expected_share: float
    serve: ServeStats

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "weight": self.weight,
            "queue_depth": self.queue_depth,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "breaker_trips": self.breaker_trips,
            "fairness_share": self.fairness_share,
            "expected_share": self.expected_share,
            "serve": self.serve.as_dict(),
        }


@dataclass(frozen=True)
class FarmStats:
    """Immutable snapshot of a :class:`~repro.serve.farm.SolverFarm`.

    ``fleet`` aggregates every request of every tenant (RHS/s, latency
    percentiles, occupancy) from its own exact counters — it is not a
    re-summation of the per-tenant snapshots.  ``tenants`` maps operator
    key to :class:`TenantStats`.
    """

    fleet: ServeStats
    tenants: Dict[str, TenantStats]
    sessions_live: int
    sessions_created: int
    evictions: int
    rejections: int
    breaker_trips: int
    estimated_session_bytes: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by ``BENCH_farm.json``)."""
        return {
            "fleet": self.fleet.as_dict(),
            "tenants": {k: t.as_dict() for k, t in sorted(self.tenants.items())},
            "sessions_live": self.sessions_live,
            "sessions_created": self.sessions_created,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "breaker_trips": self.breaker_trips,
            "estimated_session_bytes": self.estimated_session_bytes,
        }


class FarmTelemetry:
    """Thread-safe fleet-and-tenant accumulator of a solver farm.

    Owns one :class:`ServeTelemetry` per tenant plus a fleet-wide one;
    :meth:`sink` hands the farm a :class:`TelemetryFanout` recording into
    both.  Registry lifecycle events (session creations, LRU evictions)
    and admission rejections are counted here as well, so one
    :meth:`snapshot` call captures the whole observable state of the
    farm.

    With an :class:`~repro.obs.slo.SloEngine` attached (``slo=``), every
    sink additionally fans out into the engine's per-tenant
    (``"<scope>/<key>"``) and fleet (``"<scope>"``) trackers — the SLO
    ledger rides the existing fanout, no extra hook points in the farm.
    """

    def __init__(self, *, slo=None, scope: str = "farm") -> None:
        self._lock = threading.Lock()
        self._fleet = ServeTelemetry()
        self._tenants: Dict[str, ServeTelemetry] = {}
        self._sinks: Dict[str, TelemetryFanout] = {}
        self._rejected: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}
        self._breaker_trips: Dict[str, int] = {}
        self._creations = 0
        self._slo = slo
        self._scope = scope

    # ------------------------------------------------------------------ #
    # recording                                                          #
    # ------------------------------------------------------------------ #
    def tenant(self, key: str) -> ServeTelemetry:
        """The per-tenant telemetry for ``key`` (created on first use)."""
        with self._lock:
            telemetry = self._tenants.get(key)
            if telemetry is None:
                telemetry = self._tenants[key] = ServeTelemetry()
            return telemetry

    def sink(self, key: str) -> TelemetryFanout:
        """A recording sink feeding both ``key``'s telemetry and the fleet's."""
        with self._lock:
            fanout = self._sinks.get(key)
            if fanout is None:
                tenant = self._tenants.get(key)
                if tenant is None:
                    tenant = self._tenants[key] = ServeTelemetry()
                sinks = [tenant, self._fleet]
                if self._slo is not None:
                    sinks.append(self._slo.tracker(f"{self._scope}/{key}"))
                    sinks.append(self._slo.tracker(self._scope))
                fanout = self._sinks[key] = TelemetryFanout(*sinks)
            return fanout

    def record_rejected(self, key: str) -> None:
        """One admission rejection (backpressure) for tenant ``key``."""
        with self._lock:
            self._rejected[key] = self._rejected.get(key, 0) + 1
        self.sink(key).record_rejected()

    def record_eviction(self, key: str) -> None:
        """The registry evicted ``key``'s warmed session."""
        with self._lock:
            self._evictions[key] = self._evictions.get(key, 0) + 1

    def record_breaker_trip(self, key: str) -> None:
        """``key``'s circuit breaker tripped (its session is quarantined)."""
        with self._lock:
            self._breaker_trips[key] = self._breaker_trips.get(key, 0) + 1

    def record_creation(self, key: str) -> None:
        """The registry built (or rebuilt after eviction) ``key``'s session."""
        with self._lock:
            self._creations += 1

    # ------------------------------------------------------------------ #
    # reading                                                            #
    # ------------------------------------------------------------------ #
    @property
    def evictions(self) -> int:
        with self._lock:
            return sum(self._evictions.values())

    def snapshot(
        self,
        *,
        weights: Optional[Dict[str, float]] = None,
        queue_depths: Optional[Dict[str, int]] = None,
        sessions_live: int = 0,
        estimated_session_bytes: int = 0,
    ) -> FarmStats:
        """Freeze everything into a :class:`FarmStats`.

        ``weights`` / ``queue_depths`` carry the farm's current per-tenant
        scheduling state (registered weight, queued requests), which lives
        in the farm, not here; tenants missing from the maps default to
        weight 1 and an empty queue.
        """
        weights = weights or {}
        queue_depths = queue_depths or {}
        with self._lock:
            tenant_telemetry = dict(self._tenants)
            rejected = dict(self._rejected)
            evictions = dict(self._evictions)
            breaker_trips = dict(self._breaker_trips)
            creations = self._creations
        fleet = self._fleet.snapshot()
        total_weight = sum(weights.get(key, 1.0) for key in tenant_telemetry) or 1.0
        completed = fleet.requests_completed
        tenants: Dict[str, TenantStats] = {}
        for key, telemetry in tenant_telemetry.items():
            stats = telemetry.snapshot()
            tenants[key] = TenantStats(
                key=key,
                weight=weights.get(key, 1.0),
                queue_depth=queue_depths.get(key, 0),
                rejected=rejected.get(key, 0),
                evictions=evictions.get(key, 0),
                breaker_trips=breaker_trips.get(key, 0),
                fairness_share=(
                    stats.requests_completed / completed if completed else 0.0
                ),
                expected_share=weights.get(key, 1.0) / total_weight,
                serve=stats,
            )
        return FarmStats(
            fleet=fleet,
            tenants=tenants,
            sessions_live=sessions_live,
            sessions_created=creations,
            evictions=sum(evictions.values()),
            rejections=sum(rejected.values()),
            breaker_trips=sum(breaker_trips.values()),
            estimated_session_bytes=estimated_session_bytes,
        )
