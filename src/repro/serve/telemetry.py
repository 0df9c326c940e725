"""Service telemetry: per-request latency, batch occupancy, throughput.

The serve layer's observable surface.  A request's *sinks* see
``record_submitted()``, ``record_dispatch(width, block_iterations)`` and
one terminal :class:`Outcome` via ``record(outcome)``; a
:class:`ServeTelemetry` derives every :class:`ServeStats` counter from
them for one stream of requests — a session's, one farm tenant's, or a
farm's whole fleet (:class:`FarmTelemetry` holds one per tenant plus the
fleet's; a farm request books into both).  :meth:`ServeTelemetry.snapshot`
freezes it into the immutable :class:`ServeStats` that
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
from typing import Deque, Dict, Iterable, Optional

import numpy as np

__all__ = [
    "LatencySummary",
    "Outcome",
    "ServeStats",
    "ServeTelemetry",
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
class Outcome:
    """How one request ended — the single event every sink books.

    ``name`` is the trace outcome: the lower-cased
    :class:`~repro.solvers.result.SolverStatus` of a solved request,
    otherwise ``deadline_exceeded``, ``cancelled``, ``abandoned``,
    ``error``, ``rejected`` or ``closed``.  ``failed`` says the future
    carries an exception, or that the client cancelled it while queued.
    ``solve_s`` is ``None`` when the request never reached a solver.
    """

    name: str
    failed: bool
    queue_wait_s: float = 0.0
    solve_s: Optional[float] = None
    retried: bool = False

    @property
    def timed_out(self) -> bool:
        """The request's deadline lapsed, in the queue or mid-solve."""
        return self.name in ("deadline_exceeded", "timed_out")

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-resolution seconds of a solved request, else ``None``."""
        return None if self.solve_s is None else self.queue_wait_s + self.solve_s


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
    # recording (the sink protocol)                                      #
    # ------------------------------------------------------------------ #
    def record_submitted(self) -> None:
        now = time.perf_counter()
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = now

    def record_dispatch(self, width: int, block_iterations: int) -> None:
        """Account one batched solve of ``width`` requests."""
        with self._lock:
            self._batches += 1
            self._occupancy[width] = self._occupancy.get(width, 0) + 1
            self._block_iterations += block_iterations

    def record(self, outcome: Outcome) -> None:
        """Account one request's terminal :class:`Outcome`; a solved one
        (``solve_s`` set) also adds its latency samples."""
        now = time.perf_counter()
        with self._lock:
            if outcome.failed:
                self._failed += 1
            else:
                self._completed += 1
            self._retried += outcome.retried
            self._timed_out += outcome.timed_out
            self._cancelled += outcome.name == "cancelled"
            if outcome.solve_s is not None:
                self._queue_waits.append(outcome.queue_wait_s)
                self._solves.append(outcome.solve_s)
                self._latencies.append(outcome.latency_s)
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

    Owns one :class:`ServeTelemetry` per tenant plus the fleet-wide
    :attr:`fleet`; both are sinks of every farm request, so both levels
    report exact counters and true (not re-derived) latency percentiles.
    Admission rejections and LRU evictions are counted here per tenant;
    :meth:`snapshot` combines everything with the farm's own state
    (weights, queues, breakers, registry) into one :class:`FarmStats`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: the fleet-wide sink every tenant's requests also book into
        self.fleet = ServeTelemetry()
        self._tenants: Dict[str, ServeTelemetry] = {}
        self._rejected: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}

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

    def record_rejected(self, key: str) -> None:
        """One admission rejection (backpressure or open breaker) for
        tenant ``key``; the request's outcome is booked by its sinks."""
        with self._lock:
            self._rejected[key] = self._rejected.get(key, 0) + 1

    def record_eviction(self, key: str) -> None:
        """The registry evicted ``key``'s warmed session."""
        with self._lock:
            self._evictions[key] = self._evictions.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # reading                                                            #
    # ------------------------------------------------------------------ #
    def snapshot(
        self,
        *,
        weights: Optional[Dict[str, float]] = None,
        queue_depths: Optional[Dict[str, int]] = None,
        breaker_trips: Optional[Dict[str, int]] = None,
        sessions_live: int = 0,
        sessions_created: int = 0,
        estimated_session_bytes: int = 0,
    ) -> FarmStats:
        """Freeze everything into a :class:`FarmStats`.

        ``weights`` / ``queue_depths`` / ``breaker_trips`` carry the
        farm's current per-tenant state (registered weight, queued
        requests, circuit-breaker trips), which lives in the farm, not
        here; tenants missing from the maps default to weight 1, an empty
        queue and no trips.
        """
        weights = weights or {}
        queue_depths = queue_depths or {}
        breaker_trips = breaker_trips or {}
        with self._lock:
            tenant_telemetry = dict(self._tenants)
            rejected = dict(self._rejected)
            evictions = dict(self._evictions)
        fleet = self.fleet.snapshot()
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
            sessions_created=sessions_created,
            evictions=sum(evictions.values()),
            rejections=sum(rejected.values()),
            breaker_trips=sum(breaker_trips.values()),
            estimated_session_bytes=estimated_session_bytes,
        )
