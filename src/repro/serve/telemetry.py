"""Service telemetry: the per-scope outcome ledger behind stats and SLOs.

A request's *sinks* are the :class:`ServeTelemetry` ledgers of its
scopes — a session's, or a farm tenant's plus the fleet's.  Each sees
``record_submitted()``, ``record_dispatch(width, block_iterations)`` and
one terminal :class:`Outcome` via ``record(outcome)``.  One ledger
answers both :meth:`ServeTelemetry.snapshot` (the :class:`ServeStats`
that ``stats()``, ``/metrics`` and ``benchmarks/_harness.py --serve``
read) and :meth:`ServeTelemetry.outcomes_since` (the SLO windows of
:mod:`repro.obs.slo` behind ``/slo`` and ``/healthz``).

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
from dataclasses import asdict, dataclass
from itertools import islice, takewhile
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "LatencySummary",
    "Outcome",
    "ServeStats",
    "ServeTelemetry",
    "TenantStats",
    "FarmStats",
    "LATENCY_WINDOW",
    "LEDGER_CAPACITY",
]

#: Solved outcomes the latency summaries of a snapshot cover.  A
#: long-lived session serves an unbounded number of requests; the lifetime
#: counters stay exact while the latency distributions cover the most
#: recent window (4096 requests is plenty for stable p50/p95 and keeps
#: snapshot cost bounded).
LATENCY_WINDOW = 4096

#: Outcomes one ledger's ring retains (oldest fall off first).  The SLO
#: windows read the same ring, so a window only sees retained outcomes:
#: above ~4.5 requests/s a 1 h slow window is bounded by this count, not
#: by its length.
LEDGER_CAPACITY = 16384


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
        if not isinstance(samples, np.ndarray):
            samples = np.fromiter(samples, dtype=np.float64)
        if samples.size == 0:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, max_ms=0.0)
        ms = samples * 1e3
        p50, p95 = np.percentile(ms, (50, 95))
        return cls(
            count=int(ms.size),
            mean_ms=float(ms.mean()),
            p50_ms=float(p50),
            p95_ms=float(p95),
            max_ms=float(ms.max()),
        )

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


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
        payload = asdict(self)
        payload["batch_occupancy"] = {
            str(k): v for k, v in sorted(self.batch_occupancy.items())
        }
        payload["mean_batch_occupancy"] = self.mean_batch_occupancy
        return payload


class ServeTelemetry:
    """Thread-safe outcome ledger of one scope, behind :class:`ServeStats`.

    Lifetime counters plus one ring of ``(t, Outcome)`` entries holding
    the newest :data:`LEDGER_CAPACITY` outcomes, stamped with ``clock``
    (monotonic; tests inject a fake one).  :meth:`snapshot` reads the
    counters and the ring's newest :data:`LATENCY_WINDOW` solved outcomes;
    :meth:`outcomes_since` hands the ring to the SLO windows
    (:func:`repro.obs.slo.window_report`).
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._retried = 0
        self._timed_out = 0
        self._cancelled = 0
        self._batches = 0
        self._occupancy: Dict[int, int] = {}
        self._ring: Deque[Tuple[float, Outcome]] = deque(maxlen=LEDGER_CAPACITY)
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
        """Count one request's terminal :class:`Outcome` and append it to
        the ring (stamped under the lock, so the ring stays time-ordered)."""
        now = time.perf_counter()
        with self._lock:
            self._ring.append((self._clock(), outcome))
            if outcome.failed:
                self._failed += 1
            else:
                self._completed += 1
            self._retried += outcome.retried
            self._timed_out += outcome.timed_out
            self._cancelled += outcome.name == "cancelled"
            if outcome.solve_s is not None:
                self._last_completion = now

    # ------------------------------------------------------------------ #
    # reading                                                            #
    # ------------------------------------------------------------------ #
    def outcomes_since(self, cutoff: float) -> List[Tuple[float, Outcome]]:
        """Ring entries stamped at or after ``cutoff``, oldest first."""
        with self._lock:
            recent = list(takewhile(lambda entry: entry[0] >= cutoff, reversed(self._ring)))
        recent.reverse()
        return recent

    def snapshot(self) -> ServeStats:
        """Freeze the counters into an immutable :class:`ServeStats`."""
        with self._lock:
            solved = list(
                islice(
                    (o for _, o in reversed(self._ring) if o.solve_s is not None),
                    LATENCY_WINDOW,
                )
            )
            if self._first_submit is not None and self._last_completion is not None:
                elapsed = max(self._last_completion - self._first_submit, 0.0)
            else:
                elapsed = 0.0
            throughput = self._completed / elapsed if elapsed > 0 else 0.0
            solved.reverse()  # oldest first, as booked
            n = len(solved)
            waits = np.fromiter(map(attrgetter("queue_wait_s"), solved), np.float64, n)
            solves = np.fromiter(map(attrgetter("solve_s"), solved), np.float64, n)
            return ServeStats(
                requests_submitted=self._submitted,
                requests_completed=self._completed,
                requests_failed=self._failed,
                requests_retried=self._retried,
                requests_timed_out=self._timed_out,
                requests_cancelled=self._cancelled,
                batches_dispatched=self._batches,
                batch_occupancy=dict(self._occupancy),
                queue_wait=LatencySummary.from_seconds(waits),
                solve=LatencySummary.from_seconds(solves),
                latency=LatencySummary.from_seconds(waits + solves),
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
        return {**asdict(self), "serve": self.serve.as_dict()}


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
            **asdict(self),
            "fleet": self.fleet.as_dict(),
            "tenants": {k: t.as_dict() for k, t in sorted(self.tenants.items())},
        }
