"""The request-lifecycle engine: tenant queues, micro-batching, workers.

The serving workload the roadmap targets is many independent clients, each
submitting *one* right-hand side against a shared operator.  Block-GMRES
only pays off when right-hand sides arrive in blocks, so this module
supplies the coupling: :class:`SolveScheduler` holds one thread-safe queue
per tenant, drained by a lazily started worker pool.  A worker

1. picks the ready tenant (queue non-empty, no other worker on it) with
   the best priority;
2. waits up to ``max_wait_ms`` — measured from when it starts assembling,
   capped by the tightest queued deadline — for the queue to fill to the
   session's ``max_block``;
3. asks the :class:`~repro.serve.policy.BatchingPolicy` how wide the
   dispatch should be and runs **one** batched solve through
   :func:`run_batch` (one SpMM per block iteration for the whole batch);
4. demultiplexes the :class:`~repro.solvers.result.MultiSolveResult` back
   into the per-request futures — each client gets its own column, with
   its own terminal status.

An :class:`~repro.serve.session.OperatorSession`'s scheduler is this
engine with one tenant and one worker;
:class:`~repro.serve.farm.SolverFarm` is a subclass with one tenant per
registered operator, ``workers`` workers, admission control and weighted
priority.  Every request — solved, failed, expired, cancelled,
abandoned or rejected at ``submit()`` — ends in
:meth:`PendingRequest.resolve`, which books one
:class:`~repro.serve.telemetry.Outcome` in the request's sinks — the
:class:`~repro.serve.telemetry.ServeTelemetry` ledgers of its scopes —
before it sets the future and finishes the trace.

Failure isolation: a request that fails *validation* (wrong shape,
non-finite entries — which would poison the shared Krylov basis of every
batchmate) is rejected at ``submit()`` time and never enters a batch.  A
request that merely fails to *converge* resolves successfully with a
non-``CONVERGED`` status while its batchmates complete normally (the block
solver tracks per-column statuses and deflates converged columns).  On
top of that, a column that did not converge *inside a batch* is retried
once through the width-1 canonical path before its future resolves
(unless the session disables ``retry_failed``): a batch can fail where
each column alone succeeds — a fault in the batched SpMM, say — so the
sequential retry turns a batching failure into at most one extra solve.
Only an unexpected solver exception fails the batch it was part of.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..obs import resolve_observability
from ..obs.log import get_logger, log_event
from ..obs.probe import span_probe
from ..obs.trace import RequestTrace
from ..solvers.result import ConvergenceHistory, SolveResult, SolverStatus
from ..solvers.status import SolveControl
from .errors import DeadlineExceededError, ReproServeError
from .telemetry import Outcome, ServeStats, ServeTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .session import OperatorSession

__all__ = [
    "BatchReport",
    "PendingRequest",
    "ServeFuture",
    "ServeResult",
    "SolveScheduler",
    "Tenant",
    "run_batch",
    "complete_future",
    "fail_future",
    "validate_rhs",
]


@dataclass
class ServeResult:
    """What a client's future resolves to: one column plus serving metadata.

    The solver fields mirror :class:`~repro.solvers.result.SolveResult`
    (``solve_result`` holds the full per-column object, shared timer and
    all); the serving fields say how the request travelled through the
    scheduler.
    """

    x: np.ndarray
    status: SolverStatus
    iterations: int
    relative_residual: float
    relative_residual_fp64: float
    history: ConvergenceHistory
    solve_result: SolveResult
    #: seconds the request waited in the queue before dispatch
    queue_wait_seconds: float
    #: wall seconds of the batched solve the request rode in
    solve_seconds: float
    #: how many requests shared the batch (1 = unbatched dispatch)
    batch_size: int
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == SolverStatus.CONVERGED

    @property
    def residual_history(self) -> ConvergenceHistory:
        """:class:`~repro.solvers.result.ResultLike` name for ``history``."""
        return self.history

    @property
    def latency_seconds(self) -> float:
        """Submit-to-resolution latency as the client experienced it."""
        return self.queue_wait_seconds + self.solve_seconds

    def summary(self) -> str:
        """Solver summary plus one line of serving metadata
        (:class:`~repro.solvers.result.ResultLike`)."""
        lines = [
            self.solve_result.summary(),
            f"  served: batch of {self.batch_size}, "
            f"queue wait {self.queue_wait_seconds * 1e3:.1f} ms, "
            f"solve {self.solve_seconds * 1e3:.1f} ms",
        ]
        return "\n".join(lines)


class ServeFuture(Future):
    """A future whose ``cancel()`` also reaches an in-flight solve.

    While the request is still queued this behaves exactly like
    :class:`concurrent.futures.Future`: ``cancel()`` returns ``True`` and
    the batch assembler drops the request before dispatch.  Once the batch
    is running a standard future can no longer be cancelled — here
    ``cancel()`` still returns ``False`` (the solve cannot be stopped
    *immediately*), but the request's cooperative
    :class:`~repro.solvers.SolveControl` token is signalled, so the solver
    deflates the column at the next poll point and the future resolves
    normally with status ``CANCELLED`` within one restart cycle.
    """

    def __init__(self, control: SolveControl) -> None:
        super().__init__()
        self.control = control

    def cancel(self) -> bool:
        cancelled = super().cancel()
        # Signal the cooperative token regardless of the state transition:
        # for a queued request it is moot (the drop happens at assembly),
        # for an in-flight one it is the only lever that works.
        self.control.cancel()
        return cancelled


def complete_future(future: Future, result: object) -> bool:
    """``set_result`` that tolerates a future already resolved elsewhere.

    A client can cancel a future in the hair's breadth between a worker
    popping its request and resolving it; ``set_result`` on a cancelled
    future raises ``InvalidStateError`` and would kill the worker.
    Returns ``True`` when the result actually landed.
    """
    try:
        future.set_result(result)
        return True
    except InvalidStateError:
        return False


def fail_future(future: Future, exc: BaseException) -> bool:
    """``set_exception`` with the same already-resolved tolerance."""
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


def validate_rhs(b: np.ndarray, n_rows: int) -> np.ndarray:
    """Normalize one right-hand side to an owned length-``n_rows`` column.

    The single validation path of the serve layer: shape-checks, rejects
    non-finite entries (they would poison a shared Krylov basis — and a
    direct NaN solve is equally meaningless), and copies so a caller
    mutating its array afterwards cannot corrupt a queued batch.  Raises
    :class:`ValueError` on invalid input.  Takes the row count rather
    than a session so the farm can validate against a registered
    operator without forcing its (possibly evicted) session to warm.
    """
    column = np.asarray(b, dtype=np.float64)
    if column.ndim == 2 and column.shape[1] == 1:
        column = column[:, 0]
    if column.ndim != 1 or column.shape[0] != n_rows:
        raise ValueError(
            f"right-hand side must be a length-{n_rows} vector, "
            f"got shape {np.asarray(b).shape}"
        )
    if not np.all(np.isfinite(column)):
        raise ValueError(
            "right-hand side contains non-finite entries; rejecting it "
            "before it can poison a shared Krylov basis"
        )
    return np.array(column, copy=True)


class PendingRequest:
    """One queued right-hand side: the validated column, its future, its
    cooperative control token (deadline + cancellation), the enqueue
    timestamp, the ``sinks`` its outcome is booked in, and — when tracing
    is on — the request's span state machine.

    Every request ends in exactly one :meth:`resolve`; a queued one gets
    there through :meth:`start` (it rides a batch; :func:`run_batch`
    resolves it) or :meth:`drop` (it never reaches a solver).
    """

    __slots__ = ("b", "future", "control", "deadline_ms", "enqueued_at", "sinks", "trace")

    def __init__(
        self, b: Optional[np.ndarray], *, deadline_ms: Optional[float] = None, sinks=()
    ) -> None:
        self.b = b
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        if self.deadline_ms is None:
            self.control = SolveControl()
        else:
            self.control = SolveControl.with_timeout(self.deadline_ms)
        self.future: ServeFuture = ServeFuture(self.control)
        self.enqueued_at = time.perf_counter()
        #: where the outcome is booked: the ledgers of the request's scopes
        self.sinks = sinks
        #: :class:`repro.obs.RequestTrace` when the owner traces, else None.
        self.trace = None

    @property
    def expired(self) -> bool:
        """True when the request's deadline already lapsed."""
        return self.control.expired()

    def resolve(
        self,
        outcome: Outcome,
        *,
        result: Optional["ServeResult"] = None,
        error: Optional[BaseException] = None,
        **trace_attrs: object,
    ) -> None:
        """The request's terminal transition, in this order: book
        ``outcome`` in every sink, set the future (``error`` fails it,
        ``result`` completes it, neither leaves a cancelled one alone),
        finish the trace with ``outcome.name`` and ``trace_attrs``."""
        for sink in self.sinks:
            sink.record(outcome)
        if error is not None:
            fail_future(self.future, error)
        elif result is not None:
            complete_future(self.future, result)
        if self.trace is not None:
            if error is not None:
                trace_attrs["error"] = repr(error)
            self.trace.finish(outcome.name, **trace_attrs)

    def start(self) -> bool:
        """Move the future to RUNNING; a request the client cancelled while
        queued is resolved as ``cancelled`` instead (returns ``False``)."""
        if self.future.set_running_or_notify_cancel():
            return True
        waited = time.perf_counter() - self.enqueued_at
        self.resolve(Outcome("cancelled", failed=True, queue_wait_s=waited))
        return False

    def drop(self, exc: BaseException, outcome: str) -> None:
        """Fail a request that will never be solved with ``exc``, as
        ``outcome`` (e.g. ``"deadline_exceeded"``, ``"abandoned"``)."""
        if self.start():
            waited = time.perf_counter() - self.enqueued_at
            self.resolve(Outcome(outcome, failed=True, queue_wait_s=waited), error=exc)

    def expire(self) -> None:
        """Fail a request whose deadline lapsed before dispatch."""
        shown = "?" if self.deadline_ms is None else format(self.deadline_ms, ".0f")
        self.drop(
            DeadlineExceededError(
                f"request deadline of {shown} ms lapsed in the queue; "
                "the request was never dispatched",
                deadline_ms=self.deadline_ms,
            ),
            "deadline_exceeded",
        )


def _sweep_expired(queue: Deque[PendingRequest]) -> List[PendingRequest]:
    """Remove and return queued requests whose deadline already lapsed
    (the caller holds the engine lock and expires them after releasing it)."""
    expired: List[PendingRequest] = []
    keep: List[PendingRequest] = []
    for request in queue:
        (expired if request.expired else keep).append(request)
    if expired:
        queue.clear()
        queue.extend(keep)
    return expired


def _deadline_slack_seconds(queue: Deque[PendingRequest]) -> Optional[float]:
    """Seconds until the tightest queued deadline (None when none is set)."""
    slack: Optional[float] = None
    for request in queue:
        remaining = request.control.remaining_seconds()
        if remaining is not None and (slack is None or remaining < slack):
            slack = remaining
    return slack


class Tenant:
    """Engine-side state of one tenant queue: a session's only one, or one
    farm operator's (the farm also uses ``weight``, ``served``,
    ``rejected`` and ``breaker``)."""

    __slots__ = (
        "key", "n_rows", "sinks", "labels", "weight", "breaker", "queue", "busy",
        "served", "rejected",
    )

    def __init__(
        self,
        key: str,
        n_rows: int,
        sinks: tuple,
        labels: Dict[str, str],
        *,
        weight: float = 1.0,
        breaker=None,
    ) -> None:
        self.key = key
        self.n_rows = n_rows
        #: outcome ledgers of the tenant's requests: ``(session,)`` for a
        #: session, ``(tenant, fleet)`` for a farm operator
        self.sinks = sinks
        #: attributes stamped on the tenant's request traces
        self.labels = labels
        self.weight = weight
        self.breaker = breaker
        self.queue: Deque[PendingRequest] = deque()
        #: a worker is batching/dispatching this tenant — no second
        #: worker may touch its queue (batches must coalesce, not race)
        self.busy = False
        #: requests dispatched, the numerator of the farm's deficit ratio
        self.served = 0
        #: submits refused by admission control (full queue, open breaker)
        self.rejected = 0


class SolveScheduler:
    """Thread-safe request-lifecycle engine: tenant queues + worker pool.

    Built by :class:`~repro.serve.session.OperatorSession` as its
    micro-batching front (``session=``: one tenant, one worker) and
    subclassed by :class:`~repro.serve.farm.SolverFarm` (one tenant per
    registered operator).  Workers start lazily on the first submit, so
    a warm session only ever driven through a farm, or through direct
    ``solve()`` calls, never pins a thread of its own.

    Parameters
    ----------
    session:
        The served session; every dispatch runs its ``_solve_block``
        (pinned context, pooled workspaces).  ``None`` for a subclass that
        registers its own tenants.
    max_wait_ms:
        Micro-batching window: a worker waits at most this long for a
        tenant's queue to fill to the session's ``max_block``.  The
        latency/throughput dial: larger windows coalesce sparser traffic
        into wider (cheaper per RHS) blocks at the price of queue-wait
        latency.
    workers / name / obs:
        Pool size, thread and error-message name, and observability
        wiring; a session front takes the name and ``obs`` of its session.
    """

    def __init__(
        self,
        session: Optional["OperatorSession"] = None,
        *,
        max_wait_ms: float,
        workers: int = 1,
        name: Optional[str] = None,
        obs=None,
    ) -> None:
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if session is not None:
            name, obs = session.name, session.obs
        self._session = session
        self.name = name
        self.obs = resolve_observability(obs)
        #: request traces come from here (None = tracing off)
        self.tracer = self.obs.tracer
        #: optional HealthMonitor fed by every dispatch
        self.health = self.obs.health
        self.max_wait_seconds = float(max_wait_ms) / 1e3
        self.workers = int(workers)
        #: the outcome ledger ``stats()`` reads: the session's, or a farm's
        #: fleet-wide one
        self.telemetry = self._ledger(self.name)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._threads: List[threading.Thread] = []
        self._tenants: Dict[str, Tenant] = {}
        if session is not None:
            self._tenants[self.name] = Tenant(
                self.name, session.n_rows, (self.telemetry,), {"session": self.name}
            )

    def _ledger(self, scope: str) -> ServeTelemetry:
        """The outcome ledger of ``scope``: the health monitor's (so
        ``stats()``, ``/slo``, ``/healthz`` and ``/metrics`` read one
        object), or a private one when no monitor is wired."""
        return self.health.tracker(scope) if self.health is not None else ServeTelemetry()

    # ------------------------------------------------------------------ #
    # client side                                                        #
    # ------------------------------------------------------------------ #
    def submit(
        self, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "Future[ServeResult]":
        """Enqueue one right-hand side for the session; returns a future.

        Validation happens here, synchronously, so a malformed request is
        rejected *before* it can share a Krylov basis with anyone else:
        its future fails with ``ValueError`` and no batchmate sees it.

        ``deadline_ms`` bounds the request end to end: a deadline that
        lapses while the request is still queued fails its future fast
        with :class:`~repro.serve.errors.DeadlineExceededError` (the
        request is never dispatched); one that lapses mid-solve resolves
        the future normally with status ``TIMED_OUT`` and the best
        iterate reached.  Cancelling the returned future while queued
        drops the request before dispatch; cancelling in flight stops the
        solve cooperatively within one restart cycle (status
        ``CANCELLED``).
        """
        return self._submit(self._tenants[self.name], b, deadline_ms)

    async def asubmit(self, *args, deadline_ms: Optional[float] = None) -> ServeResult:
        """Awaitable :meth:`submit` (same positional arguments).

        The request rides the same queues and workers; only the waiting
        is non-blocking.  Synchronous rejections raise before any
        awaiting; validation errors surface as ``ValueError`` and
        queue-expired deadlines as
        :class:`~repro.serve.errors.DeadlineExceededError` when awaited.
        """
        import asyncio

        return await asyncio.wrap_future(self.submit(*args, deadline_ms=deadline_ms))

    def _submit(
        self, tenant: Tenant, b: np.ndarray, deadline_ms: Optional[float]
    ) -> "Future[ServeResult]":
        # Every submit is counted before anything can resolve it, so the
        # ledger never shows more outcomes than submits.
        for sink in tenant.sinks:
            sink.record_submitted()
        request = PendingRequest(None, deadline_ms=deadline_ms, sinks=tenant.sinks)
        if self.tracer is not None:
            request.trace = RequestTrace(
                self.tracer, deadline_ms=deadline_ms, **tenant.labels
            )
        try:
            request.b = validate_rhs(b, tenant.n_rows)
        except ValueError as exc:
            request.resolve(Outcome("rejected", failed=True), error=exc)
            return request.future
        if request.expired:
            # Dead on arrival (non-positive budget): fail fast without
            # ever touching the queue — still through the future, so the
            # caller sees a single error surface.
            request.expire()
            return request.future
        if request.trace is not None:
            # Admission decided before the queue append: once appended a
            # worker may advance the trace concurrently.  A rejection
            # below finishes the already-advanced trace, which is still a
            # single complete tree.
            request.trace.submitted()
        with self._wakeup:
            closed = self._closed
            rejection = None if closed else self._admit_locked(tenant)
            if not closed and rejection is None:
                tenant.queue.append(request)
                self._ensure_workers_locked()
                self._wakeup.notify_all()
        if closed:
            error = RuntimeError(
                f"{type(self).__name__} {self.name!r} is closed; "
                "no new requests accepted"
            )
            request.resolve(Outcome("closed", failed=True), error=error)
            raise error
        if rejection is not None:
            request.resolve(
                Outcome("rejected", failed=True), error=rejection, reason=rejection.reason
            )
            raise rejection
        return request.future

    def _admit_locked(self, tenant: Tenant) -> Optional[ReproServeError]:
        """Admission control, under the lock: ``None`` admits the request;
        an error rejects it (raised to the submitting client)."""
        return None

    def stats(self) -> ServeStats:
        """Current :class:`ServeStats` snapshot."""
        return self.telemetry.snapshot()

    def pending(self, key: Optional[str] = None) -> int:
        """Queued requests — one tenant's, or all of them."""
        with self._lock:
            if key is not None:
                tenant = self._tenants.get(key)
                return len(tenant.queue) if tenant is not None else 0
            return sum(len(t.queue) for t in self._tenants.values())

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # shutdown                                                           #
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and shut the workers down.

        ``drain=True`` (default) lets already-queued requests complete;
        ``drain=False`` fails them with :class:`RuntimeError`.  Once every
        worker has exited the engine drops its session reference, so a
        released session is freed as soon as its last user lets go.
        """
        with self._wakeup:
            if self._closed and not any(t.is_alive() for t in self._threads):
                return
            self._closed = True
            abandoned: List[PendingRequest] = []
            if not drain:
                for tenant in self._tenants.values():
                    abandoned.extend(tenant.queue)
                    tenant.queue.clear()
            threads = list(self._threads)
            self._wakeup.notify_all()
        for request in abandoned:
            request.drop(
                RuntimeError(
                    f"{type(self).__name__} {self.name!r} closed before "
                    "the request was served"
                ),
                "abandoned",
            )
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=timeout)
        if not any(t.is_alive() for t in threads):
            self._session = None

    def __enter__(self) -> "SolveScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # workers                                                            #
    # ------------------------------------------------------------------ #
    def _ensure_workers_locked(self) -> None:
        # Lazy: an idle engine pins no threads until its first request.
        if self._threads:
            return
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-{self.name}-{i}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _priority(self, tenant: Tenant):
        """Sort key of a ready tenant; the smallest is served next
        (default: the oldest head request)."""
        return tenant.queue[0].enqueued_at

    def _worker(self) -> None:
        # Purely event-driven: workers sleep on the condition until a
        # submit, a batch completion or close() notifies them — no idle
        # polling tick.  Liveness: a ready tenant (non-empty queue, not
        # busy) is picked without waiting, so queued deadlines are always
        # in the hands of some worker's batch assembler, which bounds its
        # own waits by the tightest deadline.
        while True:
            with self._wakeup:
                while True:
                    ready = [t for t in self._tenants.values() if t.queue and not t.busy]
                    if ready:
                        break
                    if self._closed and not any(t.queue for t in self._tenants.values()):
                        return
                    self._wakeup.wait()
                tenant = min(ready, key=self._priority)
                tenant.busy = True
            try:
                self._serve_one(tenant)
            finally:
                with self._wakeup:
                    tenant.busy = False
                    self._wakeup.notify_all()

    def _serve_one(self, tenant: Tenant) -> None:
        """Batch and dispatch one round of ``tenant``'s queue (it is busy)."""
        session = self._session
        batch = self._collect_batch(tenant, session)
        if batch:
            run_batch(
                session,
                batch,
                tracer=self.tracer,
                health=self.health,
                component=session.name,
            )

    def _collect_batch(
        self, tenant: Tenant, session: "OperatorSession"
    ) -> List[PendingRequest]:
        """Pop one dispatch's worth of ``tenant``'s queue.

        Waits up to the micro-batching window for the queue to fill to
        ``session.max_block``, then lets the session's policy choose the
        width.  The window is measured from when assembly starts (it may
        already hold requests that queued up during the previous solve):
        a fresh window per batch lets in-flight clients' follow-up
        requests coalesce with the ones that waited, instead of locking
        the traffic into two alternating half-width cohorts.  It is
        skipped when more arrivals cannot change the dispatch (width-1
        session, sequential policy) or the engine is draining, and capped
        by the tightest queued deadline, so a near-deadline request is
        never held for the full window.  Requests whose deadline already
        lapsed are failed fast here, never dispatched; requests cancelled
        while queued are dropped.
        """
        expired: List[PendingRequest] = []
        with self._wakeup:
            expired.extend(_sweep_expired(tenant.queue))
            can_batch = (
                session.max_block > 1
                and getattr(session.policy, "mode", "auto") != "sequential"
            )
            if can_batch:
                window_ends = time.perf_counter() + self.max_wait_seconds
                # An empty queue (everything expired, was cancelled, or
                # close(drain=False) took it) ends the window early.
                while (
                    tenant.queue
                    and len(tenant.queue) < session.max_block
                    and not self._closed
                ):
                    remaining = window_ends - time.perf_counter()
                    slack = _deadline_slack_seconds(tenant.queue)
                    if slack is not None:
                        remaining = min(remaining, slack)
                    if remaining <= 0:
                        break
                    self._wakeup.wait(timeout=remaining)
                    expired.extend(_sweep_expired(tenant.queue))
            expired.extend(_sweep_expired(tenant.queue))
            popped: List[PendingRequest] = []
            if tenant.queue:
                width = session.policy.block_width(len(tenant.queue))
                popped = [tenant.queue.popleft() for _ in range(width)]
        for request in expired:
            request.expire()
        return [request for request in popped if request.start()]


@dataclass
class BatchReport:
    """What one dispatch did — the circuit breaker's food.

    ``statuses`` holds the terminal status of every resolved column,
    ``exception`` the batch-level solver error when the whole dispatch
    blew up, and ``nonfinite`` whether any resolved column carried a
    non-finite residual.  :attr:`hard_failure` / :attr:`healthy`
    implement the breaker's outcome policy: exceptions, breakdowns and
    non-finite results indict the *operator*; deadline and cancellation
    outcomes indict the client's budget and are neutral (neither failure
    nor success).
    """

    width: int
    statuses: List[SolverStatus] = field(default_factory=list)
    exception: Optional[BaseException] = None
    nonfinite: bool = False

    #: statuses that say nothing about the operator's health
    NEUTRAL_STATUSES = (SolverStatus.TIMED_OUT, SolverStatus.CANCELLED)

    @property
    def hard_failure(self) -> bool:
        return (
            self.exception is not None
            or self.nonfinite
            or any(s == SolverStatus.BREAKDOWN for s in self.statuses)
        )

    @property
    def healthy(self) -> bool:
        return not self.hard_failure and any(
            s not in self.NEUTRAL_STATUSES for s in self.statuses
        )


#: Structured-log channel of the dispatch core (see :mod:`repro.obs.log`).
_LOGGER = get_logger("serve")


def _chain_probes(*probes):
    """Fan one solver ``probe=`` stream out to several consumers."""
    live = [p for p in probes if p is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def fanout(event):
        for probe in live:
            probe(event)

    return fanout


def run_batch(
    session: "OperatorSession",
    batch: List[PendingRequest],
    *,
    tracer=None,
    tenant: Optional[str] = None,
    health=None,
    component: Optional[str] = None,
) -> BatchReport:
    """Run one assembled batch and resolve its futures (the dispatch core).

    Called by every :class:`SolveScheduler` worker (through this module's
    name for a session, through :mod:`repro.serve.farm`'s for a farm):
    assemble the column block, run the batched solve through
    ``session._solve_block`` (pinned context, pooled workspaces, one
    per-request control token per column), apply the width-1 retry
    containment to non-converged columns, book the dispatch in the
    batch's sinks (every request of a batch shares its tenant's), and
    resolve each request with its :class:`ServeResult` column.  Any
    exception from assembly or the solve is forwarded to every future of
    the batch; this function itself never raises.  Returns a
    :class:`BatchReport` the farm feeds into the tenant's circuit
    breaker.

    When ``tracer`` (a :class:`repro.obs.Tracer`) is given, the dispatch
    is traced: one ``batch`` span with ``batch_assembly`` / ``solve`` /
    ``demux`` children, solver probe events on the solve span, and every
    request's trace advanced to ``dispatch`` and finished with its
    terminal outcome.  ``tenant`` labels the farm's batches.  With a
    sampling tracer, batch spans are only created when at least one
    request of the batch is head-sampled (a fully tail-deferred batch
    costs no span allocations unless its requests get kept).

    When ``health`` (a :class:`repro.obs.HealthMonitor`) is given, a
    convergence watch rides the solver probe stream, the finished
    :class:`BatchReport` and solve wall time feed the batch-level
    detectors, and any alert tail-flags every trace of the batch
    (``component`` names the alert scope; defaults to the session name).
    """
    dispatched_at = time.perf_counter()
    queue_waits = [dispatched_at - r.enqueued_at for r in batch]
    width = len(batch)
    if component is None:
        component = session.name
    watch = None if health is None else health.convergence_watch(component)

    batch_span = None
    probe = None
    trace_batch = tracer is not None and (
        tracer.sampler is None
        or any(r.trace is not None and r.trace.sampled for r in batch)
    )
    if trace_batch:
        attrs: Dict[str, object] = {"session": session.name, "width": width}
        if tenant is not None:
            attrs["tenant"] = tenant
        batch_span = tracer.start_span("batch", **attrs)
    for request in batch:
        if request.trace is not None:
            request.trace.dequeued(
                batch=None if batch_span is None else batch_span.span_id,
                width=width,
            )

    retried = set()
    report = BatchReport(width=width)
    solve_span = None
    assembly_span = (
        None if batch_span is None
        else tracer.start_span("batch_assembly", parent=batch_span)
    )
    try:
        B = np.empty((session.n_rows, width), dtype=np.float64, order="F")
        for c, request in enumerate(batch):
            B[:, c] = request.b
        controls = [request.control for request in batch]
        if assembly_span is not None:
            assembly_span.finish()
        if batch_span is not None:
            solve_span = tracer.start_span("solve", parent=batch_span)
            probe = _chain_probes(watch, span_probe(solve_span))
        else:
            probe = watch
        start = time.perf_counter()
        multi = session._solve_block(B, controls=controls, probe=probe)
        solve_seconds = time.perf_counter() - start
        columns = multi.split()
        solve_times = [solve_seconds] * width
        retry_errors: Dict[int, BaseException] = {}
        if width > 1 and session.retry_failed:
            no_retry = (
                SolverStatus.CONVERGED,
                SolverStatus.TIMED_OUT,
                SolverStatus.CANCELLED,
            )
            for c, column in enumerate(columns):
                if column.status in no_retry:
                    # Converged columns need no retry; timed-out and
                    # cancelled ones must not get one — the client's
                    # budget is spent, more solver work would violate it.
                    continue
                # Batch-failure containment: re-solve the column alone
                # through the width-1 canonical path (see module doc).
                # A retry failure is attributable to exactly this
                # request, so it must not touch the batchmates.  The
                # retry inherits the request's control token, keeping
                # the deadline binding across both attempts.
                log_event(
                    _LOGGER,
                    "batch_retry_sequential",
                    session=session.name,
                    tenant=tenant if tenant is not None else "",
                    column=c,
                    width=width,
                    status=column.status.name,
                )
                retry_span = (
                    None if batch_span is None
                    else tracer.start_span("retry", parent=batch_span, column=c)
                )
                start = time.perf_counter()
                try:
                    retry = session._solve_block(
                        np.asfortranarray(B[:, c : c + 1]),
                        controls=[batch[c].control],
                        probe=_chain_probes(
                            watch,
                            None if retry_span is None else span_probe(retry_span),
                        ),
                    ).split()[0]
                except Exception as exc:  # noqa: BLE001 - per-column
                    retry_errors[c] = exc
                    if retry_span is not None:
                        retry_span.finish(error=repr(exc))
                else:
                    retry.details["retried_sequential"] = True
                    columns[c] = retry
                    if retry_span is not None:
                        retry_span.finish(status=retry.status.name)
                solve_times[c] += time.perf_counter() - start
                retried.add(c)
        if solve_span is not None:
            solve_span.finish(block_iterations=multi.block_iterations)
    except Exception as exc:  # noqa: BLE001 - forwarded to the futures
        solve_seconds = time.perf_counter() - dispatched_at
        solve_times = [solve_seconds] * width
        report.exception = exc
        # The span that was open when the exception hit: the solve's, or
        # the assembly's when the block could not be built.
        failed_span = solve_span if solve_span is not None else assembly_span
        if failed_span is not None:
            failed_span.finish(error=repr(exc))
    else:
        report.statuses = [column.status for column in columns]
        report.nonfinite = any(
            not np.isfinite(column.relative_residual) for column in columns
        )
    # Detector verdicts must land before the per-request finishes so a
    # flagged batch's deferred traces are retained by the tail rules, and
    # the dispatch is booked before any future resolves, so a client
    # holding its result also sees the batch counted.
    alerts = 0 if watch is None else watch.alerts
    if health is not None:
        alerts += health.observe_batch(component, report, solve_seconds)
    failed = report.exception is not None
    for sink in batch[0].sinks:
        sink.record_dispatch(width, 0 if failed else multi.block_iterations)
    if alerts:
        for request in batch:
            if request.trace is not None:
                request.trace.mark_keep()
    if failed:
        for c, request in enumerate(batch):
            request.resolve(
                Outcome("error", failed=True, queue_wait_s=queue_waits[c], solve_s=solve_times[c]),
                error=report.exception,
            )
    else:
        demux_span = (
            None if batch_span is None
            else tracer.start_span("demux", parent=batch_span)
        )
        for c, request in enumerate(batch):
            column = columns[c]
            details: Dict[str, object] = {
                "block_iterations": multi.block_iterations
            }
            if c in retry_errors:
                # The retry itself blew up: the request still resolves
                # with its (non-converged) batch result; only the
                # retry error is recorded for this one column.
                details["retry_error"] = repr(retry_errors[c])
            request.resolve(
                Outcome(
                    column.status.name.lower(),
                    failed=False,
                    queue_wait_s=queue_waits[c],
                    solve_s=solve_times[c],
                    retried=c in retried,
                ),
                result=ServeResult(
                    x=column.x,
                    status=column.status,
                    iterations=column.iterations,
                    relative_residual=column.relative_residual,
                    relative_residual_fp64=column.relative_residual_fp64,
                    history=column.history,
                    solve_result=column,
                    queue_wait_seconds=queue_waits[c],
                    solve_seconds=solve_times[c],
                    batch_size=width,
                    details=details,
                ),
                iterations=column.iterations,
            )
        if demux_span is not None:
            demux_span.finish()
    if batch_span is not None:
        batch_span.finish(
            failed=width if failed else 0,
            retried=len(retried),
            statuses=[s.name for s in report.statuses],
        )
    return report
