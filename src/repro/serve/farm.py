"""Solver farm: many operators, many tenants, one shared worker pool.

:class:`~repro.serve.session.OperatorSession` serves one operator with a
dedicated worker — the right shape for a single hot operator, the wrong
one for a fleet: N operators would pin N threads and N warmed sessions
regardless of traffic.  The :class:`SolverFarm` is the multi-tenant form
of the same service, built on the same request-lifecycle engine
(:class:`~repro.serve.scheduler.SolveScheduler`: tenant queues,
micro-batching window, worker loop, ``close(drain=...)``).  What the farm
adds:

* **registration is cheap** — ``register(key, matrix, ...)`` stores a
  session *factory*; the expensive warm-up happens on first traffic, and
  the warmed session lives in an LRU
  :class:`~repro.serve.registry.SessionRegistry` under a session-count /
  byte budget.  An evicted operator transparently re-warms on its next
  request, and its queue lives in the farm, so an eviction can never lose
  a future;
* **admission control** — a submit against a full tenant queue raises
  :class:`RejectedError` carrying a ``retry_after_ms`` hint, instead of
  queueing unbounded work (backpressure the client can act on), and a
  per-operator :class:`~repro.serve.breaker.CircuitBreaker` quarantines
  an operator whose solves keep breaking down (its warmed session
  evicted, submits failing fast with
  :class:`~repro.serve.errors.CircuitOpenError`) until a cool-down
  elapses and a half-open probe succeeds;
* **tenant priority** — under ``fairness="weighted"`` a worker serves the
  ready tenant with the smallest served-work/weight ratio (deficit-style
  weighted round-robin, so a hot tenant cannot starve the others beyond
  its weight); under ``"fifo"`` the tenant holding the oldest request;
* **two-level telemetry** — every request books its outcome in the
  tenant's own :class:`~repro.serve.telemetry.ServeTelemetry` ledger
  (scope ``"<farm>/<tenant>"``) *and* the fleet-wide one (scope
  ``"<farm>"``); under a health monitor those are the monitor's ledgers
  for the two scopes, so SLOs and stats read the same objects.
  :meth:`SolverFarm.stats` snapshots the whole farm (per-tenant RHS/s,
  queue depths, fairness shares, evictions, breaker trips) as a
  :class:`~repro.serve.telemetry.FarmStats`.

Quickstart::

    farm = repro.farm(workers=2, max_sessions=4)
    farm.register("poisson", A, preconditioner=M, restart=15)
    farm.register("helmholtz", B, tol=1e-6)
    with farm:
        futures = [farm.submit("poisson", rhs) for rhs in many_rhs]
        result = await farm.asubmit("helmholtz", other_rhs)  # asyncio front
        print(farm.stats().as_dict())
"""

from __future__ import annotations

import logging
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from ..obs import Observability
from ..obs.log import get_logger, log_event
from ..obs.metrics import watch_farm
from ..sparse.csr import CsrMatrix
from .breaker import BREAKER_STATES, CircuitBreaker
from .errors import CircuitOpenError, RejectedError, ReproServeError
from .registry import SessionRegistry
from .scheduler import BatchReport, ServeResult, SolveScheduler, Tenant, run_batch
from .session import OperatorSession
from .telemetry import FarmStats, TenantStats

__all__ = ["RejectedError", "CircuitOpenError", "SolverFarm", "FAIRNESS_MODES"]

#: Recognized values of ``SolverFarm(fairness=...)``.
FAIRNESS_MODES = ("weighted", "fifo")

#: Structured-log channel of the farm (see :mod:`repro.obs.log`).
_LOGGER = get_logger("serve.farm")


class SolverFarm(SolveScheduler):
    """Multi-operator, multi-tenant solver service over a shared worker pool.

    Parameters
    ----------
    max_sessions / max_session_bytes:
        Budgets of the warmed-session LRU cache
        (:class:`~repro.serve.registry.SessionRegistry`): at most 8 warm
        sessions by default, and no byte budget (``None``, unlimited).
        The least-recently-used session is evicted when a new one would
        exceed either.
    queue_depth:
        Bound on each tenant's queue (default 64); a submit beyond it
        raises :class:`RejectedError`.
    fairness:
        ``"weighted"`` (deficit-style weighted round-robin, the default)
        or ``"fifo"`` (globally oldest request first).
    workers:
        Size of the shared dispatch pool (default 2).  Solves on one
        *session* are serialized on its solve lock (the modelled device is
        one GPU), but workers overlap across tenants: while one dispatch
        runs, other workers batch, validate, warm sessions and demux
        results.
    max_wait_ms:
        Per-tenant micro-batching window (default 2.0), exactly as in
        :class:`~repro.serve.scheduler.SolveScheduler`.
    breaker_threshold / breaker_cooldown_ms:
        Per-operator circuit breaker: ``breaker_threshold`` (default 3)
        consecutive hard failures (solver exceptions, breakdowns,
        non-finite results) quarantine the operator for
        ``breaker_cooldown_ms`` (default 250.0) — its warmed session is
        evicted and submits fail fast with
        :class:`~repro.serve.errors.CircuitOpenError` — after which one
        probe request decides whether traffic resumes.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 8,
        max_session_bytes: Optional[int] = None,
        queue_depth: int = 64,
        fairness: str = "weighted",
        workers: int = 2,
        max_wait_ms: float = 2.0,
        breaker_threshold: int = 3,
        breaker_cooldown_ms: float = 250.0,
        name: str = "farm",
        obs=None,
    ) -> None:
        self.queue_depth = int(queue_depth)
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.fairness = str(fairness)
        if self.fairness not in FAIRNESS_MODES:
            raise ValueError(
                f"unknown fairness mode {self.fairness!r}; choose from {FAIRNESS_MODES}"
            )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_ms = float(breaker_cooldown_ms)
        super().__init__(max_wait_ms=max_wait_ms, workers=workers, name=name, obs=obs)
        if self.health is not None:
            self.health.watch_farm(self)

        def _on_evict(key: str) -> None:
            log_event(_LOGGER, "session_evicted", farm=self.name, tenant=key)

        self.registry = SessionRegistry(
            max_sessions=max_sessions, max_bytes=max_session_bytes, on_evict=_on_evict
        )
        if self.obs.registry is not None:
            watch_farm(self, registry=self.obs.registry)

    # ------------------------------------------------------------------ #
    # registration                                                       #
    # ------------------------------------------------------------------ #
    def register(
        self,
        key: str,
        matrix: Optional[CsrMatrix] = None,
        *,
        factory: Optional[Callable[[], OperatorSession]] = None,
        n_rows: Optional[int] = None,
        weight: float = 1.0,
        **session_kwargs,
    ) -> None:
        """Register operator ``key``; cheap — nothing is warmed yet.

        Either pass ``matrix`` (plus any :class:`OperatorSession` keyword
        arguments, e.g. ``preconditioner=``, ``restart=``, ``method=``) and
        the farm builds the session factory, or pass a ready ``factory``
        together with ``n_rows`` (needed to validate right-hand sides
        without forcing a cold session to warm).  ``weight`` is the
        tenant's fairness share under ``fairness="weighted"``.  A session
        built from ``matrix`` runs with :meth:`Observability.disabled
        <repro.obs.Observability.disabled>` unless ``obs=`` is passed: the
        farm's own tracer and metrics cover its requests.
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        if (matrix is None) == (factory is None):
            raise ValueError("pass exactly one of matrix= or factory=")
        if factory is None:
            rows = matrix.n_rows
            # The farm serves through its own scheduler, so a built
            # session's scheduler never runs: without obs= it would publish
            # all-zero series and leave a collector behind on every re-warm.
            session_kwargs.setdefault("obs", Observability.disabled())

            def factory(matrix=matrix, kwargs=dict(session_kwargs)) -> OperatorSession:
                return OperatorSession(matrix, name=f"{self.name}:{key}", **kwargs)

        else:
            if session_kwargs:
                raise ValueError(
                    "session keyword arguments only apply with matrix=; "
                    "bake them into the factory instead"
                )
            if n_rows is None:
                raise ValueError("factory= registration requires n_rows=")
            rows = int(n_rows)
        with self._wakeup:
            if self._closed:
                raise RuntimeError("farm is closed")
            tenant = self._tenants.get(key)
            if tenant is None:
                self._tenants[key] = Tenant(
                    key,
                    rows,
                    (self._ledger(f"{self.name}/{key}"), self.telemetry),
                    {"farm": self.name, "tenant": key},
                    weight=float(weight),
                    breaker=CircuitBreaker(
                        threshold=self.breaker_threshold,
                        cooldown_ms=self.breaker_cooldown_ms,
                    ),
                )
            else:
                tenant.n_rows = rows
                tenant.weight = float(weight)
        self.registry.register(key, factory)

    def registered_keys(self) -> List[str]:
        with self._lock:
            return list(self._tenants)

    # ------------------------------------------------------------------ #
    # client side                                                        #
    # ------------------------------------------------------------------ #
    def submit(
        self, key: str, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "Future[ServeResult]":
        """Enqueue one right-hand side for operator ``key``.

        Returns a ``Future[ServeResult]``.  Validation failures resolve
        the future with ``ValueError``; a full tenant queue raises
        :class:`RejectedError` and a quarantined operator
        :class:`~repro.serve.errors.CircuitOpenError`, both
        *synchronously* — backpressure must reach the caller before the
        work is accepted, not inside the future.  Deadlines and
        cancellation behave as in :meth:`SolveScheduler.submit`.
        """
        with self._lock:
            tenant = self._tenants.get(key)
        if tenant is None:
            raise KeyError(f"no operator registered under key {key!r}")
        return self._submit(tenant, b, deadline_ms)

    def _admit_locked(self, tenant: Tenant) -> Optional[ReproServeError]:
        """Bounded queue first, then the operator's circuit breaker."""
        if len(tenant.queue) >= self.queue_depth:
            hint = self._retry_after_ms_locked(tenant)
            rejection: ReproServeError = RejectedError(
                f"tenant {tenant.key!r} queue is full ({self.queue_depth} pending); "
                f"retry in ~{hint:.0f} ms",
                retry_after_ms=hint,
            )
        else:
            hint = tenant.breaker.admit()
            if hint is None:
                return None
            rejection = CircuitOpenError(
                f"operator {tenant.key!r} is quarantined after consecutive solve "
                f"failures; retry in ~{hint:.0f} ms",
                key=tenant.key,
                retry_after_ms=hint,
            )
        tenant.rejected += 1
        return rejection

    def _retry_after_ms_locked(self, tenant: Tenant) -> float:
        """Drain-time estimate for one queue-depth of backlog (a hint)."""
        per_batch_ms = tenant.sinks[0].snapshot().solve.mean_ms
        if per_batch_ms <= 0.0:
            per_batch_ms = max(self.max_wait_seconds * 1e3, 1.0)
        session = self.registry.peek(tenant.key)
        width = session.max_block if session is not None else 1
        batches = max(1.0, len(tenant.queue) / max(1, width))
        return per_batch_ms * batches / self.workers

    def _priority(self, tenant: Tenant):
        if self.fairness == "fifo":
            return super()._priority(tenant)
        # Deficit-style weighted round-robin: serve the tenant with the
        # smallest served-work/weight ratio, ties broken by oldest head
        # request.  A hot tenant's ratio races ahead, so idle-then-active
        # tenants always win the next worker — that is the fairness.
        return (tenant.served / tenant.weight, tenant.queue[0].enqueued_at)

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #
    def stats(self) -> FarmStats:
        """Snapshot the whole farm: fleet + per-tenant + registry state.

        Fleet and tenants each read their own ledger; evictions per
        tenant come from the registry."""
        with self._lock:
            tenants = [(t, len(t.queue), t.rejected) for t in self._tenants.values()]
        fleet = self.telemetry.snapshot()
        evictions = self.registry.evictions_by_key()
        total_weight = sum(t.weight for t, _, _ in tenants) or 1.0
        completed = fleet.requests_completed
        per_tenant: Dict[str, TenantStats] = {}
        for tenant, depth, rejected in tenants:
            serve = tenant.sinks[0].snapshot()
            per_tenant[tenant.key] = TenantStats(
                key=tenant.key,
                weight=tenant.weight,
                queue_depth=depth,
                rejected=rejected,
                evictions=evictions.get(tenant.key, 0),
                breaker_trips=tenant.breaker.trips,
                fairness_share=serve.requests_completed / completed if completed else 0.0,
                expected_share=tenant.weight / total_weight,
                serve=serve,
            )
        return FarmStats(
            fleet=fleet,
            tenants=per_tenant,
            sessions_live=self.registry.live_count,
            sessions_created=self.registry.creations,
            evictions=sum(evictions.values()),
            rejections=sum(t.rejected for t in per_tenant.values()),
            breaker_trips=sum(t.breaker_trips for t in per_tenant.values()),
            estimated_session_bytes=self.registry.estimated_bytes(),
        )

    def breaker_states(self) -> Dict[str, int]:
        """Each tenant's breaker state as a :data:`BREAKER_STATES` index.

        ``0`` = closed (healthy), ``1`` = open (quarantined), ``2`` =
        half-open (probing).  This is what the metrics collector exports
        as the ``repro_breaker_state`` gauge.
        """
        with self._lock:
            tenants = list(self._tenants.values())
        return {t.key: BREAKER_STATES.index(t.breaker.state) for t in tenants}

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #
    def _serve_one(self, tenant: Tenant) -> None:
        """Warm ``tenant``'s session, then batch and dispatch one round.

        A failed warm-up — the factory raised, or built a session whose
        row count differs from the registered ``n_rows`` — fails the
        tenant's queued requests and keeps the farm serving everyone
        else; it is as hard a failure as a broken solve, so it feeds the
        breaker too.  :func:`run_batch` already forwards solver errors to
        the futures, so nothing here raises into the worker loop.
        """
        try:
            session = self.registry.get_or_create(tenant.key)
            if session.n_rows != tenant.n_rows:
                raise ValueError(
                    f"operator {tenant.key!r} was registered with n_rows="
                    f"{tenant.n_rows} but its session has {session.n_rows} rows"
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to the futures
            with self._lock:
                doomed = list(tenant.queue)
                tenant.queue.clear()
            log_event(
                _LOGGER,
                "session_warmup_failed",
                level=logging.WARNING,
                farm=self.name,
                tenant=tenant.key,
                doomed=len(doomed),
                error=repr(exc),
            )
            for request in doomed:
                request.drop(exc, "error")
            self._feed_breaker(tenant, BatchReport(width=len(doomed), exception=exc))
            return
        batch = self._collect_batch(tenant, session)
        if not batch:
            return
        report = run_batch(
            session,
            batch,
            tracer=self.tracer,
            tenant=tenant.key,
            health=self.health,
            component=f"{self.name}/{tenant.key}",
        )
        self._feed_breaker(tenant, report)
        with self._lock:
            tenant.served += len(batch)

    def _feed_breaker(self, tenant: Tenant, report: BatchReport) -> None:
        """Update ``tenant``'s breaker from one dispatch outcome.

        Hard failures (exceptions, breakdowns, non-finite results) count
        against the operator; healthy dispatches reset the streak; a
        batch made up purely of timed-out/cancelled columns says nothing
        about the operator and leaves the breaker untouched.  Exactly on
        a trip the warmed session is evicted — quarantine, not just
        rejection — so a poisoned session cannot serve the probe either.
        """
        if report.hard_failure:
            if tenant.breaker.record_failure():
                self.registry.evict(tenant.key)
                log_event(
                    _LOGGER,
                    "breaker_open",
                    level=logging.WARNING,
                    farm=self.name,
                    tenant=tenant.key,
                    threshold=self.breaker_threshold,
                    cooldown_ms=self.breaker_cooldown_ms,
                    cause=(
                        repr(report.exception)
                        if report.exception is not None
                        else "nonfinite" if report.nonfinite else "breakdown"
                    ),
                )
        elif report.healthy:
            tenant.breaker.record_success()

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, stop the workers, release the sessions.

        ``drain=True`` (default) serves everything already queued first;
        ``drain=False`` fails queued requests with :class:`RuntimeError`.
        """
        super().close(drain=drain, timeout=timeout)
        self.registry.release_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SolverFarm {self.name!r} tenants={len(self._tenants)} "
            f"workers={self.workers} fairness={self.fairness!r} "
            f"sessions={self.registry.live_count}/{self.registry.max_sessions}>"
        )
