"""The serve layer's error hierarchy.

Every error the service layer raises *by policy* — admission control,
deadlines, circuit breaking — derives from :class:`ReproServeError`, so a
client can catch one type and branch on the subclass (or on the
``retry_after_ms`` hint most of them carry).  Solver-level failures are
deliberately **not** errors: a request that merely fails to converge
resolves its future successfully with a non-``CONVERGED`` status (see the
"Failure semantics" section of the README).

* :class:`RejectedError` — backpressure: the tenant queue is full.
* :class:`DeadlineExceededError` — the request's ``deadline_ms`` lapsed
  while it was still queued; it was never dispatched to a solver.
* :class:`CircuitOpenError` — the operator's circuit breaker is open
  (consecutive breakdown/non-finite failures tripped it); the session is
  quarantined until the cool-down elapses and a probe succeeds.

All three are *fail-fast*: they reach the caller either synchronously at
``submit()`` or through the future without any solver work being spent on
the doomed request.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproServeError",
    "RejectedError",
    "DeadlineExceededError",
    "CircuitOpenError",
]


class ReproServeError(RuntimeError):
    """Base of every policy error raised by :mod:`repro.serve`."""


class RejectedError(ReproServeError):
    """A submit was refused by admission control (tenant queue full).

    Backpressure, not failure: the farm is protecting its latency by
    bounding queued work per tenant.  ``retry_after_ms`` is the farm's
    estimate of when the queue will have drained enough to accept the
    request — a hint, not a promise.
    """

    #: the rejection reason stamped on the request's trace
    reason = "queue_full"

    def __init__(self, message: str, *, retry_after_ms: float) -> None:
        super().__init__(message)
        self.retry_after_ms = float(retry_after_ms)


class DeadlineExceededError(ReproServeError):
    """A request's deadline lapsed before it could be dispatched.

    Raised into the request's *future* (never synchronously): the batch
    assembler found the request already past its ``deadline_ms`` while it
    was still queued and dropped it without spending any solver work on
    it.  A deadline that lapses *during* a solve does not raise — the
    future resolves normally with status ``TIMED_OUT`` and the best
    iterate reached (see :class:`repro.solvers.SolveControl`).
    """

    def __init__(self, message: str, *, deadline_ms: Optional[float] = None) -> None:
        super().__init__(message)
        #: the request's original deadline budget in milliseconds, if known
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)


class CircuitOpenError(ReproServeError):
    """The operator's circuit breaker is open; the request was not accepted.

    After ``breaker_threshold`` consecutive breakdown/non-finite failures
    the farm quarantines the operator (its warmed session is evicted) for
    a cool-down; submits during the cool-down fail fast with this error.
    ``retry_after_ms`` is the remaining cool-down — after it elapses the
    breaker goes half-open and admits one probe request before deciding
    whether to readmit traffic.
    """

    reason = "circuit_open"

    def __init__(
        self, message: str, *, key: str = "", retry_after_ms: float = 0.0
    ) -> None:
        super().__init__(message)
        self.key = str(key)
        self.retry_after_ms = float(retry_after_ms)
