"""Status tests — the stateful termination checks of the solvers.

Modelled on Belos' status-test classes; the plain tolerance and budget
checks live in the restart loop (:mod:`repro.solvers.driver`).  The split
between implicit and explicit residuals is what makes the Section V-F
"loss of accuracy" phenomenon observable: a solver whose implicit residual
says "converged" while the recomputed true residual disagrees by a large
factor has been misled by rounding error (in the paper: by an aggressive
fp32 polynomial preconditioner).

:class:`SolveControl` is the externally-driven member of the family: a
cooperative deadline / cancellation / iteration-budget token the serve
layer threads through a solve so a caller can bound its wall-clock or
abandon it mid-flight.  The solvers consult it at every restart boundary
and every few inner iterations (``check_interval``), so cancellation
latency is bounded by a handful of Arnoldi steps, not a whole solve.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from .result import SolverStatus

__all__ = [
    "LossOfAccuracyTest",
    "StagnationTest",
    "SolveControl",
]


class SolveControl:
    """Cooperative deadline / cancellation / iteration-budget token.

    One token bounds one solve (or one column of a batched solve).  The
    solvers poll it — never the other way around — so a control can only
    stop a solve at the granularity the solver checks it: every restart
    boundary plus every ``check_interval`` inner iterations.  That keeps
    the hot loop free of locks and syscalls (a poll is one monotonic-clock
    read and one unsynchronized flag read) while guaranteeing a bounded
    response time.

    Thread model: :meth:`cancel` may be called from any thread (it sets a
    :class:`threading.Event`); everything else is driven by the solving
    thread.  The token is single-use — it carries the consumed-iteration
    count of the solve it is attached to.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget from construction time (monotonic clock); the
        solve resolves with :attr:`SolverStatus.TIMED_OUT` once exceeded.
    max_iterations:
        Inner-iteration budget across the whole solve (counts iterations
        :meth:`charge`\\ d by the solver); exhaustion resolves with
        :attr:`SolverStatus.MAX_ITERATIONS`.
    check_interval:
        How many inner iterations a solver may run between polls (the
        cancellation-latency granularity; default 8).
    """

    __slots__ = ("_deadline_at", "_cancelled", "max_iterations", "check_interval", "_charged")

    def __init__(
        self,
        *,
        deadline_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        check_interval: int = 8,
    ) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self._deadline_at = (
            None if deadline_seconds is None else time.monotonic() + float(deadline_seconds)
        )
        self._cancelled = threading.Event()
        self.max_iterations = None if max_iterations is None else int(max_iterations)
        self.check_interval = int(check_interval)
        self._charged = 0

    # -- caller side --------------------------------------------------- #
    @classmethod
    def with_timeout(cls, deadline_ms: float, **kwargs) -> "SolveControl":
        """Token whose deadline is ``deadline_ms`` milliseconds from now."""
        return cls(deadline_seconds=float(deadline_ms) / 1e3, **kwargs)

    def cancel(self) -> None:
        """Request cancellation (thread-safe, idempotent).

        The solve resolves with :attr:`SolverStatus.CANCELLED` at its next
        poll — within ``check_interval`` inner iterations.
        """
        self._cancelled.set()

    # -- solver side --------------------------------------------------- #
    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def deadline_at(self) -> Optional[float]:
        """Absolute monotonic-clock deadline (``None`` when unbounded)."""
        return self._deadline_at

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when unbounded; can be < 0)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def expired(self) -> bool:
        return self._deadline_at is not None and time.monotonic() >= self._deadline_at

    @property
    def iterations_charged(self) -> int:
        return self._charged

    def charge(self, iterations: int = 1) -> None:
        """Debit inner iterations against the budget (solver bookkeeping)."""
        self._charged += int(iterations)

    def poll(self) -> Optional[SolverStatus]:
        """Terminal status this control demands, or ``None`` to continue.

        Priority: ``CANCELLED`` > ``TIMED_OUT`` > ``MAX_ITERATIONS`` — an
        explicit client cancellation is reported even if the deadline also
        lapsed while the request sat in a queue.
        """
        if self._cancelled.is_set():
            return SolverStatus.CANCELLED
        if self.expired():
            return SolverStatus.TIMED_OUT
        if self.max_iterations is not None and self._charged >= self.max_iterations:
            return SolverStatus.MAX_ITERATIONS
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        remaining = self.remaining_seconds()
        return (
            f"<SolveControl cancelled={self.cancelled} "
            f"remaining={'inf' if remaining is None else f'{remaining:.3f}s'} "
            f"charged={self._charged}/{self.max_iterations or 'inf'}>"
        )


@dataclass
class LossOfAccuracyTest:
    """Detects divergence of the implicit and explicit residuals.

    Triggered when the implicit residual claims convergence (it is below
    ``tolerance``) but the explicitly recomputed residual is larger by more
    than ``divergence_factor``.  Belos reports this condition as a "loss of
    accuracy" of the solver; the paper hits it with high-degree fp32
    polynomial preconditioners (Section V-F).
    """

    tolerance: float
    divergence_factor: float = 10.0

    def triggered(self, implicit_norm: float, explicit_norm: float) -> bool:
        if implicit_norm > self.tolerance:
            return False
        if explicit_norm <= self.tolerance:
            return False
        return explicit_norm > self.divergence_factor * max(implicit_norm, 1e-300)


@dataclass
class StagnationTest:
    """Optional stagnation detector over restart cycles.

    Flags stagnation when the explicit residual fails to improve by at least
    ``min_reduction`` over ``patience`` consecutive restarts.  Disabled by
    default in the solvers (the paper lets stalled fp32 runs keep iterating
    and reports the floor they reach), but exposed for users who prefer an
    early exit.  The solvers treat a passed test as a template and run one
    fresh copy per right-hand side, so its own state never carries over
    from one solve to the next.
    """

    patience: int = 5
    min_reduction: float = 0.99

    def __post_init__(self) -> None:
        self._best: Optional[float] = None
        self._since_improvement = 0

    def update(self, explicit_norm: float) -> bool:
        """Feed one restart's explicit residual; returns True when stagnated."""
        if self._best is None or explicit_norm < self._best * self.min_reduction:
            self._best = explicit_norm if self._best is None else min(self._best, explicit_norm)
            self._since_improvement = 0
            return False
        self._since_improvement += 1
        return self._since_improvement >= self.patience

    def reset(self) -> None:
        self._best = None
        self._since_improvement = 0
