"""Resilience tests for the serve layer: deadlines, cancellation, the
circuit breaker, and the shutdown/worker-survival races.

The contract under test (see the README's "Failure semantics" section):

* a request whose deadline lapses while queued fails fast with
  :class:`DeadlineExceededError` and is **never dispatched**;
* a near-deadline request is never held for the full micro-batching
  window;
* cancelling a queued future drops it before dispatch; cancelling an
  in-flight one resolves it with status ``CANCELLED`` within one restart
  cycle;
* ``set_exception`` on an already-cancelled future (the client-cancel vs
  worker-resolve race) must not kill a worker;
* a batch-level solver exception fails exactly that batch's futures and
  the dispatcher/worker keeps serving;
* an operator with consecutive hard failures is quarantined by its
  circuit breaker and readmitted through a half-open probe;
* at quiescence every telemetry sink satisfies
  ``submitted == completed + failed``, and a request's outcome is
  booked before its future resolves (a done-callback already sees it).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError, Future, InvalidStateError

import numpy as np
import pytest

from repro.backends import get_backend
from repro.matrices import laplace2d
from repro.obs import Observability, RequestTrace, Tracer
from repro.preconditioners.base import Preconditioner
from repro.serve import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    OperatorSession,
    ReproServeError,
    SolverFarm,
)
from repro.serve.scheduler import (
    PendingRequest,
    complete_future,
    fail_future,
    run_batch,
)
from repro.serve.telemetry import ServeTelemetry
from repro.solvers import SolverStatus
from repro.testing import (
    FaultInjectedError,
    FaultInjectingBackend,
    fault_injecting_session_factory,
)


class SlowPrecond(Preconditioner):
    """Identity preconditioner with a per-application sleep.

    Gives a solve a controllable wall-clock duration, so tests can
    reliably observe in-flight state (running futures, busy dispatchers)
    without racing a fast solver.
    """

    def __init__(self, sleep_seconds: float, precision="double"):
        super().__init__(precision=precision, name="slow-identity")
        self.sleep_seconds = float(sleep_seconds)

    def apply(self, vector, out=None):
        time.sleep(self.sleep_seconds)
        if out is None:
            return vector.copy()
        out[...] = vector
        return out

    def apply_block(self, block, out=None):
        time.sleep(self.sleep_seconds)
        if out is None:
            return block.copy()
        out[...] = block
        return out


@pytest.fixture(scope="module")
def matrix():
    return laplace2d(10)  # n = 100


@pytest.fixture(scope="module")
def rhs(matrix):
    rng = np.random.default_rng(11)
    return rng.standard_normal(matrix.n_rows)


SESSION_KWARGS = dict(restart=8, tol=1e-8, max_restarts=60)


def make_session(matrix, **kwargs):
    defaults = dict(**SESSION_KWARGS, max_wait_ms=2.0)
    defaults.update(kwargs)
    return OperatorSession(matrix, **defaults)


def slow_kwargs(sleep_seconds=0.005, **kwargs):
    """Front settings whose solves reliably take >= ~100 ms wall-clock."""
    defaults = dict(
        restart=15,
        tol=1e-12,
        max_restarts=200,
        preconditioner=SlowPrecond(sleep_seconds),
        max_block=1,
        max_wait_ms=1.0,
    )
    defaults.update(kwargs)
    return defaults


class OneTenantFarm:
    """A farm with one operator behind the session's submit/stats/close
    surface, so one lifecycle suite runs against both fronts."""

    def __init__(self, matrix, *, max_wait_ms=2.0, **session_kwargs):
        self.farm = SolverFarm(workers=1, max_wait_ms=max_wait_ms)
        self.farm.register("op", matrix, **{**SESSION_KWARGS, **session_kwargs})

    def submit(self, b, *, deadline_ms=None):
        return self.farm.submit("op", b, deadline_ms=deadline_ms)

    def stats(self):
        return self.farm.stats().tenants["op"].serve

    def close(self, **kwargs):
        self.farm.close(**kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def front():
    """Opens the front under test; the farm variants override this."""
    return make_session


def wait_until(predicate, timeout=10.0, interval=0.002):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def assert_accounted(stats):
    """The quiescence invariant of every telemetry sink."""
    assert stats.requests_submitted == (
        stats.requests_completed + stats.requests_failed
    )


# --------------------------------------------------------------------- #
# circuit breaker (unit)                                                #
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown_ms=-1.0)

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, cooldown_ms=10_000.0)
        assert breaker.admit() is None
        assert breaker.record_failure() is False
        assert breaker.state == "closed"
        assert breaker.record_failure() is True  # the trip
        assert breaker.state == "open"
        assert breaker.trips == 1
        hint = breaker.admit()
        assert hint is not None and hint > 0.0

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown_ms=10_000.0)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        assert breaker.record_failure() is False  # streak restarted
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=10.0)
        assert breaker.record_failure() is True
        time.sleep(0.02)
        assert breaker.admit() is None  # the probe slot
        assert breaker.state == "half_open"
        assert breaker.admit() is not None  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.admit() is None

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=10.0)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.admit() is None
        assert breaker.record_failure() is True  # probe failed: re-trip
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.admit() is not None  # fresh cool-down

    def test_lost_probe_slot_is_reclaimed(self):
        # A probe that expires/cancels before producing an outcome must
        # not wedge the breaker half-open forever.
        breaker = CircuitBreaker(threshold=1, cooldown_ms=10.0)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.admit() is None  # probe vanishes without feedback
        time.sleep(0.02)  # longer than one cool-down
        assert breaker.admit() is None  # slot handed to the next request

    def test_late_failure_while_open_restarts_clock_without_trip(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=10_000.0)
        assert breaker.record_failure() is True
        assert breaker.record_failure() is False  # in-flight batch report
        assert breaker.trips == 1
        assert breaker.state == "open"


# --------------------------------------------------------------------- #
# the client-cancel vs worker-resolve race (satellite 3)                #
# --------------------------------------------------------------------- #
class TestFutureResolutionRace:
    def test_raw_set_exception_on_cancelled_future_raises(self):
        # The race being guarded against: a client cancels in the
        # hair's breadth between the worker popping the request and
        # resolving it.  Unguarded, this kills the worker thread.
        request = PendingRequest(np.ones(4))
        assert request.future.cancel() is True
        with pytest.raises(InvalidStateError):
            request.future.set_exception(RuntimeError("boom"))

    def test_fail_future_tolerates_cancelled_future(self):
        request = PendingRequest(np.ones(4))
        request.future.cancel()
        assert fail_future(request.future, RuntimeError("boom")) is False
        assert complete_future(request.future, object()) is False
        assert request.future.cancelled()

    def test_helpers_tolerate_already_resolved_future(self):
        future = Future()
        future.set_result("first")
        assert complete_future(future, "second") is False
        assert fail_future(future, RuntimeError("late")) is False
        assert future.result() == "first"

    def test_helpers_resolve_pending_futures_normally(self):
        future = Future()
        assert complete_future(future, 42) is True
        assert future.result() == 42
        failed = Future()
        assert fail_future(failed, RuntimeError("boom")) is True
        with pytest.raises(RuntimeError, match="boom"):
            failed.result()

    def test_serve_future_cancel_signals_control_even_when_running(self):
        request = PendingRequest(np.ones(4))
        assert request.future.set_running_or_notify_cancel() is True
        assert request.future.cancel() is False  # standard Future semantics
        assert request.control.cancelled  # but the token is signalled


# --------------------------------------------------------------------- #
# session deadlines                                                     #
# --------------------------------------------------------------------- #
class TestSessionDeadlines:
    def test_dead_on_arrival_deadline_fails_fast(self, front, matrix, rhs):
        with front(matrix) as session:
            future = session.submit(rhs, deadline_ms=0.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=5)
            assert excinfo.value.deadline_ms == 0.0
            assert isinstance(excinfo.value, ReproServeError)
            stats = session.stats()
            # Never dispatched: no batch ever ran.
            assert stats.batches_dispatched == 0
            assert stats.requests_timed_out == 1
            assert stats.requests_failed == 1
            assert_accounted(stats)

    def test_queue_expiry_is_never_dispatched(self, front, matrix, rhs):
        # Occupy the (width-1) dispatcher with a slow solve; a request
        # whose deadline lapses while it waits behind it must fail with
        # DeadlineExceededError without ever reaching the solver.
        with front(matrix, **slow_kwargs()) as session:
            blocker = session.submit(rhs)
            doomed = session.submit(rhs, deadline_ms=20.0)
            assert blocker.result(timeout=30).status is not None
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            assert wait_until(
                lambda: session.stats().requests_timed_out == 1
            )
            stats = session.stats()
            assert stats.batches_dispatched == 1  # only the blocker
            assert_accounted(stats)

    def test_queue_expiry_is_booked_before_the_future_resolves(
        self, front, matrix, rhs
    ):
        # Done-callbacks run inside set_exception, so what one reads from
        # stats() is exactly what was booked before the future resolved.
        seen = []
        with front(matrix, **slow_kwargs()) as session:
            blocker = session.submit(rhs)
            doomed = session.submit(rhs, deadline_ms=20.0)
            doomed.add_done_callback(
                lambda _: seen.append(session.stats().requests_timed_out)
            )
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            blocker.result(timeout=30)
        assert seen == [1]

    def test_near_deadline_request_not_held_for_window(self, front, matrix, rhs):
        # Micro-batching window of 5 s, lone request with a 40 ms
        # deadline: the deadline-aware assembler must dispatch (or
        # expire) it in tens of milliseconds, not seconds.
        with front(matrix, max_block=4, max_wait_ms=5000.0) as session:
            start = time.perf_counter()
            future = session.submit(rhs, deadline_ms=40.0)
            try:
                result = future.result(timeout=30)
                assert result.status in (
                    SolverStatus.CONVERGED,
                    SolverStatus.TIMED_OUT,
                )
            except DeadlineExceededError:
                pass  # expired at the dispatch boundary: equally valid
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, (
                f"near-deadline request held {elapsed:.2f}s by a 5s window"
            )


# --------------------------------------------------------------------- #
# session cancellation                                                  #
# --------------------------------------------------------------------- #
class TestSessionCancellation:
    def test_cancel_queued_request_is_dropped(self, front, matrix, rhs):
        with front(matrix, **slow_kwargs()) as session:
            blocker = session.submit(rhs)
            queued = session.submit(rhs)
            assert queued.cancel() is True  # still queued: cancels cleanly
            assert queued.cancelled()
            with pytest.raises(CancelledError):
                queued.result(timeout=5)
            blocker.result(timeout=30)
            # The drop is accounted when the assembler sweeps the queue.
            assert wait_until(
                lambda: session.stats().requests_cancelled == 1
            )
            stats = session.stats()
            assert stats.batches_dispatched == 1
            assert_accounted(stats)

    def test_cancel_in_flight_resolves_cancelled(self, front, matrix, rhs):
        # tol is unreachable, so the solve runs until the token stops it:
        # cancel() returns False (the future is RUNNING) but the solve
        # resolves with status CANCELLED within one restart cycle.
        with front(
            matrix,
            **slow_kwargs(sleep_seconds=0.002, tol=1e-30, max_restarts=1_000_000),
        ) as session:
            future = session.submit(rhs)
            assert wait_until(future.running, timeout=10.0)
            assert future.cancel() is False
            result = future.result(timeout=30)
            assert result.status == SolverStatus.CANCELLED
            assert np.all(np.isfinite(result.x))
            stats = session.stats()
            # Mid-solve cancellation is a *completed* request with a
            # CANCELLED status — and it is classified in the counter.
            assert stats.requests_completed == 1
            assert stats.requests_cancelled == 1
            assert_accounted(stats)

    def test_cancel_after_completion_is_noop(self, front, matrix, rhs):
        with front(matrix) as session:
            future = session.submit(rhs)
            result = future.result(timeout=30)
            assert result.converged
            assert future.cancel() is False
            assert future.result() is result


# --------------------------------------------------------------------- #
# shutdown races (satellite 4)                                          #
# --------------------------------------------------------------------- #
class TestCloseRaces:
    def test_close_no_drain_fails_queued_resolves_inflight(self, front, matrix, rhs):
        session = front(matrix, **slow_kwargs())
        inflight = session.submit(rhs)
        assert wait_until(inflight.running, timeout=10.0)
        queued = [session.submit(rhs) for _ in range(2)]
        session.close(drain=False, timeout=30)
        # The in-flight solve resolves normally; the queued ones fail
        # with RuntimeError — nobody hangs, nobody is lost.
        assert inflight.result(timeout=30).status is not None
        for future in queued:
            with pytest.raises(RuntimeError, match="closed"):
                future.result(timeout=5)
        stats = session.stats()
        assert stats.requests_submitted == 3
        assert stats.requests_completed == 1
        assert stats.requests_failed == 2
        assert_accounted(stats)

    def test_close_no_drain_with_cancelled_queued(self, front, matrix, rhs):
        session = front(matrix, **slow_kwargs())
        inflight = session.submit(rhs)
        assert wait_until(inflight.running, timeout=10.0)
        cancelled = session.submit(rhs)
        abandoned = session.submit(rhs)
        assert cancelled.cancel() is True
        session.close(drain=False, timeout=30)
        inflight.result(timeout=30)
        with pytest.raises(CancelledError):
            cancelled.result(timeout=5)
        with pytest.raises(RuntimeError, match="closed"):
            abandoned.result(timeout=5)
        stats = session.stats()
        assert stats.requests_cancelled == 1
        assert_accounted(stats)

    def test_abandoned_request_is_booked_before_the_future_resolves(
        self, front, matrix, rhs
    ):
        session = front(matrix, **slow_kwargs())
        inflight = session.submit(rhs)
        assert wait_until(inflight.running, timeout=10.0)
        queued = session.submit(rhs)
        seen = []
        queued.add_done_callback(
            lambda _: seen.append(session.stats().requests_failed)
        )
        session.close(drain=False, timeout=30)
        assert seen == [1]
        inflight.result(timeout=30)

    def test_close_is_idempotent(self, front, matrix, rhs):
        session = front(matrix)
        session.submit(rhs).result(timeout=30)
        session.close()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(rhs)


def test_closed_submit_is_counted_and_traced(matrix, rhs):
    # A submit refused because the engine is closed is one counted,
    # failed request with one finished span tree, like every other
    # synchronous rejection.
    tracer = Tracer()
    session = make_session(matrix, obs=Observability(tracer=tracer, registry=None))
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.submit(rhs)
    stats = session.stats()
    roots = [s for s in tracer.finished_spans() if s.name == "request"]
    assert len(roots) == stats.requests_submitted == stats.requests_failed == 1
    assert roots[0].attrs["outcome"] == "closed"
    assert tracer.open_spans == 0


class TestFarmDeadlines(TestSessionDeadlines):
    """The deadline suite against a one-tenant farm."""

    @pytest.fixture
    def front(self):
        return OneTenantFarm


class TestFarmCancellation(TestSessionCancellation):
    """The cancellation suite against a one-tenant farm."""

    @pytest.fixture
    def front(self):
        return OneTenantFarm


class TestFarmCloseRaces(TestCloseRaces):
    """The shutdown suite against a one-tenant farm."""

    @pytest.fixture
    def front(self):
        return OneTenantFarm


# --------------------------------------------------------------------- #
# dispatcher / worker survival after batch-level exceptions             #
# --------------------------------------------------------------------- #
class TestBatchExceptionContainment:
    def _spmm_bomb(self):
        # Only the *batched* operator product raises; width-1 solves (and
        # their spmv) pass through untouched.
        return FaultInjectingBackend(
            get_backend("numpy"),
            exception_rate=1.0,
            kernels={"spmm"},
            seed=3,
        )

    def test_dispatcher_survives_batch_exception(self, matrix, rhs):
        from repro.linalg.context import use_backend

        with use_backend(self._spmm_bomb()):
            session = OperatorSession(
                matrix,
                warmup=False,
                max_block=2,
                max_wait_ms=200.0,
                policy="block",
                **SESSION_KWARGS,
            )
        with session:
            first = session.submit(rhs)
            second = session.submit(rhs)
            # Both riders of the poisoned batch get the solver exception…
            for future in (first, second):
                with pytest.raises(FaultInjectedError):
                    future.result(timeout=30)
            # …and the dispatcher survives to serve the next (width-1,
            # spmm-free) request.
            assert session.submit(rhs).result(timeout=30).converged
            stats = session.stats()
            assert stats.requests_failed == 2
            assert stats.requests_completed == 1
            assert_accounted(stats)

    def test_farm_worker_survives_batch_exception(self, matrix, rhs):
        farm = SolverFarm(workers=1, max_wait_ms=200.0)
        farm.register(
            "flaky",
            factory=fault_injecting_session_factory(
                matrix,
                self._spmm_bomb(),
                warmup=False,
                max_block=2,
                policy="block",
                **SESSION_KWARGS,
            ),
            n_rows=matrix.n_rows,
        )
        farm.register("healthy", matrix, **SESSION_KWARGS)
        with farm:
            first = farm.submit("flaky", rhs)
            second = farm.submit("flaky", rhs)
            for future in (first, second):
                with pytest.raises(FaultInjectedError):
                    future.result(timeout=30)
            # The worker survives for this tenant and every other one.
            assert farm.submit("flaky", rhs).result(timeout=30).converged
            assert farm.submit("healthy", rhs).result(timeout=30).converged
            fleet = farm.stats().fleet
            assert fleet.requests_failed == 2
            assert fleet.requests_completed == 2
            assert_accounted(fleet)


    def test_mismatched_factory_fails_its_futures_not_the_worker(self, matrix, rhs):
        # Registered one row longer than the session its factory builds:
        # the length-(n+1) request passes validation but cannot ride the
        # session's block.  Its future fails, the breaker is fed, and the
        # only worker lives on to serve a healthy tenant.
        n = matrix.n_rows
        farm = SolverFarm(workers=1, max_wait_ms=2.0, breaker_threshold=1)
        farm.register("skewed", factory=lambda: make_session(matrix), n_rows=n + 1)
        farm.register("healthy", matrix, **SESSION_KWARGS)
        with farm:
            doomed = farm.submit("skewed", np.ones(n + 1))
            with pytest.raises(ValueError, match="n_rows"):
                doomed.result(timeout=10)
            assert farm.submit("healthy", rhs).result(timeout=30).converged
            stats = farm.stats()
        assert stats.tenants["skewed"].breaker_trips == 1
        fleet = stats.fleet
        assert fleet.requests_submitted == 2
        assert fleet.requests_completed == 1
        assert fleet.requests_failed == 1

    def test_run_batch_forwards_assembly_errors(self, matrix):
        # "Never raises" covers assembling the block, not just the solve,
        # and the failed batch leaves no span open.
        telemetry = ServeTelemetry()
        tracer = Tracer()
        request = PendingRequest(np.ones(matrix.n_rows + 1), sinks=(telemetry,))
        request.trace = RequestTrace(tracer, session="s")
        request.trace.submitted()
        assert request.future.set_running_or_notify_cancel()
        with make_session(matrix) as session:
            report = run_batch(session, [request], tracer=tracer)
        assert isinstance(report.exception, ValueError)
        assert report.hard_failure
        with pytest.raises(ValueError):
            request.future.result(timeout=1)
        assert telemetry.snapshot().requests_failed == 1
        assert tracer.open_spans == 0
        [assembly] = [s for s in tracer.finished_spans() if s.name == "batch_assembly"]
        assert "ValueError" in assembly.attrs["error"]


# --------------------------------------------------------------------- #
# farm-level deadlines, cancellation and the breaker                    #
# --------------------------------------------------------------------- #
class TestFarmResilience:
    def test_farm_dead_on_arrival_deadline(self, matrix, rhs):
        farm = SolverFarm(workers=1, max_wait_ms=2.0)
        farm.register("op", matrix, **SESSION_KWARGS)
        with farm:
            future = farm.submit("op", rhs, deadline_ms=0.0)
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5)
            stats = farm.stats()
            tenant = stats.tenants["op"].serve
            assert tenant.requests_timed_out == 1
            assert tenant.batches_dispatched == 0  # never dispatched
            assert_accounted(stats.fleet)

    def test_farm_cancel_resolves_and_is_accounted(self, matrix, rhs):
        farm = SolverFarm(workers=1, max_wait_ms=2.0)
        farm.register(
            "slow",
            matrix,
            preconditioner=SlowPrecond(0.005),
            restart=15,
            tol=1e-12,
            max_restarts=200,
        )
        with farm:
            blocker = farm.submit("slow", rhs)
            target = farm.submit("slow", rhs)
            target.cancel()
            blocker.result(timeout=60)
            # Whichever side of the pop the cancel landed on, the future
            # resolves — dropped while queued (CancelledError) or
            # deflated mid-solve (status CANCELLED) — and the tenant's
            # cancellation counter sees exactly one event.
            if target.cancelled():
                with pytest.raises(CancelledError):
                    target.result(timeout=5)
            else:
                assert target.result(timeout=60).status == (
                    SolverStatus.CANCELLED
                )
            assert wait_until(
                lambda: (
                    farm.stats().tenants["slow"].serve.requests_cancelled == 1
                )
            )
        assert_accounted(farm.stats().fleet)

    def test_failed_warmup_is_booked_before_the_future_resolves(self, matrix, rhs):
        # The factory blocks until the callback is registered, so the
        # callback runs inside the worker's drop, not after it.
        release = threading.Event()

        def broken_factory():
            release.wait(timeout=10)
            raise RuntimeError("warm-up failed")

        farm = SolverFarm(workers=1, max_wait_ms=2.0)
        farm.register("broken", factory=broken_factory, n_rows=matrix.n_rows)
        seen = []
        with farm:
            future = farm.submit("broken", rhs)
            future.add_done_callback(
                lambda _: seen.append(
                    farm.stats().tenants["broken"].serve.requests_failed
                )
            )
            release.set()
            with pytest.raises(RuntimeError, match="warm-up failed"):
                future.result(timeout=10)
        assert seen == [1]

    def test_breaker_quarantines_and_probe_readmits(self, matrix, rhs):
        faulty = FaultInjectingBackend(
            get_backend("numpy"), exception_rate=1.0, seed=5
        )
        farm = SolverFarm(
            workers=1,
            max_wait_ms=2.0,
            breaker_threshold=2,
            breaker_cooldown_ms=100.0,
        )
        farm.register(
            "bad",
            factory=fault_injecting_session_factory(
                matrix, faulty, **SESSION_KWARGS
            ),
            n_rows=matrix.n_rows,
        )
        farm.register("good", matrix, **SESSION_KWARGS)
        with farm:
            # Two consecutive hard failures trip the threshold-2 breaker.
            for _ in range(2):
                with pytest.raises(FaultInjectedError):
                    farm.submit("bad", rhs).result(timeout=30)

            # The trip is observed asynchronously (the worker feeds the
            # breaker); keep submitting until admission control slams
            # shut.  Resolve every straggler so no late failure report
            # keeps restarting the quarantine clock.
            stragglers = []
            open_error = None
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                try:
                    stragglers.append(farm.submit("bad", rhs))
                except CircuitOpenError as exc:
                    open_error = exc
                    break
                time.sleep(0.01)
            assert open_error is not None, "breaker never opened"
            assert open_error.key == "bad"
            assert open_error.retry_after_ms > 0.0
            for future in stragglers:
                with pytest.raises(FaultInjectedError):
                    future.result(timeout=30)

            # Quarantine: the warmed (poisoned) session was evicted.
            assert "bad" not in farm.registry.live_keys()
            stats = farm.stats()
            assert stats.tenants["bad"].breaker_trips >= 1
            assert stats.breaker_trips >= 1

            # A healthy tenant is untouched by the quarantine.
            assert farm.submit("good", rhs).result(timeout=30).converged

            # Heal the operator and wait out the cool-down: the half-open
            # probe re-warms the session and closes the breaker.
            faulty.exception_rate = 0.0
            time.sleep(0.15)
            probe = None
            deadline = time.perf_counter() + 10.0
            while probe is None and time.perf_counter() < deadline:
                try:
                    probe = farm.submit("bad", rhs)
                except CircuitOpenError:
                    time.sleep(0.05)
            assert probe is not None, "probe never admitted"
            assert probe.result(timeout=30).converged
            # Traffic has resumed for good.
            assert farm.submit("bad", rhs).result(timeout=30).converged
        assert_accounted(farm.stats().fleet)
