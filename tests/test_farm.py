"""Tests for the multi-tenant solver farm (:mod:`repro.serve.farm`) and
the warmed-session LRU registry (:mod:`repro.serve.registry`).

Covers the farm acceptance properties: eviction can never lose a future
(queues belong to the farm, re-warm is transparent), a hot tenant cannot
starve the others beyond its weight, backpressure is a synchronous
:class:`RejectedError` with a retry hint, and the ``asyncio`` front
resolves through the same queues and worker pool.
"""

from __future__ import annotations

import asyncio
import gc
import json
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
from repro.config import rng
from repro.matrices import laplace2d, laplace3d
from repro.obs import MetricsRegistry, Observability, default_registry
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.serve import (
    FarmStats,
    OperatorSession,
    RejectedError,
    SessionRegistry,
    SolverFarm,
)
from repro.solvers import ResultLike


@pytest.fixture(scope="module")
def matrix():
    return laplace3d(6)  # n = 216: small enough for eviction-churn tests


def make_session(matrix, **kwargs):
    defaults = dict(restart=8, tol=1e-8, max_restarts=60)
    defaults.update(kwargs)
    return OperatorSession(matrix, **defaults)


def make_farm(**kwargs):
    defaults = dict(workers=2, max_wait_ms=2.0)
    defaults.update(kwargs)
    return SolverFarm(**defaults)


SESSION_KWARGS = dict(restart=8, tol=1e-8, max_restarts=60)


def wait_for(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestSessionRegistry:
    def registry(self, matrix, **kwargs):
        reg = SessionRegistry(**kwargs)
        for key in ("a", "b", "c"):
            reg.register(key, lambda: make_session(matrix))
        return reg

    def test_builds_lazily_and_caches(self, matrix):
        reg = self.registry(matrix, max_sessions=4)
        assert reg.live_count == 0
        first = reg.get_or_create("a")
        assert reg.get_or_create("a") is first
        assert reg.live_count == 1
        assert reg.creations == 1

    def test_unknown_key_raises(self, matrix):
        reg = self.registry(matrix)
        with pytest.raises(KeyError, match="nope"):
            reg.get_or_create("nope")

    def test_lru_eviction_order(self, matrix):
        reg = self.registry(matrix, max_sessions=2)
        reg.get_or_create("a")
        reg.get_or_create("b")
        reg.get_or_create("a")  # a is now MRU
        reg.get_or_create("c")  # evicts b, the LRU
        assert set(reg.live_keys()) == {"a", "c"}
        assert reg.evictions == 1

    def test_rewarm_after_eviction_is_transparent(self, matrix):
        reg = self.registry(matrix, max_sessions=1)
        first = reg.get_or_create("a")
        reg.get_or_create("b")  # evicts a
        again = reg.get_or_create("a")  # re-warms through the factory
        assert again is not first
        assert reg.creations == 3
        assert reg.evictions == 2
        # The re-warmed session is a fully working session.
        b = np.ones(matrix.n_rows)
        assert again.solve(b).converged

    def test_peek_does_not_build_or_touch_recency(self, matrix):
        reg = self.registry(matrix, max_sessions=2)
        assert reg.peek("a") is None
        reg.get_or_create("a")
        reg.get_or_create("b")
        reg.peek("a")  # must NOT promote a to MRU
        reg.get_or_create("c")  # evicts a (still LRU despite the peek)
        assert set(reg.live_keys()) == {"b", "c"}

    def test_byte_budget_evicts_lru_but_never_mru(self, matrix):
        one = make_session(matrix).estimated_bytes()
        reg = self.registry(matrix, max_sessions=8, max_bytes=int(1.5 * one))
        reg.get_or_create("a")
        reg.get_or_create("b")  # over budget -> a evicted
        assert reg.live_keys() == ["b"]
        # A single oversized session is served, not wedged.
        tight = self.registry(matrix, max_sessions=8, max_bytes=1)
        assert tight.get_or_create("a") is not None
        assert tight.live_count == 1

    def test_evicted_session_finishes_in_flight_work(self, matrix):
        # release(), not close(): a worker holding the session across the
        # eviction can still run its current dispatch.
        reg = self.registry(matrix, max_sessions=1)
        session = reg.get_or_create("a")
        reg.get_or_create("b")  # evicts a
        result = session._solve_block(
            np.ones((matrix.n_rows, 1), dtype=np.float64, order="F")
        )
        assert result.converged

    def test_reregister_replaces_live_session(self, matrix):
        reg = self.registry(matrix, max_sessions=4)
        old = reg.get_or_create("a")
        reg.register("a", lambda: make_session(matrix, restart=5))
        new = reg.get_or_create("a")
        assert new is not old
        assert new.restart == 5

    def test_release_all_keeps_factories(self, matrix):
        reg = self.registry(matrix, max_sessions=4)
        reg.get_or_create("a")
        reg.release_all()
        assert reg.live_count == 0
        assert reg.get_or_create("a") is not None


class TestFarmBasics:
    def test_serves_multiple_operators(self, matrix):
        other = laplace2d(12)
        with make_farm() as farm:
            farm.register("big", matrix, **SESSION_KWARGS)
            farm.register("small", other, **SESSION_KWARGS)
            fb = farm.submit("big", np.ones(matrix.n_rows))
            fs = farm.submit("small", np.ones(other.n_rows))
            assert fb.result(timeout=30).converged
            assert fs.result(timeout=30).converged
            assert fb.result().x.shape == (matrix.n_rows,)

    def test_result_matches_direct_session_solve(self, matrix):
        b = rng(3).standard_normal(matrix.n_rows)
        with make_farm(workers=1) as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            served = farm.submit("op", b).result(timeout=30)
        with make_session(matrix) as session:
            direct = session.solve(b)
        np.testing.assert_array_equal(served.x, direct.x)

    def test_unknown_key_raises(self, matrix):
        with make_farm() as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            with pytest.raises(KeyError, match="nope"):
                farm.submit("nope", np.ones(matrix.n_rows))

    def test_validation_error_resolves_future(self, matrix):
        with make_farm() as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            bad = farm.submit("op", np.ones(7))
            with pytest.raises(ValueError, match=f"length-{matrix.n_rows}"):
                bad.result(timeout=5)
            nan = farm.submit("op", np.full(matrix.n_rows, np.nan))
            with pytest.raises(ValueError, match="non-finite"):
                nan.result(timeout=5)

    def test_factory_registration_requires_n_rows(self, matrix):
        with make_farm() as farm:
            with pytest.raises(ValueError, match="n_rows"):
                farm.register("op", factory=lambda: make_session(matrix))
            farm.register(
                "op",
                factory=lambda: make_session(matrix),
                n_rows=matrix.n_rows,
            )
            assert farm.submit("op", np.ones(matrix.n_rows)).result(30).converged

    def test_register_rejects_ambiguous_arguments(self, matrix):
        with make_farm() as farm:
            with pytest.raises(ValueError, match="exactly one"):
                farm.register("op")
            with pytest.raises(ValueError, match="exactly one"):
                farm.register(
                    "op", matrix, factory=lambda: make_session(matrix)
                )

    def test_broken_factory_fails_only_that_tenant(self, matrix):
        def broken():
            raise RuntimeError("warmup exploded")

        with make_farm(workers=1) as farm:
            farm.register("bad", factory=broken, n_rows=matrix.n_rows)
            farm.register("good", matrix, **SESSION_KWARGS)
            doomed = farm.submit("bad", np.ones(matrix.n_rows))
            fine = farm.submit("good", np.ones(matrix.n_rows))
            with pytest.raises(RuntimeError, match="warmup exploded"):
                doomed.result(timeout=30)
            assert fine.result(timeout=30).converged

    def test_close_drains_queued_work(self, matrix):
        farm = make_farm()
        farm.register("op", matrix, **SESSION_KWARGS)
        futures = [farm.submit("op", np.ones(matrix.n_rows)) for _ in range(6)]
        farm.close()  # drain=True default
        assert all(f.result(timeout=1).converged for f in futures)
        with pytest.raises(RuntimeError, match="closed"):
            farm.submit("op", np.ones(matrix.n_rows))

    def test_close_without_drain_fails_queued(self, matrix):
        farm = make_farm(workers=1, max_wait_ms=50.0)
        farm.register("op", matrix, **SESSION_KWARGS)
        futures = [farm.submit("op", np.ones(matrix.n_rows)) for _ in range(8)]
        farm.close(drain=False)
        outcomes = []
        for f in futures:
            try:
                outcomes.append(f.result(timeout=5).converged)
            except RuntimeError as exc:
                assert "closed" in str(exc)
                outcomes.append("failed")
        # Everything resolved one way or the other: nothing hangs.
        assert len(outcomes) == 8

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="fairness"):
            SolverFarm(fairness="anarchy")
        with pytest.raises(ValueError, match="queue_depth"):
            SolverFarm(queue_depth=0)
        with pytest.raises(ValueError, match="workers"):
            SolverFarm(workers=0)
        with pytest.raises(ValueError, match="weight"):
            with make_farm() as farm:
                farm.register("op", laplace2d(4), weight=0.0)


class TestFarmEvictionUnderLoad:
    def test_no_lost_futures_with_eviction_churn(self, matrix):
        """More tenants than session slots + concurrent clients: every
        accepted future resolves, evictions and re-warms happen."""
        keys = ["t0", "t1", "t2", "t3"]
        with make_farm(max_sessions=2, queue_depth=256) as farm:
            for key in keys:
                farm.register(key, matrix, **SESSION_KWARGS)
            results, errors = [], []
            lock = threading.Lock()

            def client(key, seed):
                try:
                    futures = [
                        farm.submit(
                            key, rng(seed + i).standard_normal(matrix.n_rows)
                        )
                        for i in range(4)
                    ]
                    resolved = [f.result(timeout=60) for f in futures]
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    with lock:
                        errors.append((key, exc))
                else:
                    with lock:
                        results.extend(resolved)

            threads = [
                threading.Thread(target=client, args=(key, 100 * i))
                for i, key in enumerate(keys)
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(results) == len(keys) * 2 * 4
            assert all(r.converged for r in results)
            stats = farm.stats()
        assert stats.fleet.requests_completed == len(results)
        # 4 tenants through 2 slots: sessions were evicted and re-warmed.
        assert stats.evictions > 0
        assert stats.sessions_created > len(keys) - 2
        assert stats.sessions_live <= 2

    def test_evictions_are_counted_per_tenant(self, matrix):
        """Two tenants alternating through one warm slot: every switch
        evicts the other tenant, and the per-tenant counts add up to the
        farm's and the registry's totals."""
        with make_farm(workers=1, max_sessions=1) as farm:
            farm.register("a", matrix, **SESSION_KWARGS)
            farm.register("b", matrix, **SESSION_KWARGS)
            for key in ("a", "b", "a", "b"):
                farm.submit(key, np.ones(matrix.n_rows)).result(timeout=30)
            stats = farm.stats()
            registry_evictions = farm.registry.evictions
        # a warms; b evicts a; a evicts b; b evicts a.
        assert stats.tenants["a"].evictions == 2
        assert stats.tenants["b"].evictions == 1
        per_tenant = sum(t.evictions for t in stats.tenants.values())
        assert per_tenant == stats.evictions == registry_evictions == 3

    def test_rewarm_churn_leaves_default_registry_collectors_unchanged(self, matrix):
        """Sessions the farm builds from matrix= never serve through their
        own scheduler, so re-warming them registers no collector in the
        process-default metrics registry."""
        registry = default_registry()
        before = list(registry._collectors)
        obs = Observability(tracer=None, registry=MetricsRegistry())
        with make_farm(workers=1, max_sessions=1, obs=obs) as farm:
            for key in ("a", "b", "c"):
                farm.register(key, matrix, **SESSION_KWARGS)
            for _ in range(4):
                for key in ("a", "b", "c"):
                    farm.submit(key, np.ones(matrix.n_rows)).result(timeout=30)
            stats = farm.stats()
        assert stats.sessions_created == 12
        assert registry._collectors == before

    def test_session_obs_kwarg_reaches_the_built_session(self, matrix):
        obs = Observability(tracer=None, registry=MetricsRegistry())
        with make_farm(workers=1) as farm:
            farm.register("a", matrix, obs=obs, **SESSION_KWARGS)
            farm.submit("a", np.ones(matrix.n_rows)).result(timeout=30)
            assert farm.registry.peek("a").obs is obs
            farm.register("b", matrix, **SESSION_KWARGS)
            farm.submit("b", np.ones(matrix.n_rows)).result(timeout=30)
            session = farm.registry.peek("b")
            assert session.obs.registry is None and session.obs.tracer is None

    def test_fairness_under_skewed_mix(self, matrix):
        """A hot tenant floods the farm; equal-weight cold tenants still
        get served close to their share while they have work queued."""
        with make_farm(
            workers=1, max_sessions=4, queue_depth=512, max_wait_ms=0.0
        ) as farm:
            for key in ("hot", "cold1", "cold2"):
                farm.register(key, matrix, **SESSION_KWARGS)
            b = np.ones(matrix.n_rows)
            futures = []
            # Interleave: the hot tenant submits 10x the cold tenants.
            for i in range(40):
                futures.append(farm.submit("hot", b))
                if i % 10 == 0:
                    futures.append(farm.submit("cold1", b))
                    futures.append(farm.submit("cold2", b))
            for f in futures:
                assert f.result(timeout=60).converged
            stats = farm.stats()
        hot = stats.tenants["hot"]
        assert hot.serve.requests_completed == 40
        for key in ("cold1", "cold2"):
            tenant = stats.tenants[key]
            assert tenant.serve.requests_completed == 4
            # The cold tenants' requests never waited behind the whole hot
            # backlog: weighted dispatch serves them at their share.
            assert (
                tenant.serve.queue_wait.max_ms
                < stats.tenants["hot"].serve.queue_wait.max_ms
            )


class TestWorkerPoolStress:
    def test_every_request_accounted_under_contention(self, matrix):
        """More workers than cores, several clients per tenant and a short
        switch interval: a lost update to a tenant's queue or busy flag
        would hang a future or break the ledger.  All four keys share one
        matrix and one polynomial preconditioner, so tenants dispatching
        concurrently also apply the same operator at once: a kernel
        temporary shared between threads would corrupt solves."""
        keys = ["t0", "t1", "t2", "t3"]
        per_client = 6
        futures = {key: [] for key in keys}
        shared = laplace3d(6)
        poly = GmresPolynomialPreconditioner(shared, degree=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_farm(
                workers=4, max_sessions=2, queue_depth=512, max_wait_ms=1.0
            ) as farm:
                for key in keys:
                    farm.register(key, shared, preconditioner=poly, **SESSION_KWARGS)

                def client(key, seed):
                    futures[key].append([
                        farm.submit(key, rng(seed + i).standard_normal(matrix.n_rows))
                        for i in range(per_client)
                    ])

                threads = [
                    threading.Thread(target=client, args=(key, 50 * n))
                    for n, key in enumerate(keys + keys)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for key in keys:
                    for batch in futures[key]:
                        assert all(f.result(timeout=60).converged for f in batch)
                stats = farm.stats()
        finally:
            sys.setswitchinterval(interval)
        for key in keys:
            assert stats.tenants[key].serve.requests_completed == 2 * per_client
        fleet = stats.fleet
        assert fleet.requests_submitted == len(keys) * 2 * per_client
        assert fleet.requests_completed == fleet.requests_submitted
        assert fleet.requests_failed == 0


class TestFarmBackpressure:
    def test_rejects_when_queue_full_with_retry_hint(self, matrix):
        farm = make_farm(workers=1, queue_depth=2, max_wait_ms=50.0)
        farm.register("op", matrix, **SESSION_KWARGS)
        accepted = []
        try:
            with pytest.raises(RejectedError) as excinfo:
                for _ in range(64):
                    accepted.append(farm.submit("op", np.ones(matrix.n_rows)))
            assert excinfo.value.retry_after_ms > 0
            assert "retry" in str(excinfo.value)
        finally:
            farm.close()
        # Backpressure never fails accepted work.
        assert all(f.result(timeout=30).converged for f in accepted)

    def test_rejections_are_counted_per_tenant(self, matrix):
        farm = make_farm(workers=1, queue_depth=1, max_wait_ms=50.0)
        farm.register("op", matrix, **SESSION_KWARGS)
        rejected = 0
        for _ in range(8):
            try:
                farm.submit("op", np.ones(matrix.n_rows))
            except RejectedError:
                rejected += 1
        stats = farm.stats()
        farm.close()
        assert rejected > 0
        assert stats.tenants["op"].rejected == rejected
        assert stats.rejections == rejected


class TestFarmAsyncio:
    def test_asubmit_resolves_on_event_loop(self, matrix):
        async def drive(farm):
            results = await asyncio.gather(
                *(
                    farm.asubmit("op", rng(i).standard_normal(matrix.n_rows))
                    for i in range(5)
                )
            )
            return results

        with make_farm() as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            results = asyncio.run(drive(farm))
        assert len(results) == 5
        assert all(r.converged for r in results)

    def test_asubmit_propagates_validation_error(self, matrix):
        async def drive(farm):
            with pytest.raises(ValueError, match="length-"):
                await farm.asubmit("op", np.ones(3))

        with make_farm() as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            asyncio.run(drive(farm))

    def test_session_asubmit_matches_submit(self, matrix):
        b = rng(11).standard_normal(matrix.n_rows)
        with make_session(matrix) as session:
            sync = session.submit(b).result(timeout=30)

            async def drive():
                return await session.asubmit(b)

            result = asyncio.run(drive())
        np.testing.assert_array_equal(result.x, sync.x)


class TestFarmTelemetrySnapshot:
    def test_stats_shape_and_json_roundtrip(self, matrix):
        with make_farm() as farm:
            farm.register("a", matrix, weight=2.0, **SESSION_KWARGS)
            farm.register("b", matrix, **SESSION_KWARGS)
            futures = [farm.submit("a", np.ones(matrix.n_rows)) for _ in range(3)]
            futures += [farm.submit("b", np.ones(matrix.n_rows))]
            for f in futures:
                f.result(timeout=30)
            stats = farm.stats()
        assert isinstance(stats, FarmStats)
        assert stats.fleet.requests_completed == 4
        a, b = stats.tenants["a"], stats.tenants["b"]
        assert a.weight == 2.0
        assert a.expected_share == pytest.approx(2.0 / 3.0)
        assert a.fairness_share == pytest.approx(0.75)
        assert b.fairness_share == pytest.approx(0.25)
        shares = sum(t.fairness_share for t in stats.tenants.values())
        assert shares == pytest.approx(1.0)
        payload = json.dumps(stats.as_dict())  # BENCH_farm.json round-trip
        parsed = json.loads(payload)
        assert parsed["fleet"]["requests_completed"] == 4
        assert parsed["tenants"]["a"]["serve"]["requests_completed"] == 3
        assert parsed["sessions_live"] >= 1


class TestServeFacade:
    def test_repro_session_is_operator_session(self, matrix):
        with repro.session(matrix, **SESSION_KWARGS) as session:
            assert isinstance(session, OperatorSession)
            assert session.submit(np.ones(matrix.n_rows)).result(30).converged

    def test_repro_farm_is_solver_farm(self, matrix):
        with repro.farm(workers=1) as farm:
            assert isinstance(farm, SolverFarm)
            farm.register("op", matrix, **SESSION_KWARGS)
            assert farm.submit("op", np.ones(matrix.n_rows)).result(30).converged

    def test_unknown_top_level_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="does_not_exist"):
            repro.does_not_exist


class TestResultProtocol:
    def test_all_result_types_satisfy_result_like(self, matrix):
        b = np.ones(matrix.n_rows)
        single = repro.gmres(matrix, b, restart=8, tol=1e-8)
        multi = repro.solve_many(
            matrix, rng(5).standard_normal((matrix.n_rows, 2))
        )
        with make_session(matrix) as session:
            served = session.submit(b).result(timeout=30)
        for result in (single, multi, served):
            assert isinstance(result, ResultLike)
            assert result.status is not None
            assert result.converged in (True, False)
            assert result.residual_history is not None
            assert isinstance(result.summary(), str)

    def test_multi_result_unified_names(self, matrix):
        multi = repro.solve_many(
            matrix, rng(6).standard_normal((matrix.n_rows, 2))
        )
        assert multi.converged == all(
            s == repro.SolverStatus.CONVERGED for s in multi.statuses
        )
        assert multi.residual_history is multi.histories
        assert multi.status == repro.SolverStatus.CONVERGED


class TestDispatchHook:
    """``repro.serve.scheduler.run_batch`` is the name a session dispatch
    calls and ``repro.serve.farm.run_batch`` the one a farm dispatch
    calls; the benchmark's layer trace wraps exactly those two names."""

    def test_each_front_dispatches_through_its_module_name(self, matrix, monkeypatch):
        import repro.serve.farm as farm_module
        import repro.serve.scheduler as scheduler_module

        calls = {"scheduler": 0, "farm": 0}

        def counting(label, original):
            def wrapper(*args, **kwargs):
                calls[label] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            scheduler_module, "run_batch", counting("scheduler", scheduler_module.run_batch)
        )
        monkeypatch.setattr(
            farm_module, "run_batch", counting("farm", farm_module.run_batch)
        )
        b = np.ones(matrix.n_rows)
        with make_session(matrix) as session:
            assert session.submit(b).result(timeout=30).converged
        assert calls == {"scheduler": 1, "farm": 0}
        with make_farm(workers=1) as farm:
            farm.register("op", matrix, **SESSION_KWARGS)
            assert farm.submit("op", b).result(timeout=30).converged
        assert calls == {"scheduler": 1, "farm": 1}


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestReleasedSessionsAreFreed:
    """A released or evicted session is freed by reference counting alone:
    its scheduler drops the back-reference once its workers have exited."""

    def test_released_session_dies_without_cyclic_gc(self, matrix, no_cyclic_gc):
        session = make_session(matrix)
        assert session.submit(np.ones(matrix.n_rows)).result(timeout=30).converged
        ref = weakref.ref(session)
        session.release()
        del session
        assert ref() is None

    def test_evicted_farm_session_dies_without_cyclic_gc(self, matrix, no_cyclic_gc):
        b = np.ones(matrix.n_rows)
        with make_farm(workers=1, max_sessions=1) as farm:
            farm.register("a", matrix, **SESSION_KWARGS)
            farm.register("b", matrix, **SESSION_KWARGS)
            assert farm.submit("a", b).result(timeout=30).converged
            ref = weakref.ref(farm.registry.peek("a"))
            assert farm.submit("b", b).result(timeout=30).converged
            assert farm.registry.live_keys() == ["b"]
            # The worker drops its local reference when its round ends.
            assert wait_for(lambda: ref() is None)

    def test_open_session_keeps_queued_work(self, matrix, no_cyclic_gc):
        # The back-reference is strong while the front is open: a session
        # nobody else holds still serves what was submitted to it.
        future = make_session(matrix).submit(np.ones(matrix.n_rows))
        assert future.result(timeout=30).converged
