"""Concurrency contracts the serve layer depends on.

Two satellite guarantees pinned explicitly:

* :func:`repro.linalg.context.use_backend` (and ``use_context`` /
  ``use_device``) are *thread-scoped*: they nest and unwind per thread and
  never leak into other threads — the property that lets the serve
  dispatcher pin a session's backend while clients do their own thing;
* :class:`repro.config.ReproConfig` is safe to read from many threads
  while another thread replaces it: readers always observe a coherent
  (frozen) snapshot, never a half-updated config.

Plus the same thread-locality for the kernel-timer stack (a timer pushed
on one thread must not observe another thread's kernel calls), and the
caches behind the metered kernel path: a config-lazy context's backend
resolution, the cost model's per-instance memo and the dtype-keyed
precision lookup.
"""

from __future__ import annotations

import inspect
import sys
import threading

import numpy as np
import pytest

from repro.backends import ScipyBackend, get_backend, register_backend
from repro.config import ReproConfig, get_config, rng, set_config
from repro.linalg import kernels
from repro.linalg.context import (
    ExecutionContext,
    get_context,
    set_context,
    use_backend,
    use_context,
    use_device,
)
from repro.matrices import laplace2d
from repro.perfmodel.costs import MEMO_LIMIT, KernelCostModel
from repro.perfmodel.timer import KernelTimer, use_timer
from repro.serve import OperatorSession, SolverFarm
from repro.solvers import gmres_ir


class TestUseBackendNesting:
    def test_nested_switches_unwind_in_lifo_order(self):
        default = get_context().backend.name
        with use_backend("scipy") as outer:
            assert get_context() is outer
            assert get_context().backend.name == "scipy"
            with use_backend("numpy") as inner:
                assert get_context() is inner
                assert get_context().backend.name == "numpy"
                with use_backend("scipy"):
                    assert get_context().backend.name == "scipy"
                assert get_context() is inner
            assert get_context() is outer
            assert get_context().backend.name == "scipy"
        assert get_context().backend.name == default

    def test_exception_restores_enclosing_context(self):
        before = get_context()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("scipy"):
                with use_backend("numpy"):
                    raise RuntimeError("boom")
        assert get_context() is before

    def test_nesting_preserves_meter_and_cost_model(self):
        set_context(ExecutionContext(meter=False))
        outer_model = get_context().cost_model
        with use_backend("scipy") as ctx:
            assert ctx.meter is False
            assert ctx.cost_model is outer_model
            with use_device("a100", meter=True) as dev_ctx:
                assert dev_ctx.meter is True
                assert dev_ctx.backend.name == "scipy"  # backend carried over
            assert get_context() is ctx

    def test_switch_is_thread_local(self):
        """A use_backend block in one thread is invisible to another."""
        default = get_context().backend.name
        entered = threading.Event()
        release = threading.Event()
        seen_inside: list = []

        def switcher():
            with use_backend("scipy"):
                seen_inside.append(get_context().backend.name)
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=switcher)
        t.start()
        assert entered.wait(timeout=10)
        # While the other thread holds its scoped switch, this thread
        # still sees the global default.
        assert get_context().backend.name == default
        release.set()
        t.join(timeout=10)
        assert seen_inside == ["scipy"]

    def test_set_context_is_global_but_overrides_win(self):
        pinned = ExecutionContext(backend=get_backend("scipy"))
        with use_context(pinned):
            # A global swap must not disturb the thread's scoped override...
            set_context(ExecutionContext())
            assert get_context() is pinned
        # ...but applies once the override unwinds.
        assert get_context().backend.name == get_config().backend

    def test_kernels_dispatch_through_thread_scoped_backend(self):
        matrix = laplace2d(6)
        x = np.ones(matrix.n_rows)
        reference = kernels.spmv(matrix, x)
        results = {}

        def worker(name):
            with use_backend(name):
                results[name] = kernels.spmv(matrix, x)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("numpy", "scipy")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        np.testing.assert_allclose(results["numpy"], reference)
        np.testing.assert_allclose(results["scipy"], reference, rtol=1e-13)


class TestConfigThreadSafety:
    def test_concurrent_readers_see_coherent_snapshots(self):
        """Hammer get_config from many threads while one thread flips it.

        The two writer configs pair restart/rtol values; a torn read would
        surface as a mismatched pair.
        """
        config_a = ReproConfig(restart=11, rtol=1e-11)
        config_b = ReproConfig(restart=22, rtol=1e-22)
        valid = {(11, 1e-11), (22, 1e-22)}
        stop = threading.Event()
        bad: list = []

        def reader():
            while not stop.is_set():
                cfg = get_config()
                pair = (cfg.restart, cfg.rtol)
                if pair not in valid and cfg.restart not in (50,):
                    bad.append(pair)

        def writer():
            for i in range(500):
                set_config(config_a if i % 2 else config_b)
            stop.set()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        w = threading.Thread(target=writer)
        set_config(config_a)
        for t in readers:
            t.start()
        w.start()
        w.join(timeout=30)
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert not bad

    def test_config_is_frozen_against_in_place_mutation(self):
        cfg = get_config()
        with pytest.raises(Exception):
            cfg.restart = 99  # type: ignore[misc]

    def test_rng_usable_from_many_threads(self):
        draws = {}

        def worker(i):
            draws[i] = rng(seed=1000 + i).standard_normal(4)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(draws) == 8
        # Deterministic per seed, independent across threads.
        np.testing.assert_array_equal(draws[0], rng(seed=1000).standard_normal(4))

    def test_serve_defaults_present(self):
        """The serving knobs are constructor defaults."""
        session = inspect.signature(OperatorSession).parameters
        farm = inspect.signature(SolverFarm).parameters
        assert session["max_block"].default >= 1
        assert session["max_wait_ms"].default >= 0.0
        assert session["policy"].default in ("auto", "block", "sequential")
        assert farm["max_sessions"].default >= 1
        assert farm["queue_depth"].default >= 1
        assert farm["fairness"].default in ("weighted", "fifo")
        assert farm["workers"].default >= 1


class TestTimerThreadLocality:
    def test_timer_observes_only_its_own_thread(self):
        matrix = laplace2d(6)
        x = np.ones(matrix.n_rows)
        other_done = threading.Event()

        def other_thread():
            # No timer on this thread's stack: nothing may be recorded
            # into the main thread's timer by these calls.
            for _ in range(5):
                kernels.spmv(matrix, x)
            other_done.set()

        with use_timer(KernelTimer("main")) as timer:
            kernels.spmv(matrix, x)
            t = threading.Thread(target=other_thread)
            t.start()
            assert other_done.wait(timeout=10)
            t.join(timeout=10)
            kernels.spmv(matrix, x)
        assert timer.calls_by_label().get("SpMV") == 2

    def test_threads_can_meter_independently(self):
        matrix = laplace2d(6)
        x = np.ones(matrix.n_rows)
        counts = {}

        def worker(i):
            with use_timer(KernelTimer(f"t{i}")) as timer:
                for _ in range(i + 1):
                    kernels.spmv(matrix, x)
            counts[i] = timer.calls_by_label().get("SpMV")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert counts == {0: 1, 1: 2, 2: 3, 3: 4}


class _CountingScipy(ScipyBackend):
    def __init__(self) -> None:
        super().__init__()
        self.spmv_calls = 0

    def spmv(self, matrix, x, out=None):
        self.spmv_calls += 1
        return super().spmv(matrix, x, out=out)


def _ledger(timer):
    return {
        (r.label, r.precision): (r.calls, r.model_seconds.hex(), r.bytes, r.flops)
        for r in timer.records
    }


class TestMeteringCaches:
    def test_lazy_context_follows_config_and_registry_changes(self):
        matrix = laplace2d(6)
        x = np.ones(matrix.n_rows)
        set_config(backend="numpy")
        ctx = get_context()
        kernels.spmv(matrix, x)  # resolves, and caches, the numpy backend
        assert ctx.backend.name == "numpy"

        set_config(backend="scipy")
        kernels.spmv(matrix, x)
        assert get_context() is ctx and ctx.backend.name == "scipy"

        counting = _CountingScipy()
        register_backend("scipy", lambda: counting, replace=True)
        try:
            kernels.spmv(matrix, x)
            assert counting.spmv_calls == 1
            assert ctx.backend is counting
        finally:
            register_backend("scipy", ScipyBackend, replace=True)
        kernels.spmv(matrix, x)
        assert counting.spmv_calls == 1
        assert isinstance(ctx.backend, ScipyBackend) and ctx.backend is not counting

    def test_cost_models_never_share_memo_entries(self):
        base = KernelCostModel("v100")
        slow_gemv = KernelCostModel("v100", efficiency={"gemv_t": {8: 0.5}})
        other_device = KernelCostModel("a100")
        key = ("gemv", 4096, 20, 8, True)
        first = base.estimate(key)
        assert base.estimate(key) is first  # memoized within one model
        assert first == base.gemv(4096, 20, 8, trans=True)
        for model in (slow_gemv, other_device):
            estimate = model.estimate(key)
            assert estimate == model.gemv(4096, 20, 8, trans=True)
            assert estimate.seconds != first.seconds
        assert base.estimate(key) is first

    def test_memo_is_bounded(self):
        model = KernelCostModel("v100")
        for n in range(MEMO_LIMIT + 10):
            model.estimate(("axpy", n + 1, 8))
        assert 0 < len(model._memo) <= MEMO_LIMIT
        assert model.estimate(("axpy", 7, 8)) == model.axpy(7, 8)

    def test_concurrent_metering_matches_serial_run(self):
        matrix = laplace2d(12)
        b = np.ones(matrix.n_rows)
        serial = _ledger(gmres_ir(matrix, b, restart=10, tol=1e-10).timer)
        get_context().cost_model._memo.clear()  # the threads race to refill it
        n_threads = 4
        start = threading.Barrier(n_threads)
        ledgers = {}

        def worker(i):
            # Everything is shared: the matrix (with its cached plans and
            # precision copies), the context and its cost model.
            start.wait(timeout=10)
            ledgers[i] = [
                _ledger(gmres_ir(matrix, b, restart=10, tol=1e-10).timer) for _ in range(3)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-way through lookups
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ledgers == {i: [serial] * 3 for i in range(n_threads)}

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_unusual_dtype_raises_through_the_fallback(self, dtype):
        with use_timer(KernelTimer("t")):
            with pytest.raises(ValueError, match="unsupported dtype"):
                kernels.norm2(np.ones(4, dtype=dtype))

    def test_non_native_byte_order_still_named_by_precision(self):
        with use_timer(KernelTimer("t")) as timer:
            kernels.norm2(np.ones(4, dtype=">f8"))
        assert [(r.label, r.precision) for r in timer.records] == [("Norm", "double")]
