"""Tests for the solver service layer (:mod:`repro.serve`).

Covers the four tentpole pieces: operator sessions (amortized state,
workspace pool, pinned backend), the micro-batching scheduler (coalescing,
demultiplexing, failure isolation), the cost-model batching policy, and
service telemetry — plus the serving acceptance properties: per-request
results bit-identical to the direct solve path, and a batch containing one
diverging right-hand side still completing its other requests.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.backends import get_backend
from repro.config import ServeConfig, rng, set_config
from repro.linalg.context import use_backend
from repro.matrices import laplace2d, laplace3d
from repro.perfmodel import KernelCostModel
from repro.preconditioners import GmresPolynomialPreconditioner
import repro.serve.session as session_module
from repro.serve import (
    BatchingPolicy,
    OperatorSession,
    ServeResult,
    ServeTelemetry,
)
from repro.solvers import SolverStatus, StagnationTest, gmres, solve_many
from repro.sparse import CsrMatrix
from repro.testing import FaultInjectingBackend


@pytest.fixture(scope="module")
def matrix():
    return laplace3d(8)  # n = 512


@pytest.fixture(scope="module")
def precond(matrix):
    return GmresPolynomialPreconditioner(matrix, degree=4)


def make_session(matrix, precond=None, **kwargs):
    defaults = dict(restart=8, tol=1e-8, max_restarts=60, max_wait_ms=100.0)
    defaults.update(kwargs)
    return OperatorSession(matrix, preconditioner=precond, **defaults)


def rhs_block(matrix, k, seed=99):
    return rng(seed).standard_normal((matrix.n_rows, k))


class TestOperatorSession:
    def test_submit_and_solve_converge(self, matrix, precond):
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(matrix, precond) as session:
            served = session.submit(b).result(timeout=30)
            direct = session.solve(b)
        assert isinstance(served, ServeResult)
        assert served.converged and direct.converged
        # Both solve the same system to tolerance.
        for x in (served.x, direct.x):
            res = np.linalg.norm(b - matrix @ x) / np.linalg.norm(b)
            assert res <= 1.1e-8

    def test_warmup_builds_backend_plans(self, matrix, precond):
        with make_session(matrix, precond) as session:
            # The warm-up SpMV/SpMM ran through the backend, so the
            # per-matrix plan cache is populated before any request.
            assert session._matrix.backend_cache

    def test_workspace_pool_reuses_widest_fit(self, matrix):
        with make_session(matrix, max_block=4) as session:
            with session._solve_lock:
                ws_full = session.workspace_for(4)
                assert session.workspace_for(2) is ws_full
                assert ws_full.accommodates(matrix.n_rows, 8, "double", 3)
                # Width 1 (the single-vector driver) is served from it too.
                assert session.workspace_for(1) is ws_full
                assert len(session._workspaces) == 1

    def test_estimated_bytes_count_the_krylov_basis(self, matrix):
        """The pooled workspace's basis (a ``MultiVector``, which has no
        ``__dict__``) is part of the estimate."""
        with make_session(matrix, max_block=8) as session:
            with session._solve_lock:
                ws = session.workspace_for(8)
            basis_bytes = ws.basis.storage_bytes()
            assert basis_bytes == matrix.n_rows * (8 + 1) * 8 * 8
            assert session.estimated_bytes() >= basis_bytes + matrix.data.nbytes

    def test_steady_state_dispatches_reuse_one_workspace(self, matrix, precond):
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(matrix, precond, max_block=2) as session:
            for _ in range(3):
                assert session.submit(b).result(timeout=30).converged
            # Width-1 and width-2 dispatches all fit the warm-up workspace.
            assert len(session._workspaces) == 1

    def test_backend_pinned_at_construction(self, matrix):
        b = rhs_block(matrix, 1)[:, 0]
        with use_backend("scipy"):
            session = make_session(matrix)
        try:
            # The global context is back to the default backend, but the
            # session serves with the backend it was created under.
            assert session.context.backend.name == "scipy"
            assert session.submit(b).result(timeout=30).converged
        finally:
            session.close()

    def test_session_defaults_come_from_config(self, matrix):
        set_config(serve=ServeConfig(max_block=3, policy="sequential"))
        with make_session(matrix) as session:
            assert session.max_block == 3
            assert session.policy.mode == "sequential"

    def test_rejects_unknown_method(self, matrix):
        with pytest.raises(ValueError, match="method"):
            OperatorSession(matrix, method="cg")

    def test_solve_validates_shape(self, matrix):
        with make_session(matrix) as session:
            with pytest.raises(ValueError, match="length-512"):
                session.solve(np.ones(7))

    def test_solve_rejects_non_finite_like_submit(self, matrix):
        # submit() and solve() share one validation path.
        with make_session(matrix) as session:
            with pytest.raises(ValueError, match="non-finite"):
                session.solve(np.full(matrix.n_rows, np.nan))

    def test_submit_after_close_raises(self, matrix):
        session = make_session(matrix)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(np.ones(matrix.n_rows))

    @pytest.mark.parametrize(
        "method, single, block",
        [("gmres", "gmres", "block_gmres"), ("gmres-ir", "gmres_ir", "block_gmres_ir")],
    )
    def test_dispatches_call_the_module_level_drivers(
        self, matrix, monkeypatch, method, single, block
    ):
        """Width-1 and width-k dispatches go through the driver names of
        :mod:`repro.serve.session`, so wrapping those names (as perfbench's
        traced window does) before the session is built sees every solve."""
        calls = []
        for name in (single, block):
            original = getattr(session_module, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(session_module, name, wrapper)
        B = rhs_block(matrix, 3)
        with make_session(matrix, method=method, max_block=4) as session:
            assert session.solve(B[:, 0]).converged
            assert session.solve_many(B).converged
        assert calls == [single, block]

    def test_gmres_ir_session(self, matrix):
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(
            matrix, method="gmres-ir", restart=10, max_restarts=80
        ) as session:
            result = session.submit(b).result(timeout=30)
        assert result.converged
        assert result.relative_residual_fp64 <= 1.1e-8

    def test_gmres_ir_session_amortizes_inner_matrix(self, matrix):
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(
            matrix, method="gmres-ir", restart=10, max_restarts=80
        ) as session:
            inner = session._matrix.astype("single")
            assert inner is session._matrices[1]  # the eagerly-warmed copy
            assert inner.backend_cache  # plans built by the warm-up
            session.submit(b).result(timeout=30)
            # The dispatch hit the same warm inner-precision matrix
            # instead of re-casting and re-planning per request.
            assert session._matrix.astype("single") is inner

    def test_solve_many_chunks_and_preserves_order(self, matrix, precond):
        B = rhs_block(matrix, 5)
        with make_session(matrix, precond, max_block=2) as session:
            result = session.solve_many(B)
        assert result.n_rhs == 5
        assert all(s == SolverStatus.CONVERGED for s in result.statuses)
        for c in range(5):
            res = np.linalg.norm(B[:, c] - matrix @ result.X[:, c])
            assert res / np.linalg.norm(B[:, c]) <= 1.1e-8

    def test_solve_many_merges_chunks_like_the_library(self, matrix, precond):
        B = rhs_block(matrix, 10, seed=12)  # chunks of 4, 4 and 2 columns
        with make_session(matrix, precond, max_block=4, meter=True) as session:
            served = session.solve_many(B)
        direct = solve_many(
            matrix, B, block_size=4, restart=8, tol=1e-8, max_restarts=60,
            preconditioner=precond,
        )
        assert served.details["n_blocks"] == 3
        assert np.array_equal(served.X, direct.X)
        for field in ("iterations", "relative_residuals", "relative_residuals_fp64"):
            np.testing.assert_array_equal(getattr(served, field), getattr(direct, field))
        for field in (
            "statuses", "histories", "block_iterations", "restarts", "solver",
            "precision", "block_size", "details",
        ):
            assert getattr(served, field) == getattr(direct, field), field
        assert served.timer.calls_by_label() == direct.timer.calls_by_label()


    def test_stagnation_template_is_not_consumed_across_solves(self):
        # The session hands one StagnationTest to every dispatch; each
        # solve must run its own copy, as a fresh template would.
        A = laplace2d(32)
        b = np.ones(A.n_rows)
        with OperatorSession(
            A, restart=5, policy="sequential", stagnation=StagnationTest(patience=2)
        ) as session:
            served = [session.solve(b) for _ in range(3)]
        fresh = gmres(A, b, restart=5, stagnation=StagnationTest(patience=2))
        for result in served:
            assert (result.status, result.iterations) == (
                fresh.status,
                fresh.iterations,
            )


class TestSchedulerCoalescing:
    def test_full_batch_dispatches_together(self, matrix, precond):
        k = 4
        B = rhs_block(matrix, k)
        with make_session(
            matrix, precond, max_block=k, max_wait_ms=500.0, policy="block"
        ) as session:
            futures = [session.submit(B[:, c]) for c in range(k)]
            results = [f.result(timeout=30) for f in futures]
        assert [r.batch_size for r in results] == [k] * k
        stats = session.stats()
        assert stats.batch_occupancy == {k: 1}
        assert stats.batches_dispatched == 1

    def test_max_wait_bounds_queue_time(self, matrix, precond):
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(
            matrix, precond, max_block=8, max_wait_ms=60.0, policy="block"
        ) as session:
            result = session.submit(b).result(timeout=30)
        # Alone in the queue: dispatched as a width-1 batch once the
        # micro-batching window expired (not before, not much after).
        assert result.batch_size == 1
        assert result.queue_wait_seconds >= 0.055
        assert result.queue_wait_seconds < 5.0

    def test_sequential_policy_never_batches(self, matrix, precond):
        k = 5
        B = rhs_block(matrix, k)
        with make_session(
            matrix, precond, max_block=4, max_wait_ms=50.0, policy="sequential"
        ) as session:
            futures = [session.submit(B[:, c]) for c in range(k)]
            results = [f.result(timeout=60) for f in futures]
        assert all(r.batch_size == 1 for r in results)
        assert session.stats().batch_occupancy == {1: k}

    def test_sequential_policy_skips_the_batching_window(self, matrix, precond):
        # More arrivals cannot change a sequential dispatch, so a lone
        # request must not sit out the (here: huge) micro-batch window.
        b = rhs_block(matrix, 1)[:, 0]
        with make_session(
            matrix, precond, max_block=4, max_wait_ms=3000.0, policy="sequential"
        ) as session:
            result = session.submit(b).result(timeout=30)
        assert result.batch_size == 1
        assert result.queue_wait_seconds < 1.0

    def test_close_drains_queued_requests(self, matrix, precond):
        k = 3
        B = rhs_block(matrix, k)
        session = make_session(
            matrix, precond, max_block=k, max_wait_ms=1000.0, policy="block"
        )
        futures = [session.submit(B[:, c]) for c in range(k)]
        session.close()  # drain=True: queued work completes first
        assert all(f.result(timeout=30).converged for f in futures)

    def test_close_without_drain_mid_window_keeps_dispatcher_alive(
        self, matrix, precond, monkeypatch
    ):
        """close(drain=False) while the dispatcher sits in the micro-batch
        window must not crash the dispatcher (the queue it wakes to is
        empty) — the queued future fails cleanly and the thread exits."""
        crashes = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: crashes.append(args)
        )
        session = make_session(
            matrix, precond, max_block=4, max_wait_ms=5000.0, policy="block"
        )
        fut = session.submit(np.ones(matrix.n_rows))
        time.sleep(0.05)  # let the dispatcher enter the batching window
        session.close(drain=False, timeout=10)
        [worker] = session.scheduler._threads
        assert not worker.is_alive()
        assert not crashes
        with pytest.raises(RuntimeError, match="closed"):
            fut.result(timeout=5)

    def test_close_without_drain_fails_queued_requests(self, matrix, precond):
        session = make_session(
            matrix, precond, max_block=1, max_wait_ms=0.0, policy="sequential"
        )
        b = rhs_block(matrix, 1)[:, 0]
        # Hold the solve lock so the dispatcher blocks mid-dispatch while
        # more requests pile up behind it.
        with session._solve_lock:
            first = session.submit(b)
            time.sleep(0.05)  # let the dispatcher pop the first request
            queued = [session.submit(b) for _ in range(2)]
            closer = threading.Thread(
                target=session.close, kwargs={"drain": False}
            )
            closer.start()
            time.sleep(0.05)
        closer.join(timeout=10)
        assert first.result(timeout=30).converged  # already dispatched
        for fut in queued:
            with pytest.raises(RuntimeError, match="closed"):
                fut.result(timeout=10)


class TestBitParity:
    """The serving acceptance criterion: served == direct, bit for bit."""

    def test_unbatched_served_equals_direct_solve(self, matrix, precond):
        b = rhs_block(matrix, 1, seed=5)[:, 0]
        with make_session(
            matrix, precond, max_block=1, max_wait_ms=0.0
        ) as session:
            served = session.submit(b).result(timeout=30)
            direct = session.solve(b)
        assert served.converged and direct.converged
        assert np.array_equal(served.x, direct.x)
        assert served.iterations == direct.iterations
        assert served.relative_residual == direct.relative_residual
        # ...and both are the canonical single-vector solver, bit for bit.
        reference = gmres(
            matrix, b, restart=8, tol=1e-8, max_restarts=60, preconditioner=precond
        )
        assert np.array_equal(served.x, reference.x)
        assert served.iterations == reference.iterations

    def test_batched_served_equals_direct_solve_many(self, matrix, precond):
        k = 4
        B = rhs_block(matrix, k, seed=6)
        with make_session(
            matrix, precond, max_block=k, max_wait_ms=500.0, policy="block"
        ) as session:
            futures = [session.submit(B[:, c]) for c in range(k)]
            served = [f.result(timeout=30) for f in futures]
        assert all(r.batch_size == k for r in served)

        reference = solve_many(
            matrix,
            B,
            block_size=k,
            restart=8,
            tol=1e-8,
            max_restarts=60,
            preconditioner=precond,
        )
        for c in range(k):
            assert served[c].converged
            assert np.array_equal(served[c].x, reference.X[:, c])
            assert served[c].iterations == int(reference.iterations[c])

    def test_requests_map_to_their_own_rhs(self, matrix, precond):
        k = 4
        B = rhs_block(matrix, k, seed=8) * np.array([1.0, 10.0, 100.0, 1000.0])
        with make_session(
            matrix, precond, max_block=k, max_wait_ms=500.0, policy="block"
        ) as session:
            futures = [session.submit(B[:, c]) for c in range(k)]
            served = [f.result(timeout=30) for f in futures]
        for c in range(k):
            res = np.linalg.norm(B[:, c] - matrix @ served[c].x)
            assert res / np.linalg.norm(B[:, c]) <= 1.1e-8


def diagonal_matrix(n):
    """diag(1..n): GMRES needs as many iterations as distinct RHS modes."""
    data = np.arange(1.0, n + 1.0)
    indices = np.arange(n, dtype=np.int32)
    indptr = np.arange(n + 1, dtype=np.int64)
    return CsrMatrix(data, indices, indptr, (n, n), name=f"diag{n}")


class TestFailureIsolation:
    def test_invalid_rhs_never_enters_a_batch(self, matrix, precond):
        k = 3
        B = rhs_block(matrix, k, seed=11)
        with make_session(
            matrix, precond, max_block=k + 1, max_wait_ms=300.0, policy="block"
        ) as session:
            good = [session.submit(B[:, c]) for c in range(k)]
            bad_nan = session.submit(np.full(matrix.n_rows, np.nan))
            bad_inf = session.submit(np.full(matrix.n_rows, np.inf))
            bad_shape = session.submit(np.ones(3))
            results = [f.result(timeout=30) for f in good]

        assert all(r.converged for r in results)
        for fut, pattern in (
            (bad_nan, "non-finite"),
            (bad_inf, "non-finite"),
            (bad_shape, "length-512"),
        ):
            with pytest.raises(ValueError, match=pattern):
                fut.result(timeout=5)
        # The rejected requests never occupied a batch slot.
        stats = session.stats()
        assert stats.requests_failed == 3
        assert sum(k_ * v for k_, v in stats.batch_occupancy.items()) == k

    def test_diverging_column_does_not_fail_batchmates(self):
        n = 48
        A = diagonal_matrix(n)
        easy = np.zeros(n)
        easy[0] = 1.0  # one spectral mode: converges in a single iteration
        hard = np.ones(n)  # all n modes: cannot converge in 4 iterations
        with OperatorSession(
            A,
            restart=4,
            tol=1e-10,
            max_restarts=1,
            max_block=2,
            max_wait_ms=300.0,
            policy="block",
        ) as session:
            f_easy = session.submit(easy)
            f_hard = session.submit(hard)
            r_easy = f_easy.result(timeout=30)
            r_hard = f_hard.result(timeout=30)

        # Same batch, opposite outcomes — and no exception on either side.
        assert r_easy.batch_size == 2 and r_hard.batch_size == 2
        assert r_easy.status == SolverStatus.CONVERGED
        # The hard column ends in a non-converged terminal status (which
        # one depends on when the implicit estimate diverges from the
        # explicit residual) — but resolves normally, with no exception.
        assert r_hard.status in (
            SolverStatus.MAX_ITERATIONS,
            SolverStatus.LOSS_OF_ACCURACY,
            SolverStatus.STAGNATION,
        )
        assert not r_hard.converged
        assert np.all(np.isfinite(r_hard.x))  # best-effort partial solution
        stats = session.stats()
        assert stats.requests_completed == 2
        assert stats.requests_failed == 0


class TestDependentRhsBatch:
    """Parallel right-hand sides in one batch (clients submitting the same
    vector) make the block rank-deficient.  The collapsed basis columns
    claim no row of the band QR, so the batch solves them itself.

    The nonsymmetric bentpipe problem with a polynomial preconditioner is
    a configuration where a band QR that gave each collapsed column a
    diagonal row reported an implicit residual of 0 and the whole parallel
    batch ended ``LOSS_OF_ACCURACY``.
    """

    def test_dependent_rhs_converge_inside_the_batch(self):
        from repro.matrices import bentpipe2d

        matrix = bentpipe2d(32)
        precond = GmresPolynomialPreconditioner(matrix, degree=8)
        b = np.ones(matrix.n_rows)
        with make_session(
            matrix, precond, restart=15, max_block=4, max_wait_ms=300.0,
            policy="block",
        ) as session:
            futures = [session.submit(b * (c + 1)) for c in range(4)]
            results = [f.result(timeout=60) for f in futures]
        assert all(r.converged for r in results)
        for c, r in enumerate(results):
            res = np.linalg.norm(b * (c + 1) - matrix @ r.x)
            assert res / np.linalg.norm(b * (c + 1)) <= 1.1e-8
        stats = session.stats()
        assert stats.requests_completed == 4
        assert stats.requests_failed == 0
        assert max(stats.batch_occupancy) > 1
        assert stats.requests_retried == 0


class TestBatchRetry:
    """A column that did not converge inside a batch is retried through the
    width-1 path.  A backend whose SpMM returns NaN breaks every batch
    down, while the width-1 path (SpMV) stays sound."""

    @staticmethod
    def _session(matrix, **kwargs):
        faulty = FaultInjectingBackend(get_backend("numpy"), nan_rate=1.0, kernels=("spmm",))
        with use_backend(faulty):
            return make_session(
                matrix, max_block=4, max_wait_ms=300.0, policy="block", **kwargs
            )

    def _submit_batch(self, session, matrix):
        B = rhs_block(matrix, 4)
        futures = [session.submit(B[:, c]) for c in range(4)]
        return [f.result(timeout=60) for f in futures]

    def test_failed_columns_converge_via_retry(self, matrix):
        with self._session(matrix) as session:
            results = self._submit_batch(session, matrix)
        assert all(r.converged for r in results)
        stats = session.stats()
        assert stats.requests_failed == 0
        assert stats.requests_retried >= 1

    def test_retry_can_be_disabled(self, matrix):
        with self._session(matrix, retry_failed=False) as session:
            results = self._submit_batch(session, matrix)
        # The raw batch statuses surface (and no future errors).
        assert session.stats().requests_retried == 0
        assert all(isinstance(r, ServeResult) for r in results)
        assert not all(r.converged for r in results)


class TestConcurrentClients:
    def test_many_threads_one_session(self, matrix, precond):
        n_clients, per_client = 6, 3
        B = rhs_block(matrix, n_clients, seed=21)
        errors = []

        with make_session(
            matrix, precond, max_block=4, max_wait_ms=20.0, policy="block"
        ) as session:

            def client(c):
                try:
                    for _ in range(per_client):
                        result = session.submit(B[:, c]).result(timeout=60)
                        assert result.converged
                        res = np.linalg.norm(B[:, c] - matrix @ result.x)
                        assert res / np.linalg.norm(B[:, c]) <= 1.1e-8
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)

        assert not errors
        stats = session.stats()
        assert stats.requests_completed == n_clients * per_client
        # Concurrent traffic actually coalesced into multi-RHS batches.
        assert any(width > 1 for width in stats.batch_occupancy)


class TestTelemetry:
    def test_snapshot_counters_are_consistent(self, matrix, precond):
        k = 4
        B = rhs_block(matrix, k, seed=31)
        with make_session(
            matrix, precond, max_block=2, max_wait_ms=50.0, policy="block"
        ) as session:
            futures = [session.submit(B[:, c]) for c in range(k)]
            [f.result(timeout=30) for f in futures]
            stats = session.stats()

        assert stats.requests_submitted == k
        assert stats.requests_completed == k
        assert stats.requests_failed == 0
        assert sum(w * c for w, c in stats.batch_occupancy.items()) == k
        assert stats.batches_dispatched == sum(stats.batch_occupancy.values())
        assert stats.queue_wait.count == k
        assert stats.solve.count == k
        assert stats.latency.count == k
        assert stats.latency.p95_ms >= stats.latency.p50_ms >= 0.0
        assert stats.rhs_per_second > 0.0
        assert stats.block_iterations > 0

    def test_snapshot_is_json_ready(self, matrix):
        with make_session(matrix) as session:
            session.submit(np.ones(matrix.n_rows)).result(timeout=30)
            payload = json.dumps(session.stats().as_dict())
        assert "rhs_per_second" in payload

    def test_empty_telemetry_snapshot(self):
        stats = ServeTelemetry().snapshot()
        assert stats.requests_submitted == 0
        assert stats.rhs_per_second == 0.0
        assert stats.latency.count == 0
        assert stats.mean_batch_occupancy == 0.0


class TestBatchingPolicy:
    def make_policy(self, matrix, mode="auto", spmvs=1, max_block=8):
        return BatchingPolicy(
            matrix,
            KernelCostModel("v100"),
            max_block=max_block,
            mode=mode,
            basis_columns=15,
            spmvs_per_iteration=spmvs,
        )

    def test_width_one_speedup_is_one(self, matrix):
        assert self.make_policy(matrix).modelled_speedup(1) == 1.0

    def test_preconditioning_pushes_toward_blocking(self, matrix):
        plain = self.make_policy(matrix, spmvs=1)
        poly = self.make_policy(matrix, spmvs=17)  # poly-16 preconditioner
        for k in (2, 4, 8):
            assert poly.modelled_speedup(k) > plain.modelled_speedup(k)
        # An SpMM-dominated operator must clearly favour wide batches.
        assert poly.modelled_speedup(8) > 1.5
        assert poly.block_width(8) > 1

    def test_mode_overrides(self, matrix):
        assert self.make_policy(matrix, mode="sequential").block_width(8) == 1
        assert self.make_policy(matrix, mode="block").block_width(8) == 8
        assert self.make_policy(matrix, mode="block", max_block=4).block_width(8) == 4

    def test_single_waiting_request_is_sequential(self, matrix):
        assert self.make_policy(matrix, mode="block").block_width(1) == 1

    def test_decision_table_and_validation(self, matrix):
        policy = self.make_policy(matrix, spmvs=17, max_block=4)
        table = policy.decision_table()
        assert set(table) == {1, 2, 3, 4}
        assert table[1] == 1.0
        with pytest.raises(ValueError, match="mode"):
            self.make_policy(matrix, mode="bogus")
        with pytest.raises(ValueError, match="waiting"):
            policy.block_width(0)

    def test_session_policy_consults_preconditioner_cost(self, matrix, precond):
        # The session derives spmvs_per_iteration from the preconditioner,
        # so a poly-preconditioned session batches under "auto".
        with make_session(matrix, precond, max_block=8, policy="auto") as session:
            assert session.policy.block_width(8) > 1
