"""Operator sessions: register a matrix once, serve many right-hand sides.

An :class:`OperatorSession` owns everything about a solver configuration
that is expensive and amortizable across requests, so that the per-request
cost is just the solve itself:

* the **pinned execution context** — backend handle, device cost model and
  metering flag are captured at construction, so the session keeps serving
  with the same backend even if another thread later flips the global
  context (each dispatch installs the pinned context thread-locally,
  see :func:`repro.linalg.context.use_context`);
* the **working-precision matrix copies** and the backend's cached
  per-matrix plans (SciPy handles, DIA/SpMM plans, row geometry), built
  eagerly by a warm-up pass instead of lazily on the first paying request;
* the **preconditioner**, set up once and pre-wrapped for the working
  precision;
* a **pool of Krylov workspaces** — one
  :class:`~repro.solvers.gmres.GmresWorkspace` type serves the width-1
  path and every block width, so dispatches reuse pooled Krylov storage
  (a steady-state dispatch allocates no basis memory); after the warm-up
  the pool typically holds one workspace, ``max_block`` wide;
* its **micro-batching front**: a
  :class:`~repro.serve.scheduler.SolveScheduler` with one tenant queue
  and one lazily started worker, plus its telemetry.  A session warmed
  by a :class:`~repro.serve.farm.SolverFarm` is driven by the farm's
  workers instead and never starts its own.

Solves are serialized on a session-level lock — the modelled device is one
GPU, and the pooled workspaces are shared mutable state — so concurrent
``submit()`` and direct ``solve()`` calls are safe from any thread.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

import numpy as np

from ..config import get_config
from ..linalg.context import ExecutionContext, get_context, use_context
from ..linalg.multivector import MultiVector
from ..obs import resolve_observability
from ..obs.metrics import watch_session
from ..precision import Precision, as_precision
from ..preconditioners.base import Preconditioner
from ..preconditioners.mixed import wrap_for_precision
from ..solvers.block_gmres import block_gmres, block_gmres_ir
from ..solvers.gmres import GmresWorkspace, gmres
from ..solvers.gmres_ir import gmres_ir
from ..solvers.result import MultiSolveResult, SolveResult, merge_chunks
from ..sparse.csr import CsrMatrix
from .policy import BatchingPolicy
from .scheduler import SolveScheduler, validate_rhs
from .telemetry import ServeStats

__all__ = ["OperatorSession", "validate_rhs"]


def _nbytes_of(obj: object, depth: int = 2) -> int:
    """Estimated array bytes held by ``obj`` (recursing into attributes,
    dict values and the basis :class:`MultiVector` of a workspace, which
    has no ``__dict__`` and reports its block through ``storage_bytes``)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, MultiVector):
        return obj.storage_bytes()
    if depth <= 0:
        return 0
    if isinstance(obj, dict):
        return sum(_nbytes_of(v, depth - 1) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes_of(v, depth - 1) for v in obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return sum(_nbytes_of(v, depth - 1) for v in attrs.values())
    return 0


class OperatorSession:
    """A served operator: matrix + solver config registered once.

    Parameters
    ----------
    matrix:
        The system matrix shared by every request of this session.
    method:
        ``"gmres"`` (Block-GMRES in one working precision) or
        ``"gmres-ir"`` (blocked mixed-precision iterative refinement).
    precision:
        Working precision (for ``"gmres-ir"``: the *outer* precision).
    inner_precision:
        Inner precision of ``"gmres-ir"`` (ignored otherwise).
    restart / tol / max_restarts:
        Solver configuration, defaulting from :class:`~repro.config.ReproConfig`
        exactly like the direct solver entry points.
    ortho / block_ortho:
        Orthogonalization for the width-1 path (``"cgs2"``, the
        single-vector default) and the batched path (``"bcgs2"``).
    preconditioner:
        Optional right preconditioner.  Constructed by the caller (its
        setup cost is paid once, outside any request); the session
        pre-wraps it for the working precision.
    meter:
        Whether served solves run with kernel metering (default off — a
        service wants wall-clock throughput, not modelled breakdowns; the
        per-request telemetry is independent of this flag).
    fp64_check:
        Recompute each column's final residual in fp64 (one extra SpMV per
        request; on by default because served results advertise it).
    retry_failed:
        Re-solve a column that did not converge inside a batch through the
        width-1 path before resolving its future (default on).  A batch
        can fail where each column alone succeeds (a fault in the batched
        SpMM, say); the retry contains that at the cost of one extra
        sequential solve.  Disable to surface raw batch statuses.
    max_block / max_wait_ms / policy:
        Micro-batching knobs, defaulting from ``ReproConfig.serve``
        (:class:`~repro.config.ServeConfig`).  ``policy`` accepts a
        mode string (``"auto"`` / ``"block"`` / ``"sequential"``) or a
        ready :class:`~repro.serve.policy.BatchingPolicy`.
    warmup:
        Run the plan-building warm-up at construction (default True).
    obs:
        Observability wiring — an :class:`repro.obs.Observability`
        bundle, a bare :class:`repro.obs.Tracer`, or ``None`` to resolve
        from ``ReproConfig.obs`` (tracing off, metrics on by default).
        When a tracer is present every request gets a span tree
        (``request`` → ``submit``/``queued``/``dispatch``) and every
        dispatch a ``batch`` tree with solver probe events; when a
        metrics registry is present the session's stats are published
        for Prometheus scraping.
    solver_kwargs:
        Extra keyword arguments forwarded verbatim to the block driver
        (e.g. ``stagnation=...``, ``refine_every=...``).
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        *,
        method: str = "gmres",
        precision: Union[str, Precision] = "double",
        inner_precision: Union[str, Precision] = "single",
        restart: Optional[int] = None,
        tol: Optional[float] = None,
        max_restarts: Optional[int] = None,
        preconditioner: Optional[Preconditioner] = None,
        ortho: str = "cgs2",
        block_ortho: str = "bcgs2",
        meter: bool = False,
        fp64_check: bool = True,
        retry_failed: bool = True,
        max_block: Optional[int] = None,
        max_wait_ms: Optional[float] = None,
        policy: Union[str, BatchingPolicy, None] = None,
        name: Optional[str] = None,
        warmup: bool = True,
        obs=None,
        **solver_kwargs,
    ) -> None:
        if method not in ("gmres", "gmres-ir"):
            raise ValueError(
                f"unknown method {method!r}; choose 'gmres' or 'gmres-ir'"
            )
        cfg = get_config()
        self.method = method
        self.restart = cfg.restart if restart is None else int(restart)
        self.tol = cfg.rtol if tol is None else float(tol)
        self.max_restarts = cfg.max_restarts if max_restarts is None else int(max_restarts)
        self.max_block = cfg.serve.max_block if max_block is None else int(max_block)
        if self.max_block < 1:
            raise ValueError("max_block must be at least 1")
        wait = cfg.serve.max_wait_ms if max_wait_ms is None else float(max_wait_ms)
        self.retry_failed = bool(retry_failed)
        self.name = name or f"serve-{matrix.name or 'operator'}"
        self.obs = resolve_observability(obs)
        #: The session's tracer (None = tracing off; its scheduler traces
        #: every submitted request and dispatch with it).
        self.tracer = self.obs.tracer
        #: Optional HealthMonitor (explicit via obs=): the dispatch core
        #: runs its detectors, and the monitor's ledger for this session's
        #: name is the scheduler's telemetry (stats and SLOs read one object).
        self.health = self.obs.health

        # Pin the execution context: resolve the (possibly config-lazy)
        # backend of the *current* context into an explicit instance, so
        # the session keeps dispatching to it for its whole lifetime.
        base = get_context()
        self.context = ExecutionContext(
            base.device,
            meter=meter,
            backend=base.backend,
            cost_model=base.cost_model,
        )

        outer = as_precision(precision)
        inner = as_precision(inner_precision)
        shared_kwargs = dict(
            restart=self.restart,
            tol=self.tol,
            max_restarts=self.max_restarts,
            fp64_check=fp64_check,
            **solver_kwargs,
        )
        if method == "gmres":
            self._work_precision = outer
            self._matrices: List[CsrMatrix] = [matrix.astype(outer)]
            self._matrix = self._matrices[0]
            wrapped = (
                wrap_for_precision(preconditioner, outer)
                if preconditioner is not None
                else None
            )
            self._single_driver = gmres
            self._block_driver = block_gmres
            precision_kwargs = dict(precision=outer)
        else:
            self._work_precision = inner  # Krylov workspaces live here
            self._matrices = [matrix.astype(outer), matrix.astype(inner)]
            self._matrix = self._matrices[0]
            wrapped = (
                wrap_for_precision(preconditioner, inner)
                if preconditioner is not None
                else None
            )
            self._single_driver = gmres_ir
            self._block_driver = block_gmres_ir
            precision_kwargs = dict(inner_precision=inner, outer_precision=outer)
        self.preconditioner = wrapped
        # One set of driver options; the dispatch picks the ortho by width.
        self._ortho, self._block_ortho = ortho, block_ortho
        self._kwargs = dict(shared_kwargs, preconditioner=wrapped, **precision_kwargs)

        spmvs_per_iteration = 1 + (
            wrapped.spmvs_per_apply() if wrapped is not None else 0
        )
        if isinstance(policy, BatchingPolicy):
            self.policy = policy
        else:
            mode = policy if policy is not None else cfg.serve.policy
            self.policy = BatchingPolicy(
                self._matrix,
                self.context.cost_model,
                max_block=self.max_block,
                mode=mode,
                precision=self._work_precision,
                basis_columns=self.restart,
                spmvs_per_iteration=spmvs_per_iteration,
            )

        self._workspaces: Dict[int, GmresWorkspace] = {}
        self._solve_lock = threading.Lock()
        self._closed = False
        if warmup:
            self._warmup()
        self.scheduler = SolveScheduler(self, max_wait_ms=wait)
        if self.obs.registry is not None:
            watch_session(self, registry=self.obs.registry)

    # ------------------------------------------------------------------ #
    # shape / state queries                                              #
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self._matrix.n_rows

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> ServeStats:
        """Current service-telemetry snapshot."""
        return self.scheduler.stats()

    def validate_rhs(self, b: np.ndarray) -> np.ndarray:
        """Normalize one right-hand side to an owned length-``n`` column
        (:func:`~repro.serve.scheduler.validate_rhs` against this
        operator: the check :meth:`submit` and :meth:`solve` both apply)."""
        return validate_rhs(b, self.n_rows)

    def estimated_bytes(self) -> int:
        """Estimated resident bytes of the session's amortizable state.

        Counts the stored working-precision matrix copies (CSR arrays and
        any cached precision casts) and the pooled Krylov workspaces —
        the memory the :class:`~repro.serve.registry.SessionRegistry`
        budget accounts for when deciding LRU eviction.  An estimate, not
        an audit: backend-internal plan caches are keyed on the matrices
        and die with them, but are not themselves walked.
        """
        total = 0
        for matrix in self._matrices:
            total += (
                matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            )
        for ws in self._workspaces.values():
            total += _nbytes_of(ws)
        return total

    def workspace_for(self, width: int) -> GmresWorkspace:
        """The pooled Krylov workspace for a dispatch of ``width`` columns.

        The narrowest pooled workspace that fits, creating one per new
        width.  A wider workspace serves narrower dispatches — a width-1
        dispatch's single-vector cycles included — with bit-identical
        numerics (every cycle buffer is sliced to the active width), so
        the pool stays small: after the warm-up, one entry at
        ``max_block``.  Callers must hold the session solve lock (the
        dispatch path and :meth:`solve` do).
        """
        if width < 1:
            raise ValueError("width must be at least 1")
        best: Optional[GmresWorkspace] = None
        for ws in self._workspaces.values():
            if ws.block_size >= width and (
                best is None or ws.block_size < best.block_size
            ):
                best = ws
        if best is None:
            best = GmresWorkspace(
                self.n_rows, self.restart, self._work_precision, width
            )
            self._workspaces[width] = best
        return best

    # ------------------------------------------------------------------ #
    # solving                                                            #
    # ------------------------------------------------------------------ #
    def _warmup(self) -> None:
        """Build every lazily-cached plan before the first paying request.

        One raw SpMV and one width-``max_block`` SpMM per stored matrix
        (backend handles, DIA/SpMM plans, row geometry), one block
        preconditioner application, and the ``max_block``-wide Krylov
        workspace.  Only the plans carry over to the dispatching threads:
        kernel and recurrence temporaries come from the per-thread
        :func:`repro.scratch.scratch` pool, which each thread fills on its
        first use.
        """
        with use_context(self.context):
            backend = self.context.backend
            for matrix in self._matrices:
                x = np.zeros(matrix.n_rows, dtype=matrix.dtype)
                X = np.zeros(
                    (matrix.n_rows, self.max_block), dtype=matrix.dtype, order="F"
                )
                backend.spmv(matrix, x)
                backend.spmm(matrix, X)
            if self.preconditioner is not None:
                dtype = self.preconditioner.precision.dtype
                block = np.zeros((self.n_rows, self.max_block), dtype=dtype, order="F")
                out = np.empty_like(block)
                self.preconditioner.apply_block(block, out=out)
            self.workspace_for(self.max_block)

    @staticmethod
    def _as_multi(result: SolveResult) -> MultiSolveResult:
        """Adapt a single-vector :class:`SolveResult` to the batch shape.

        The scheduler demultiplexes every dispatch through
        :meth:`MultiSolveResult.split`; width-1 dispatches run the
        single-vector driver, so its result is wrapped into an equivalent
        one-column batch (same arrays, statuses and timer).
        """
        return MultiSolveResult(
            X=result.x.reshape(-1, 1),
            statuses=[result.status],
            iterations=np.array([result.iterations], dtype=np.int64),
            block_iterations=result.iterations,
            restarts=result.restarts,
            relative_residuals=np.array([result.relative_residual]),
            relative_residuals_fp64=np.array([result.relative_residual_fp64]),
            histories=[result.history],
            timer=result.timer,
            solver=result.solver,
            precision=result.precision,
            block_size=1,
            details=dict(result.details),
        )

    def _solve_block(
        self, B: np.ndarray, *, controls: Optional[List] = None, probe=None
    ) -> MultiSolveResult:
        """Run one dispatch under the pinned context (the scheduler hook).

        Width-1 dispatches run the canonical *single-vector* driver
        (``gmres`` / ``gmres_ir``) — the unbatched service path is exactly
        the library's standard solver, bit for bit — while wider
        dispatches run the Block-GMRES drivers.  Both reuse pooled
        workspaces and are serialized on the session solve lock.

        ``controls`` carries one optional
        :class:`~repro.solvers.SolveControl` per column (deadline /
        cancellation tokens of the requests riding this dispatch); the
        solvers poll them at restart boundaries and deflate stopped
        columns without disturbing their batchmates.  ``probe`` is the
        optional convergence hook forwarded to the driver (see
        :class:`repro.obs.ProbeEvent`); ``None`` keeps the driver call
        identical to the untraced path.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        width = B.shape[1]
        if controls is not None and len(controls) != width:
            raise ValueError(
                f"controls must have one entry per column: got {len(controls)} "
                f"for a width-{width} block"
            )
        with self._solve_lock:
            workspace = self.workspace_for(width)
            kwargs = self._kwargs if probe is None else dict(self._kwargs, probe=probe)
            with use_context(self.context):
                if width == 1:
                    result = self._single_driver(
                        self._matrix,
                        B[:, 0],
                        workspace=workspace,
                        control=controls[0] if controls is not None else None,
                        ortho=self._ortho,
                        **kwargs,
                    )
                    return self._as_multi(result)
                return self._block_driver(
                    self._matrix,
                    B,
                    workspace=workspace,
                    controls=controls,
                    ortho=self._block_ortho,
                    **kwargs,
                )

    def submit(
        self, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "object":
        """Enqueue one right-hand side; returns ``Future[ServeResult]``.

        The scheduler may coalesce it with other waiting requests into one
        batched solve (see :class:`~repro.serve.scheduler.SolveScheduler`).
        ``deadline_ms`` bounds the request end to end: expiry in the queue
        fails the future fast with
        :class:`~repro.serve.errors.DeadlineExceededError`; expiry
        mid-solve resolves it normally with status ``TIMED_OUT``.
        Cancelling the future reaches an in-flight solve cooperatively
        (status ``CANCELLED`` within one restart cycle).
        """
        return self.scheduler.submit(b, deadline_ms=deadline_ms)

    async def asubmit(
        self, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "object":
        """Awaitable :meth:`submit`: resolve one request on the event loop.

        The ``asyncio`` front of the ``Future``-based scheduler — the
        request still rides the same micro-batching queue and worker
        machinery; only the waiting is non-blocking::

            result = await session.asubmit(b)

        Validation errors surface as the usual :class:`ValueError` when
        awaited; a queue-expired ``deadline_ms`` as
        :class:`~repro.serve.errors.DeadlineExceededError`.
        """
        return await self.scheduler.asubmit(b, deadline_ms=deadline_ms)

    def solve(self, b: np.ndarray) -> SolveResult:
        """Synchronous direct solve of one right-hand side (no batching).

        Runs the exact machinery a width-1 dispatch runs — the canonical
        single-vector driver under the pinned context with the pooled
        workspace — so a request served through an unbatched scheduler
        resolves bit-identically to this call, and both are bit-identical
        to :func:`repro.solvers.gmres.gmres` with the session's
        configuration.  Bypasses the queue and the telemetry.
        """
        multi = self._solve_block(self.validate_rhs(b).reshape(-1, 1))
        return multi.split()[0]

    def solve_many(self, B: np.ndarray) -> MultiSolveResult:
        """Synchronous batched solve of a caller-assembled block.

        Chunks wider-than-``max_block`` blocks like
        :func:`repro.solvers.block_gmres.solve_many`, reusing the pooled
        workspaces.  Bypasses the queue and the telemetry.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        results = [
            self._solve_block(np.asfortranarray(B[:, start : start + self.max_block]))
            for start in range(0, B.shape[1], self.max_block)
        ]
        if len(results) == 1:
            return results[0]
        timer = results[0].timer
        for extra in results[1:]:
            timer.merge_from(extra.timer)
        return merge_chunks(
            results, timer=timer, solver=results[0].solver, block_size=self.max_block
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the scheduler down; ``drain=True`` finishes queued work."""
        self.scheduler.close(drain=drain, timeout=timeout)
        self._closed = True

    def release(self, *, timeout: Optional[float] = None) -> None:
        """Retire the session from service without invalidating in-flight work.

        The eviction path of the :class:`~repro.serve.registry.SessionRegistry`:
        the scheduler is shut down (draining its own queue), so no *new*
        ``submit()`` is accepted — but unlike :meth:`close` the session is
        **not** marked closed, so a farm worker holding a reference across
        the eviction can still finish its current dispatch through
        ``_solve_block``.  Closing the scheduler breaks its reference
        back to the session, so the warmed plans and workspaces are freed
        as soon as the last outside reference is dropped, without waiting
        for the cyclic garbage collector.
        """
        self.scheduler.close(drain=True, timeout=timeout)

    def __enter__(self) -> "OperatorSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OperatorSession {self.name!r} method={self.method!r} "
            f"backend={self.context.backend.name!r} max_block={self.max_block} "
            f"policy={self.policy.mode!r}>"
        )
