"""repro.serve — the solver service layer.

The paper evaluates mixed-precision GMRES as a *kernel*; the roadmap's
north star is served throughput.  This package is the layer between the
two: it turns the batched multi-RHS capability of
:func:`repro.solvers.block_gmres.solve_many` (one SpMM per block iteration,
BLAS-3 orthogonalization) into a service for the realistic workload shape —
many independent clients, each submitting one right-hand side against a
shared operator.

Pieces
------
:class:`OperatorSession`
    Registers a matrix + solver configuration once and owns the expensive
    amortizable state: pinned backend context, cached backend plans,
    preconditioner setup, a per-width pool of allocation-free Krylov
    workspaces, and the scheduler.
:class:`SolveScheduler`
    The request-lifecycle engine — a session's is one tenant queue and
    one worker: ``session.submit(b)`` returns a ``Future``; waiting
    requests are coalesced up to ``max_block`` wide or ``max_wait_ms``
    old (whichever first), dispatched as **one** batched solve, and the
    per-column results are demultiplexed back to the futures — including
    per-column failure statuses, so one diverging right-hand side cannot
    fail its batchmates.
:class:`BatchingPolicy`
    Decides sequential-vs-block and the dispatch width per operator from
    the analytic kernel cost model (SpMM vs ``k`` SpMVs, GEMM vs ``k``
    GEMVs); overridable via ``ReproConfig.serve.policy``.
:class:`Outcome` / :class:`ServeTelemetry` / :class:`ServeStats`
    Every request ends in one :class:`Outcome`, booked by
    :meth:`PendingRequest.resolve` in the :class:`ServeTelemetry` ledger
    of each of its scopes before its future resolves.  A ledger keeps
    lifetime counters plus a time-stamped ring of outcomes; its snapshot
    (per-request queue-wait/solve latency, the batch-occupancy histogram,
    throughput) is the immutable :class:`ServeStats` dumped by
    ``benchmarks/_harness.py --serve`` into ``BENCH_serve.json``, and
    with a health monitor the same ledger feeds the SLO windows.

:class:`SolverFarm` / :class:`SessionRegistry`
    The multi-tenant form, a :class:`SolveScheduler` subclass: many
    operators registered by key, warmed sessions LRU-cached under a
    session-count/byte budget, bounded per-tenant queues with
    :class:`RejectedError` backpressure, and a shared worker pool with
    weighted-fair dispatch.  Each farm request books into its tenant's
    ledger and the fleet's; :class:`FarmStats` / :class:`TenantStats`
    snapshot both levels plus the farm's own state
    (``benchmarks/_harness.py --farm`` → ``BENCH_farm.json``).

Fault tolerance (see the README's "Failure semantics" section)
    Every policy error derives from :class:`ReproServeError`:
    :class:`RejectedError` (queue full), :class:`DeadlineExceededError`
    (a request's ``deadline_ms`` lapsed while queued; never dispatched)
    and :class:`CircuitOpenError` (operator quarantined by its
    :class:`CircuitBreaker` after consecutive hard solve failures).
    Deadlines that lapse *mid-solve* and client cancellations resolve
    futures normally with statuses ``TIMED_OUT`` / ``CANCELLED`` via the
    cooperative :class:`repro.solvers.SolveControl` token.

Quickstart (one operator — see :func:`repro.session`)::

    import numpy as np
    import repro

    A = repro.matrices.laplace3d(32)
    M = repro.GmresPolynomialPreconditioner(A, degree=16)
    with repro.session(
        A, preconditioner=M, restart=15, tol=1e-8, max_block=8
    ) as session:
        futures = [session.submit(np.random.rand(A.n_rows)) for _ in range(32)]
        results = [f.result() for f in futures]
        print(session.stats().as_dict())

Many operators — see :func:`repro.farm`::

    with repro.farm(workers=2, max_sessions=4) as f:
        f.register("poisson", A, preconditioner=M, restart=15)
        result = f.submit("poisson", np.random.rand(A.n_rows)).result()
        print(f.stats().as_dict())
"""

from .breaker import BREAKER_STATES, CircuitBreaker
from .errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RejectedError,
    ReproServeError,
)
from .farm import FAIRNESS_MODES, SolverFarm
from .policy import BatchingPolicy, POLICY_MODES
from .registry import SessionRegistry
from .scheduler import PendingRequest, ServeFuture, ServeResult, SolveScheduler
from .session import OperatorSession
from .telemetry import (
    FarmStats,
    LatencySummary,
    Outcome,
    ServeStats,
    ServeTelemetry,
    TenantStats,
)

#: The curated public surface of the serve layer: the two service fronts
#: (session and farm), their building blocks, and the telemetry types a
#: client reads.  Internal plumbing (run_batch, the worker machinery) is
#: importable from the submodules but not part of the supported API.
__all__ = [
    # single-operator service
    "OperatorSession",
    "SolveScheduler",
    "ServeResult",
    "ServeFuture",
    "PendingRequest",
    # multi-tenant farm
    "SolverFarm",
    "SessionRegistry",
    "FAIRNESS_MODES",
    # errors and fault tolerance
    "ReproServeError",
    "RejectedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "CircuitBreaker",
    "BREAKER_STATES",
    # batching policy
    "BatchingPolicy",
    "POLICY_MODES",
    # telemetry
    "Outcome",
    "ServeTelemetry",
    "ServeStats",
    "FarmStats",
    "TenantStats",
    "LatencySummary",
]
