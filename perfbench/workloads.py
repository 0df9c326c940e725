"""The benchmark's workloads: seeded inputs, set-up, and request loops.

Every input (right-hand-side pools, tenant sequences) is generated here
from the workload seed; the library only receives them.  Matrices come
from ``repro.matrices`` and do not depend on the seed.

Two direct workloads call the solvers back to back from one caller; two
served workloads run a closed loop: one generator thread keeps
``WINDOW`` requests outstanding and submits the next one as soon as one
resolves.
"""

from __future__ import annotations

import os
import queue
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse

import repro
from repro.linalg import use_backend
from repro.obs import MetricsRegistry, Observability, prometheus_text
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.serve import OperatorSession, SolverFarm
from repro.solvers.result import SolverStatus

#: Relative residual every request must reach (the paper's setting).
TOL = 1e-10
#: A returned solution passes the oracle when its fp64 residual,
#: recomputed with scipy.sparse, is at most this multiple of ``TOL``.
ORACLE_SLACK = 2.0
#: Requests the served workloads' generator keeps outstanding.
WINDOW = 8
#: Right-hand sides in each seeded pool.  Co-prime with ``WINDOW``, so
#: consecutive served batches hold different sets of right-hand sides.
POOL = 31
#: Pool right-hand sides solved one at a time for ``solvers.iterations``.
ITERATION_PROBES = 4
#: Upper bound on draining the requests still outstanding at window end.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One request as the client saw it."""

    key: str
    b: np.ndarray
    t_submit: float = 0.0
    t_done: float = 0.0
    result: object = None
    error: Optional[str] = None
    residual: float = float("nan")

    @property
    def latency(self) -> float:
        return self.t_done - self.t_submit

    @property
    def converged(self) -> bool:
        return self.error is None and self.result.status == SolverStatus.CONVERGED

    @property
    def ok(self) -> bool:
        return self.converged and self.residual <= ORACLE_SLACK * TOL


@dataclass
class Window:
    """The requests of one timed window plus what happened beside them."""

    start: float
    end: float
    requests: List[Request]
    scrapes: List[tuple] = field(default_factory=list)  # (seconds, bytes)
    counters: Dict[str, float] = field(default_factory=dict)


def oracle_residual(matrix: scipy.sparse.csr_matrix, b: np.ndarray, x) -> float:
    """``||b - A x|| / ||b||`` in fp64, computed without the library."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(b - matrix @ x) / np.linalg.norm(b))


def as_scipy(matrix) -> scipy.sparse.csr_matrix:
    return scipy.sparse.csr_matrix(
        (matrix.data.astype(np.float64), matrix.indices, matrix.indptr),
        shape=matrix.shape,
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    """Base class; subclasses generate inputs in ``__init__``."""

    name = ""
    served = False

    def __init__(self, seed: int, tiny: bool = False, poison_rhs: bool = False) -> None:
        self.rng = np.random.default_rng(seed)
        self.oracles: Dict[str, scipy.sparse.csr_matrix] = {}
        #: Self-test knobs: small problem sizes, and one non-finite
        #: right-hand side at the end of each pool.
        self.tiny = tiny
        self.poison_rhs = poison_rhs

    def make_pool(self, n: int, size: int) -> List[np.ndarray]:
        # Uniform [0, 1) entries: every such right-hand side needs the same
        # number of GMRES-IR refinements here, whereas standard normal ones
        # split between two counts 50 iterations apart, which would make
        # the latency median jump between seeds.
        pool = [self.rng.random(n) for _ in range(size)]
        if self.poison_rhs:
            pool[-1] = np.full(n, np.nan)
        return pool

    def check(self, window: Window) -> None:
        """Run the oracle on every returned solution of ``window``."""
        for request in window.requests:
            if request.converged:
                request.residual = oracle_residual(
                    self.oracles[request.key], request.b, request.result.x
                )

    # Interface: setup(tracing) -> state; run(state, seconds, tracing)
    # -> Window; iterations(state) -> float; close(state).
    def close(self, state) -> None:
        pass


class DirectWorkload(Workload):
    """One caller solving a seeded pool of random RHS back to back."""

    KEY = "laplace3d"

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        self.matrix = repro.matrices.laplace3d(8 if self.tiny else 32)
        self.oracles[self.KEY] = as_scipy(self.matrix)
        self.pool = self.make_pool(self.matrix.n_rows, POOL)

    def solve(self, b):
        raise NotImplementedError

    def setup(self, tracing=None):
        # No preconditioner and no session: one warm-up solve is the set-up.
        self.call(self.pool[0], tracing)
        return None

    def call(self, b, tracing):
        if tracing is None:
            return self.solve(b)
        with use_backend(tracing.backend):
            return tracing.log.call(f"solvers.{self.solver_name}", self.solve, (b,))

    def run(self, state, seconds: float, tracing=None) -> Window:
        requests = []
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            b = self.pool[len(requests) % len(self.pool)]
            request = Request(self.KEY, b, t_submit=time.perf_counter())
            try:
                request.result = self.call(b, tracing)
            except Exception as exc:  # noqa: BLE001 - a raised request fails
                request.error = repr(exc)
            request.t_done = time.perf_counter()
            requests.append(request)
        return Window(start, end, requests)

    def iterations(self, state) -> float:
        return float(np.mean([self.solve(b).iterations for b in self.pool[:ITERATION_PROBES]]))


class Fp64Laplace3d(DirectWorkload):
    name = "fp64-laplace3d"
    solver_name = "gmres"

    def solve(self, b):
        return repro.gmres(
            self.matrix, b, precision="double", restart=50, tol=TOL, ortho="cgs2"
        )


class IrLaplace3d(DirectWorkload):
    name = "ir-laplace3d"
    solver_name = "gmres_ir"

    def solve(self, b):
        return repro.gmres_ir(
            self.matrix, b, inner_precision="single", outer_precision="double",
            restart=50, tol=TOL, ortho="cgs2",
        )


def closed_loop(
    submit: Callable,
    next_input: Callable[[], tuple],
    seconds: float,
    tick: Optional[Callable[[], None]] = None,
) -> Window:
    """Keep ``WINDOW`` requests outstanding for ``seconds``, then drain.

    ``next_input()`` returns ``(key, b)``; ``submit(key, b)`` returns a
    future.  ``tick`` runs on the generator thread about once a second.
    """
    done: "queue.Queue[Request]" = queue.Queue()
    requests: List[Request] = []
    outstanding = 0

    def resolve(request: Request, future) -> None:
        request.t_done = time.perf_counter()
        try:
            request.result = future.result()
        except Exception as exc:  # noqa: BLE001 - a failed future fails the request
            request.error = repr(exc)
        done.put(request)

    def launch() -> None:
        key, b = next_input()
        request = Request(key, b, t_submit=time.perf_counter())
        requests.append(request)
        try:
            future = submit(key, b)
        except Exception as exc:  # noqa: BLE001 - a refused request fails
            request.t_done = time.perf_counter()
            request.error = repr(exc)
            done.put(request)
            return
        future.add_done_callback(lambda f, r=request: resolve(r, f))

    start = time.perf_counter()
    end = start + seconds
    next_tick = start + 1.0 if tick is not None else float("inf")
    while True:
        now = time.perf_counter()
        if now >= end:
            break
        if tick is not None and now >= next_tick:
            tick()
            next_tick += 1.0
            continue
        while outstanding < WINDOW:
            launch()
            outstanding += 1
        try:
            done.get(timeout=max(0.0, min(end, next_tick) - now))
        except queue.Empty:
            continue
        outstanding -= 1
    drain_by = time.perf_counter() + DRAIN_TIMEOUT_S
    while outstanding and time.perf_counter() < drain_by:
        try:
            done.get(timeout=max(0.0, drain_by - time.perf_counter()))
        except queue.Empty:
            break
        outstanding -= 1
    return Window(start, end, requests)


class ServePolyUniflow2d(Workload):
    """One OperatorSession: fp64 GMRES + GMRES-polynomial(16), max_block 8."""

    name = "serve-poly-uniflow2d"
    served = True
    KEY = "uniflow2d"

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        self.matrix = repro.matrices.uniflow2d(16 if self.tiny else 128)
        self.oracles[self.KEY] = as_scipy(self.matrix)
        self.pool = self.make_pool(self.matrix.n_rows, POOL)

    def setup(self, tracing=None):
        with use_backend(tracing.backend) if tracing is not None else nullcontext():
            session = OperatorSession(
                self.matrix,
                method="gmres",
                precision="double",
                restart=15,
                tol=TOL,
                preconditioner=GmresPolynomialPreconditioner(
                    self.matrix, degree=16, precision="double"
                ),
                max_block=WINDOW,
                obs=Observability(tracer=None, registry=MetricsRegistry()),
            )
        session.submit(self.pool[0]).result()
        return session

    def run(self, session, seconds: float, tracing=None) -> Window:
        submit = session.submit
        if tracing is not None:
            submit = tracing.log.wrap("serve.submit", submit)
        turn = iter(range(1 << 62))

        def next_input():
            return self.KEY, self.pool[next(turn) % len(self.pool)]

        before = session.stats()
        window = closed_loop(lambda key, b: submit(b), next_input, seconds)
        after = session.stats()
        window.counters["retries"] = after.requests_retried - before.requests_retried
        return window

    def iterations(self, session) -> float:
        return float(np.mean([
            session.submit(b).result().iterations
            for b in self.pool[:ITERATION_PROBES]
        ]))

    def close(self, session) -> None:
        session.close(drain=True, timeout=DRAIN_TIMEOUT_S)


class FarmIrMixed(Workload):
    """A SolverFarm of 8 GMRES-IR operators with fewer warm slots than operators."""

    name = "farm-ir-mixed"
    served = True
    MAX_SESSIONS = 5
    #: Grid size of every operator.  64 rather than 96 keeps enough
    #: requests in a window for steady figures on a 2-core machine.
    GRID = 64
    #: Convection strengths of the 4 BentPipe2D and 4 UniFlow2D operators.
    BENT = (400.0, 300.0, 200.0, 100.0)
    UNI = (50.0, 40.0, 30.0, 20.0)
    #: Requests per tenant in each block of the sequence, by popularity.
    SHARES = (5, 3, 2, 2, 1, 1, 1, 1)
    #: Blocks in the sequence (cycled if a run outlasts them).
    BLOCKS = 256
    #: Right-hand sides in each tenant's pool.
    TENANT_POOL = 7

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        n = 16 if self.tiny else self.GRID
        self.matrices = {}
        # Popularity rank alternates the two problem families, so every
        # seed draws the same mix of hard and easy operators.
        for i, (bent, uni) in enumerate(zip(self.BENT, self.UNI)):
            self.matrices[f"bentpipe-{i}"] = repro.matrices.bentpipe2d(n, velocity_magnitude=bent)
            self.matrices[f"uniflow-{i}"] = repro.matrices.uniflow2d(n, velocity_magnitude=uni)
        self.keys = list(self.matrices)
        for key, matrix in self.matrices.items():
            self.oracles[key] = as_scipy(matrix)
        self.pools = {
            key: self.make_pool(m.n_rows, self.TENANT_POOL) for key, m in self.matrices.items()
        }
        # Each block of the tenant sequence holds every tenant its fixed
        # number of times, in a seeded order: the skew and the eviction
        # pressure are the same for every seed, only the order varies.
        block = np.repeat(np.arange(len(self.keys)), self.SHARES)
        self.sequence = np.concatenate(
            [self.rng.permutation(block) for _ in range(self.BLOCKS)]
        )
        self.rewarm_seconds: List[float] = []

    def factory(self, key: str, obs: Observability, tracing):
        matrix = self.matrices[key]

        def build() -> OperatorSession:
            start = time.perf_counter()
            with use_backend(tracing.backend) if tracing is not None else nullcontext():
                session = OperatorSession(
                    matrix,
                    method="gmres-ir",
                    tol=TOL,
                    preconditioner=GmresPolynomialPreconditioner(
                        matrix, degree=8, precision="single"
                    ),
                    name=f"farm:{key}",
                    obs=obs,
                )
            self.rewarm_seconds.append(time.perf_counter() - start)
            return session

        return build if tracing is None else tracing.log.wrap("serve.rewarm", build)

    def setup(self, tracing=None):
        obs = Observability(tracer=None, registry=MetricsRegistry())
        farm = SolverFarm(workers=nproc(), max_sessions=self.MAX_SESSIONS, obs=obs)
        for key, matrix in self.matrices.items():
            farm.register(key, factory=self.factory(key, obs, tracing), n_rows=matrix.n_rows)
        farm.submit(self.keys[0], self.pools[self.keys[0]][0]).result()
        return farm

    def run(self, farm, seconds: float, tracing=None) -> Window:
        submit = farm.submit
        scrape = prometheus_text
        if tracing is not None:
            submit = tracing.log.wrap("serve.submit", submit)
            scrape = tracing.log.wrap("obs.scrape", scrape)
        turns = {key: 0 for key in self.keys}
        draws = iter(range(1 << 62))
        scrapes = []

        def next_input():
            key = self.keys[self.sequence[next(draws) % len(self.sequence)]]
            pool = self.pools[key]
            b = pool[turns[key] % len(pool)]
            turns[key] += 1
            return key, b

        def tick():
            start = time.perf_counter()
            text = scrape(farm.obs.registry)
            scrapes.append((time.perf_counter() - start, len(text.encode())))

        before = farm.stats()
        rewarms_before = len(self.rewarm_seconds)
        window = closed_loop(submit, next_input, seconds, tick)
        after = farm.stats()
        window.scrapes = scrapes
        window.counters.update(
            retries=after.fleet.requests_retried - before.fleet.requests_retried,
            evictions=after.evictions - before.evictions,
            rewarms=len(self.rewarm_seconds) - rewarms_before,
            rewarm_s=sum(self.rewarm_seconds[rewarms_before:]),
        )
        return window

    def iterations(self, farm) -> float:
        probes = self.keys[:ITERATION_PROBES]
        return float(np.mean([
            farm.submit(key, self.pools[key][0]).result().iterations for key in probes
        ]))

    def close(self, farm) -> None:
        farm.close(drain=True, timeout=DRAIN_TIMEOUT_S)


WORKLOADS = {
    cls.name: cls
    for cls in (Fp64Laplace3d, IrLaplace3d, ServePolyUniflow2d, FarmIrMixed)
}
