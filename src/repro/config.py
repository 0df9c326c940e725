"""Global configuration for the reproduction library.

Keeps the handful of knobs that experiments, benchmarks and tests share:
the default (modelled) device, default convergence tolerance, default
restart length and the random seed used by synthetic matrix generators.

The paper's experimental setup (Section V) is encoded here as defaults:

* relative residual tolerance ``1e-10``
* restart length ``m = 50``
* right-hand side of all ones, zero initial guess
* a single Tesla V100 (16 GB) as the execution device
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "ReproConfig",
    "ServeConfig",
    "ObsConfig",
    "get_config",
    "set_config",
    "default_config",
    "rng",
]


def _default_backend() -> str:
    """Backend name from the ``REPRO_BACKEND`` environment variable."""
    return os.environ.get("REPRO_BACKEND", "numpy").strip().lower() or "numpy"


@dataclass(frozen=True)
class ServeConfig:
    """Defaults of the solver service layer (:mod:`repro.serve`).

    Session knobs (one operator):

    max_block:
        Micro-batch width cap: the scheduler dispatches at most this many
        coalesced right-hand sides per batched solve.
    max_wait_ms:
        Micro-batching window in milliseconds: a queued request is
        dispatched once this much time has passed since batch assembly
        began, even if the batch is not full.  ``0`` disables
        coalescing-by-waiting (requests still batch when they are already
        queued together).
    policy:
        Batching policy mode: ``"auto"`` consults the kernel cost model
        per operator, ``"block"`` always batches to the width cap,
        ``"sequential"`` forces width-1 solves.

    Farm knobs (multi-operator, multi-tenant — :class:`repro.serve.SolverFarm`):

    max_sessions:
        Warm-session budget of the :class:`repro.serve.SessionRegistry`:
        the least-recently-used session (its warmed plans and workspace
        pool) is evicted when a new operator would exceed this count.
    max_session_bytes:
        Optional memory budget (estimated bytes of matrices + pooled
        workspaces across all warm sessions) triggering the same LRU
        eviction; ``None`` disables byte accounting.
    queue_depth:
        Per-tenant bounded queue depth; a ``submit()`` beyond it is
        rejected with :class:`repro.serve.RejectedError` (backpressure)
        instead of growing the queue without bound.
    fairness:
        Worker dispatch order across tenants: ``"weighted"`` picks the
        ready tenant with the smallest served-work/weight ratio (weighted
        fair sharing — a hot tenant cannot starve the others),
        ``"fifo"`` serves tenants strictly by oldest waiting request.
    workers:
        Shared worker threads draining the per-tenant queues.
    breaker_threshold:
        Per-operator circuit breaker: this many *consecutive* hard solve
        failures (exceptions, breakdowns, non-finite results) quarantine
        the operator — its warmed session is evicted and submits fail
        fast with :class:`repro.serve.CircuitOpenError`.
    breaker_cooldown_ms:
        Quarantine length in milliseconds; after it one probe request is
        admitted (half-open) and its outcome decides whether traffic
        resumes.
    """

    max_block: int = 8
    max_wait_ms: float = 2.0
    policy: str = "auto"
    max_sessions: int = 8
    max_session_bytes: Optional[int] = None
    queue_depth: int = 64
    fairness: str = "weighted"
    workers: int = 2
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 250.0


@dataclass(frozen=True)
class ObsConfig:
    """Defaults of the observability layer (:mod:`repro.obs`).

    tracing:
        Enable span-based request tracing.  Off by default: when off the
        serve hot paths carry a single ``is None`` check and allocate
        nothing.  When on, sessions and farms created without an
        explicit ``obs=`` share the lazily-created process-default
        tracer (:func:`repro.obs.default_tracer`).
    trace_capacity:
        Bound on the finished-span buffer of a config-created tracer;
        the oldest spans are dropped (and counted) beyond it.
    metrics:
        Publish session/farm statistics into the process metrics
        registry (:func:`repro.obs.default_registry`) for Prometheus
        exposition.  Pull-based — state is sampled at scrape time, so
        leaving this on costs nothing per request.
    sample_rate:
        Head-sampling rate of the config-created tracer: the fraction of
        requests that get a *full* span tree (``1.0`` = trace everything,
        the PR-9 behavior).  Below 1.0 the tracer runs with a
        :class:`repro.obs.Sampler`: unsampled requests record only cheap
        stage timestamps, and their span trees are synthesized after the
        fact only when a tail rule keeps them.
    tail_keep:
        Tail-based retention (only meaningful with ``sample_rate < 1``):
        always keep the trace of a request that failed, blew its
        deadline, tripped an anomaly detector, or landed in the slowest
        decile — regardless of the head-sampling decision.
    slo_availability_target:
        Default availability objective of :class:`repro.obs.SloPolicy`
        (fraction of non-cancelled requests that must succeed).
    slo_latency_p95_ms:
        Default latency objective: windowed p95 must stay at or below
        this many milliseconds (``0`` disables the latency objective).
    slo_fast_window_s / slo_slow_window_s:
        Default burn-rate windows of the SLO engine (multi-window
        alerting: the fast window catches sharp regressions, the slow
        window filters blips).
    """

    tracing: bool = False
    trace_capacity: int = 65536
    metrics: bool = True
    sample_rate: float = 1.0
    tail_keep: bool = True
    slo_availability_target: float = 0.999
    slo_latency_p95_ms: float = 0.0
    slo_fast_window_s: float = 300.0
    slo_slow_window_s: float = 3600.0


@dataclass(frozen=True)
class ReproConfig:
    """Immutable bundle of library-wide defaults.

    Attributes
    ----------
    rtol:
        Default relative residual convergence tolerance (paper: ``1e-10``).
    restart:
        Default GMRES restart length ``m`` (paper: 50).
    max_restarts:
        Default cap on the number of restart cycles.
    device_name:
        Name of the modelled device used by :mod:`repro.perfmodel`
        (``"v100"`` reproduces the paper's testbed).
    seed:
        Seed for synthetic matrix generators and right-hand sides that need
        randomness (the paper uses deterministic all-ones right-hand sides;
        randomness only enters through proxy matrix generation).
    meter_kernels:
        If False, kernels skip performance-model accounting entirely
        (useful for the pure-numerics tests, which run slightly faster).
    backend:
        Name of the kernel backend the execution context dispatches to
        (see :mod:`repro.backends`).  Defaults to the ``REPRO_BACKEND``
        environment variable, falling back to the NumPy reference.
    serve:
        :class:`ServeConfig` bundle of the service-layer defaults
        (micro-batching knobs plus the multi-tenant farm knobs).
    obs:
        :class:`ObsConfig` bundle of the observability defaults (request
        tracing, metrics publication — see :mod:`repro.obs`).
    """

    rtol: float = 1e-10
    restart: int = 50
    max_restarts: int = 400
    device_name: str = "v100"
    seed: int = 20210516  # arXiv submission date of the paper
    meter_kernels: bool = True
    backend: str = field(default_factory=_default_backend)
    serve: ServeConfig = field(default_factory=ServeConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)


_DEFAULT = ReproConfig()
_CURRENT: ReproConfig = _DEFAULT


def default_config() -> ReproConfig:
    """The library's built-in defaults (paper Section V settings)."""
    return _DEFAULT


def get_config() -> ReproConfig:
    """Return the currently active configuration."""
    return _CURRENT


def set_config(config: Optional[ReproConfig] = None, **overrides) -> ReproConfig:
    """Replace the active configuration.

    Either pass a full :class:`ReproConfig` or keyword overrides applied on
    top of the current one.  Returns the new active configuration.
    """
    global _CURRENT
    base = config if config is not None else _CURRENT
    _CURRENT = replace(base, **overrides) if overrides else base
    return _CURRENT


def rng(seed: Optional[int] = None) -> np.random.Generator:
    """Deterministic random generator for tests, benchmarks and generators.

    Seeded from the active configuration (:attr:`ReproConfig.seed`) unless
    an explicit seed is given — every stochastic input in the repo routes
    through here so CI runs are reproducible bit-for-bit.
    """
    cfg = get_config()
    return np.random.default_rng(cfg.seed if seed is None else int(seed))
