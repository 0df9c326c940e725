"""Helpers shared by the benchmark modules (kept out of conftest so the
benchmark files can import them explicitly).

Besides the pytest-benchmark glue (:func:`run_once`) this module provides
the machine-readable benchmark output used by CI:

* :func:`write_bench_json` writes a ``BENCH_<name>.json`` file with one
  entry per (kernel, precision) bucket — wall seconds, modelled seconds,
  call counts — tagged with backend, matrix and dtype, so perf trajectories
  can be diffed across commits;
* ``python benchmarks/_harness.py --smoke`` runs scaled-down Figure 1 and
  Figure 5 configurations (< 2 minutes) and emits ``BENCH_smoke.json``
  (the CI smoke-benchmark job uploads it as an artifact);
* ``python benchmarks/_harness.py --backends`` times the registered kernel
  backends against each other and against the plan-free reference SpMV on
  the 64³ Laplace3D SpMV/SpMM and emits ``BENCH_backends.json`` including
  the measured speedups;
* ``python benchmarks/_harness.py --solve`` times the *end-to-end* metered
  and unmetered GMRES(50) fp64 solve on the smoke matrices for every
  registered backend and emits ``BENCH_solve.json`` — the solver-level perf
  trajectory.  The summary block records the pre-PR per-iteration baseline
  (measured before the allocation-free hot path landed) and the speedup
  against it; ``benchmarks/check_solve_regression.py`` diffs a fresh run
  against the committed file in CI;
* ``python benchmarks/_harness.py --solve-block`` times Block-GMRES at
  block size 8 against 8 sequential GMRES solves (both backends, plain and
  polynomial-preconditioned) and emits ``BENCH_block.json`` with every
  interleaved run; it *enforces* the batched-solve gate (``BLOCK_GATE``:
  block per-RHS speedup ≥0.9× over sequential on the default backend in
  the preconditioned configuration) and fails the run when the gate or the
  sequential-parity check is violated;
* ``python benchmarks/_harness.py --serve`` drives N concurrent client
  threads against a :class:`repro.serve.OperatorSession` (batched
  micro-batching scheduler vs the unbatched width-1 scheduler, both
  backends) and emits ``BENCH_serve.json`` with RHS/s and p50/p95
  queue-wait/solve/total latency and every interleaved run; it *enforces*
  the serving gate (``SERVE_GATE``: batched RHS/s ≥0.7× unbatched on the
  default backend) plus the bit-parity (served == direct solve) and
  divergence-isolation checks.
* ``python benchmarks/_harness.py --farm`` replays a skewed 8-operator
  traffic mix (one hot tenant, seven cold ones) against a
  :class:`repro.serve.SolverFarm` whose session budget is smaller than the
  operator count — so LRU eviction and re-warm churn are part of the
  measured workload — and against the naive no-farm alternative (one warm
  session at a time, rebuilt on every operator switch, requests solved
  sequentially).  Emits ``BENCH_farm.json`` with fleet RHS/s, per-tenant
  p50/p95 latency and fairness shares, and eviction counts; *enforces*
  the farm acceptance gate (``FARM_GATE``: ≥1.5× fleet RHS/s over the
  naive baseline on the reference backend, no cold tenant's p95 latency
  degraded more than 3× by the hot neighbour, evictions observed).
* ``python benchmarks/_harness.py --obs`` measures the observability
  layer's serving cost: the ``--serve`` batched client mix is replayed
  with obs fully off (baseline), metrics-only (the default), adaptive
  sampling (10% head + tail keep) and with full request tracing +
  solver probes on, interleaved so drift cancels.
  Emits ``BENCH_obs.json`` with the measured throughput cost of each
  state plus the traced run's Chrome trace-event artifact
  (``TRACE_obs.json``, opens in chrome://tracing / Perfetto); *enforces*
  the overhead gate (``OBS_GATE``: tracing off costs <2% RHS/s, sampled
  tracing <2%, full tracing <10%, on the reference backend) and checks
  that the span ledger reconciles with the service telemetry.

The backend-selection/setup boilerplate those modes share lives in
:func:`backend_context` / :func:`each_backend`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


# ---------------------------------------------------------------------- #
# backend selection/setup (shared by every CLI mode and bench module)    #
# ---------------------------------------------------------------------- #
@contextmanager
def backend_context(backend: Optional[str] = None, *, meter: bool = False) -> Iterator[str]:
    """Install a pinned execution context for one benchmark measurement.

    The boilerplate every solver-level benchmark used to repeat inline:
    build an :class:`ExecutionContext` pinned to ``backend`` with metering
    on or off, install it globally, and — crucially — restore the default
    context afterwards even when the measurement raises.  Yields the
    resolved backend name.
    """
    from repro.config import get_config
    from repro.linalg.context import ExecutionContext, set_context

    name = backend or get_config().backend
    set_context(ExecutionContext(meter=meter, backend=name))
    try:
        yield name
    finally:
        set_context(ExecutionContext())


def each_backend(*, meter: bool = False) -> Iterator[str]:
    """Iterate every registered backend with a pinned context installed.

    ``for backend in each_backend(): ...`` replaces the
    ``available_backends()`` loop + ``set_context`` + ``try/finally`` reset
    dance that was duplicated across the solve/block/serve modes.
    """
    from repro.backends import available_backends

    for name in available_backends():
        with backend_context(name, meter=meter):
            yield name


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    The benchmarks reproduce whole experiments (dozens of solver runs), so a
    single timed round is appropriate — the interesting numbers are in the
    experiment reports, the wall time is just bookkeeping.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


# ---------------------------------------------------------------------- #
# machine-readable benchmark records                                     #
# ---------------------------------------------------------------------- #
def timer_entries(
    timer,
    *,
    benchmark: str,
    backend: str,
    matrix: str = "",
    extra: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Flatten a :class:`repro.perfmodel.timer.KernelTimer` into JSON rows.

    One row per (kernel label, precision) bucket, tagged with the backend
    and matrix so rows from different configurations can live in one file.
    """
    rows: List[Dict[str, object]] = []
    for rec in timer.records:
        row: Dict[str, object] = {
            "benchmark": benchmark,
            "backend": backend,
            "matrix": matrix,
            "kernel": rec.label,
            "dtype": rec.precision,
            "calls": rec.calls,
            "wall_seconds": rec.wall_seconds,
            "model_seconds": rec.model_seconds,
            "bytes": rec.bytes,
            "flops": rec.flops,
        }
        if extra:
            row.update(extra)
        rows.append(row)
    return rows


def write_bench_json(
    name: str,
    entries: List[Dict[str, object]],
    *,
    summary: Optional[Dict[str, object]] = None,
    out: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``benchmarks/results/``.

    Returns the path written.  The payload is self-describing: a schema
    tag, environment stamps, an optional summary block and the per-kernel
    ``entries``.
    """
    import numpy
    import scipy

    path = out or (RESULTS_DIR / f"BENCH_{name}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, object] = {
        "schema": "repro-bench/1",
        "name": name,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entries": entries,
    }
    if summary:
        payload["summary"] = summary
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------- #
# CLI modes (used by CI)                                                 #
# ---------------------------------------------------------------------- #
def _smoke_entries() -> List[Dict[str, object]]:
    """Scaled-down Figure 1 + Figure 5 runs with per-kernel wall times."""
    from repro.config import get_config
    from repro.experiments import ExperimentConfig, fig1_fd_laplace3d, fig5_kernel_speedups
    from repro.perfmodel import KernelTimer, use_timer

    cfg = ExperimentConfig(quick=True)
    backend = get_config().backend
    entries: List[Dict[str, object]] = []
    for label, driver, matrix in (
        ("figure1_fd_laplace3d", fig1_fd_laplace3d.run, "Laplace3D16"),
        ("figure5_kernel_speedups", fig5_kernel_speedups.run, "three-PDE suite"),
    ):
        with use_timer(KernelTimer(label)) as timer:
            start = time.perf_counter()
            driver(cfg)
            elapsed = time.perf_counter() - start
        entries.extend(
            timer_entries(
                timer,
                benchmark=label,
                backend=backend,
                matrix=matrix,
                extra={"total_wall_seconds": elapsed},
            )
        )
        print(f"[smoke] {label}: {elapsed:.1f} s wall", flush=True)
    return entries


def run_smoke(out: Optional[pathlib.Path] = None) -> pathlib.Path:
    """CI smoke benchmark: quick fig1/fig5 configs → BENCH_smoke.json."""
    path = write_bench_json("smoke", _smoke_entries(), out=out)
    print(f"[smoke] wrote {path}")
    return path


def _time_kernel(func, *, repeats: int = 7) -> float:
    """Best-of-``repeats`` wall time of ``func`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_backend_comparison(
    grid: int = 64,
    *,
    n_rhs: int = 8,
    out: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Time every registered backend on Laplace3D SpMV/SpMM → BENCH_backends.json.

    The reference configuration of the acceptance gate is the 64³ Laplace3D
    matrix in fp64.  Besides the backends, the plan-free module-level
    reference SpMV (``repro.backends.numpy_backend.spmv``, the numerical
    ground truth) is timed as the ``"reference"`` row; the summary block
    records every backend's SpMV speedup over it, plus SciPy over NumPy.
    """
    from repro.backends import available_backends, get_backend
    from repro.backends.numpy_backend import spmv as reference_spmv
    from repro.config import rng
    from repro.matrices import laplace3d

    matrix64 = laplace3d(grid)
    entries: List[Dict[str, object]] = []
    spmv_times: Dict[str, Dict[str, float]] = {}
    gen = rng()  # deterministic inputs (ReproConfig.seed)
    for dtype_name in ("double", "single"):
        matrix = matrix64.astype(dtype_name)
        x = gen.standard_normal(matrix.n_cols).astype(matrix.dtype)
        X = gen.standard_normal((matrix.n_cols, n_rhs)).astype(matrix.dtype)
        t_ref = _time_kernel(
            lambda: reference_spmv(matrix.data, matrix.indices, matrix.indptr, x)
        )
        spmv_times.setdefault(dtype_name, {})["reference"] = t_ref
        entries.append(
            {
                "benchmark": "backend_comparison",
                "backend": "reference",
                "matrix": matrix.name,
                "kernel": "SpMV",
                "dtype": dtype_name,
                "calls": 1,
                "wall_seconds": t_ref,
                "n_rows": matrix.n_rows,
                "nnz": matrix.nnz,
                "n_rhs": 1,
            }
        )
        print(
            f"[backends] {matrix.name} {dtype_name} reference: "
            f"SpMV {t_ref * 1e3:.2f} ms",
            flush=True,
        )
        for name in available_backends():
            backend = get_backend(name)
            backend.spmv(matrix, x)  # warm-up pass also builds cached handles
            t_spmv = _time_kernel(lambda: backend.spmv(matrix, x))
            t_spmm = _time_kernel(lambda: backend.spmm(matrix, X))
            spmv_times.setdefault(dtype_name, {})[name] = t_spmv
            for kernel, seconds in (("SpMV", t_spmv), ("SpMM", t_spmm)):
                entries.append(
                    {
                        "benchmark": "backend_comparison",
                        "backend": name,
                        "matrix": matrix.name,
                        "kernel": kernel,
                        "dtype": dtype_name,
                        "calls": 1,
                        "wall_seconds": seconds,
                        "n_rows": matrix.n_rows,
                        "nnz": matrix.nnz,
                        "n_rhs": n_rhs if kernel == "SpMM" else 1,
                    }
                )
            print(
                f"[backends] {matrix.name} {dtype_name} {name}: "
                f"SpMV {t_spmv * 1e3:.2f} ms, SpMM({n_rhs}) {t_spmm * 1e3:.2f} ms",
                flush=True,
            )
    summary: Dict[str, object] = {"grid": grid, "n_rhs": n_rhs}
    for dtype_name, times in spmv_times.items():
        for name, seconds in times.items():
            if name != "reference" and seconds > 0:
                summary[f"spmv_speedup_{name}_over_reference_{dtype_name}"] = (
                    times["reference"] / seconds
                )
        if "numpy" in times and "scipy" in times and times["scipy"] > 0:
            summary[f"spmv_speedup_scipy_over_numpy_{dtype_name}"] = (
                times["numpy"] / times["scipy"]
            )
    path = write_bench_json("backends", entries, summary=summary, out=out)
    print(f"[backends] wrote {path}")
    return path


#: Per-iteration wall time (µs) of the unmetered smoke GMRES(50) fp64 solve
#: measured at commit 88ece0e (the last commit *before* the allocation-free
#: hot path landed) on the machine that recorded the committed
#: ``BENCH_solve.json``; best of 21 runs interleaved with the post-change
#: measurements to cancel machine drift.  Keyed ``"<backend>/<matrix>"``.
#: These numbers are only comparable to measurements from that same
#: committed file — the CI regression check compares fresh runs against the
#: committed wall times with a tolerance band instead.
PRE_PR_BASELINE_US: Dict[str, float] = {
    "numpy/Laplace3D24": 1216.7,
    "numpy/UniFlow2D64": 285.8,
    "scipy/Laplace3D24": 652.6,
    "scipy/UniFlow2D64": 179.6,
}

#: The acceptance-gate configuration: the library-default NumPy reference
#: backend on the larger smoke matrix must beat the pre-PR baseline by this
#: factor (checked against the committed JSON by check_solve_regression.py).
SOLVE_GATE = {"backend": "numpy", "matrix": "Laplace3D24", "min_speedup": 1.25}


def run_solve(out: Optional[pathlib.Path] = None, *, repeats: int = 3) -> pathlib.Path:
    """End-to-end GMRES(50) solve benchmark → BENCH_solve.json.

    For every registered backend and smoke matrix, runs the fp64 GMRES(50)
    solve twice over: *unmetered* (``meter=False`` — the metering fast path,
    raw backend speed) and *metered* (timers active, cost model charged).
    Records best-of-``repeats`` wall seconds and wall µs/iteration.
    Iteration counts are deterministic (bit-identical numerics across the
    out= refactor), so the CI diff can require them to match exactly.
    """
    import numpy as np

    from repro.backends import available_backends
    from repro.matrices import laplace3d, uniflow2d
    from repro.solvers.gmres import gmres

    solve_kwargs = dict(restart=50, tol=1e-8, max_restarts=4, fp64_check=False)
    matrices = [("Laplace3D24", laplace3d(24)), ("UniFlow2D64", uniflow2d(64))]
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for backend in available_backends():
        for label, matrix in matrices:
            b = np.ones(matrix.n_rows)
            for mode in ("unmetered", "metered"):
                with backend_context(backend, meter=(mode == "metered")):
                    result = gmres(matrix, b, **solve_kwargs)  # warm-up
                    best = float("inf")
                    for _ in range(repeats):
                        start = time.perf_counter()
                        result = gmres(matrix, b, **solve_kwargs)
                        best = min(best, time.perf_counter() - start)
                per_iter_us = best / result.iterations * 1e6
                entries.append(
                    {
                        "benchmark": "solve",
                        "backend": backend,
                        "matrix": label,
                        "solver": "gmres(50)",
                        "dtype": "double",
                        "mode": mode,
                        "status": str(result.status),
                        "iterations": result.iterations,
                        "wall_seconds": best,
                        "wall_per_iteration_us": per_iter_us,
                    }
                )
                if mode == "unmetered":
                    key = f"{backend}/{label}"
                    baseline = PRE_PR_BASELINE_US.get(key)
                    if baseline:
                        speedups[key] = baseline / per_iter_us
                print(
                    f"[solve] {backend} {label} {mode}: "
                    f"{result.iterations} iters, {per_iter_us:.1f} us/iter",
                    flush=True,
                )
    summary: Dict[str, object] = {
        "solver": "gmres(50)",
        "dtype": "double",
        "tolerance": solve_kwargs["tol"],
        "repeats": repeats,
        "gate": SOLVE_GATE,
        "pre_pr_baseline_us": dict(PRE_PR_BASELINE_US),
        "unmetered_speedup_vs_pre_pr": speedups,
    }
    path = write_bench_json("solve", entries, summary=summary, out=out)
    print(f"[solve] wrote {path}")
    return path


#: The batched-solve gate: on the default backend, Block-GMRES at block
#: size 8 must stay close to 8 sequential GMRES solves in per-RHS wall
#: time, in the paper's polynomial-preconditioned solver configuration
#: (where iterations are SpMM-dominated — see the README's "Batched
#: multi-RHS solving" subsection).  Since the single-vector SpMV also runs
#: the DIA kernel, an 8-wide SpMM costs about as much as 8 SpMVs, so
#: blocking is near parity: 20 interleaved runs (four invocations) on a
#: 2-vCPU Xeon read 0.99-1.49x.  The threshold sits below every one.
BLOCK_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "config": "poly16",
    "block_size": 8,
    "min_speedup": 0.9,
}

#: (label, polynomial degree or None, sequential restart, block restart)
_BLOCK_CONFIGS = [
    ("poly16", 16, 50, 15),
    ("plain", None, 50, 16),
]


def run_solve_block(
    out: Optional[pathlib.Path] = None,
    *,
    repeats: int = 5,
    grid: int = 32,
    block_size: int = 8,
    tol: float = 1e-8,
) -> pathlib.Path:
    """Batched multi-RHS solve benchmark → BENCH_block.json (with gate).

    For every backend and solver configuration, times ``block_size``
    sequential fp64 GMRES solves against one Block-GMRES solve of the same
    right-hand sides (both unmetered, best-of-``repeats``), verifies the
    block solutions match the sequential ones to solver tolerance, and
    records the per-RHS speedup.  Exits nonzero if the acceptance gate
    configuration (:data:`BLOCK_GATE`) falls below its threshold.
    """
    import numpy as np

    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.solvers import block_gmres, gmres

    matrix = laplace3d(grid)
    label = f"Laplace3D{grid}"
    B = rng(2024).standard_normal((matrix.n_rows, block_size))
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    run_speedups: Dict[str, List[float]] = {}
    parity: Dict[str, float] = {}
    for backend in each_backend():
        for config, degree, seq_restart, blk_restart in _BLOCK_CONFIGS:
            precond = (
                GmresPolynomialPreconditioner(matrix, degree=degree)
                if degree is not None
                else None
            )
            seq_kwargs = dict(
                restart=seq_restart,
                tol=tol,
                max_restarts=10,
                preconditioner=precond,
                fp64_check=True,
            )
            blk_kwargs = dict(
                restart=blk_restart,
                tol=tol,
                max_restarts=60,
                preconditioner=precond,
                fp64_check=True,
            )

            def run_sequential():
                return [gmres(matrix, B[:, c], **seq_kwargs) for c in range(block_size)]

            def run_block():
                return block_gmres(matrix, B, **blk_kwargs)

            # Interleave the sequential and block measurements so machine
            # drift (thermal, noisy neighbours) cancels out of the ratio,
            # as the committed --solve baselines were recorded.  Only the
            # gate configuration earns the full repeat count.
            n_reps = repeats if config == BLOCK_GATE["config"] else 1
            seq_results = run_sequential()  # warm-up (plans, BLAS, caches)
            blk = run_block()  # warm-up
            seq_runs: List[float] = []
            blk_runs: List[float] = []
            for _ in range(n_reps):
                start = time.perf_counter()
                seq_results = run_sequential()
                seq_runs.append(time.perf_counter() - start)
                start = time.perf_counter()
                blk = run_block()
                blk_runs.append(time.perf_counter() - start)
            t_seq = min(seq_runs)
            t_blk = min(blk_runs)

            # Correctness: every column converged on both paths and the
            # block solutions match the sequential ones to solver
            # tolerance (the residual criterion both paths satisfy).
            assert all(r.converged for r in seq_results), (
                f"sequential {backend}/{config} did not converge"
            )
            assert blk.converged, f"block {backend}/{config} did not converge"
            assert float(blk.relative_residuals_fp64.max()) <= tol * 1.01, (
                f"block {backend}/{config} residual above tolerance"
            )
            max_diff = max(
                float(
                    np.linalg.norm(blk.X[:, c] - seq_results[c].x)
                    / np.linalg.norm(seq_results[c].x)
                )
                for c in range(block_size)
            )
            assert max_diff < 1e-5, (
                f"block {backend}/{config} drifted from sequential: {max_diff:.2e}"
            )

            key = f"{backend}/{config}"
            speedups[key] = t_seq / t_blk
            run_speedups[key] = [t_s / t_b for t_s, t_b in zip(seq_runs, blk_runs)]
            parity[key] = max_diff
            common = {
                "benchmark": "solve_block",
                "backend": backend,
                "matrix": label,
                "config": config,
                "dtype": "double",
                "block_size": block_size,
                "tolerance": tol,
            }
            entries.append(
                dict(
                    common,
                    mode="sequential",
                    solver=f"gmres({seq_restart})",
                    wall_seconds=t_seq,
                    run_wall_seconds=seq_runs,
                    per_rhs_wall_seconds=t_seq / block_size,
                    iterations=sum(r.iterations for r in seq_results),
                )
            )
            entries.append(
                dict(
                    common,
                    mode="block",
                    solver=f"block-gmres({blk_restart}x{block_size})",
                    wall_seconds=t_blk,
                    run_wall_seconds=blk_runs,
                    per_rhs_wall_seconds=t_blk / block_size,
                    iterations=int(blk.iterations.max()),
                    block_iterations=blk.block_iterations,
                    max_solution_diff_vs_sequential=max_diff,
                )
            )
            print(
                f"[block] {backend}/{config}: sequential {t_seq * 1e3:.0f} ms, "
                f"block {t_blk * 1e3:.0f} ms -> {t_seq / t_blk:.2f}x per RHS "
                f"(max drift {max_diff:.1e})",
                flush=True,
            )

    summary: Dict[str, object] = {
        "grid": grid,
        "block_size": block_size,
        "tolerance": tol,
        "repeats": repeats,
        "gate": dict(BLOCK_GATE),
        "per_rhs_speedup_block_over_sequential": speedups,
        "per_run_speedup_block_over_sequential": run_speedups,
        "max_solution_diff_vs_sequential": parity,
    }
    path = write_bench_json("block", entries, summary=summary, out=out)
    print(f"[block] wrote {path}")

    gate_key = f"{BLOCK_GATE['backend']}/{BLOCK_GATE['config']}"
    gate_speedup = speedups.get(gate_key, 0.0)
    if gate_speedup < BLOCK_GATE["min_speedup"]:
        print(
            f"[block] FAIL gate: {gate_key} per-RHS speedup "
            f"{gate_speedup:.2f}x < {BLOCK_GATE['min_speedup']}x",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(
        f"[block] gate holds: {gate_key} {gate_speedup:.2f}x >= "
        f"{BLOCK_GATE['min_speedup']}x per RHS"
    )
    return path


#: The serving gate: with >= 8 concurrent clients on the paper's
#: polynomial-preconditioned Laplace3D32 configuration, the batched
#: micro-batching scheduler must serve at least this many times the RHS/s
#: of the unbatched (block width 1) scheduler on the default backend.
#: Batching amortizes little once the single-vector SpMV runs the DIA
#: kernel (see BLOCK_GATE): 20 interleaved runs (four invocations) on a
#: 2-vCPU Xeon read 0.78-1.25x, so the gate only catches batched serving
#: falling well behind.  The threshold sits below every one of them.
SERVE_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "config": "poly16",
    "clients": 8,
    "min_speedup": 0.7,
}

#: (mode label, OperatorSession kwargs).  The unbatched scheduler serves
#: width-1 solves with the single-RHS-tuned restart; the batched scheduler
#: coalesces up to 8 requests with the block-tuned restart — the same two
#: solver configurations BLOCK_GATE compares, now measured *as a service*.
_SERVE_MODES = [
    (
        "unbatched",
        dict(max_block=1, max_wait_ms=0.0, restart=50, max_restarts=10,
             policy="sequential"),
    ),
    (
        "batched",
        dict(max_block=8, max_wait_ms=25.0, restart=15, max_restarts=60,
             policy="block"),
    ),
]


def run_serve(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 32,
    clients: int = 8,
    requests_per_client: int = 3,
    tol: float = 1e-8,
    repeats: int = 5,
) -> pathlib.Path:
    """Solver-service throughput benchmark → BENCH_serve.json (with gate).

    Drives ``clients`` concurrent client threads against one
    :class:`repro.serve.OperatorSession` (each client submits one
    right-hand side at a time and waits for its future — the serving
    workload shape), once with the unbatched width-1 scheduler and once
    with micro-batching enabled, for every registered backend.  Records
    RHS/s and p50/p95 queue-wait/solve/total latency from the service
    telemetry, checks the served results, and enforces :data:`SERVE_GATE`.

    Also asserts the two serving acceptance properties end to end: a
    request served through the unbatched scheduler is *bit-identical* to
    the session's direct ``solve()``, and a batch containing one
    non-finite (diverging) right-hand side still completes its other
    requests.
    """
    import threading

    import numpy as np

    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.serve import OperatorSession

    matrix = laplace3d(grid)
    label = f"Laplace3D{grid}"
    precond = GmresPolynomialPreconditioner(matrix, degree=16)
    total = clients * requests_per_client
    B = rng(2026).standard_normal((matrix.n_rows, total))
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    run_speedups: Dict[str, List[float]] = {}

    for backend in each_backend():

        def drive_clients(session, mode):
            """Run the client fleet once; returns the wall seconds."""
            errors: List[BaseException] = []

            def client(c):
                try:
                    for j in range(requests_per_client):
                        idx = c * requests_per_client + j
                        result = session.submit(B[:, idx]).result(timeout=600)
                        assert result.converged, (
                            f"request {idx} ended {result.status}"
                        )
                        assert result.relative_residual_fp64 <= tol * 1.01
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(c,), name=f"client-{c}")
                for c in range(clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            if errors:
                raise SystemExit(
                    f"[serve] {backend}/{mode}: client errors: {errors[:3]}"
                )
            return wall

        # Interleave the unbatched and batched measurements across repeats
        # so machine drift cancels out of the throughput ratio (the same
        # discipline the --solve-block gate uses); keep each mode's best.
        best: Dict[str, tuple] = {}
        walls: Dict[str, List[float]] = {}
        for _ in range(max(1, repeats)):
            for mode, session_kwargs in _SERVE_MODES:
                session = OperatorSession(
                    matrix, preconditioner=precond, tol=tol, **session_kwargs
                )
                try:
                    # Warm both dispatch widths through the telemetry-free
                    # direct path so the timed window measures steady state.
                    session.solve(B[:, 0])
                    if session.max_block > 1:
                        session.solve_many(B[:, : session.max_block])
                    wall = drive_clients(session, mode)
                    stats = session.stats()

                    # Bit-parity acceptance: unbatched served == direct.
                    if mode == "unbatched":
                        served = session.submit(B[:, 0]).result(timeout=600)
                        direct = session.solve(B[:, 0])
                        assert np.array_equal(served.x, direct.x), (
                            f"[serve] {backend}: served result drifted from "
                            "the direct solve path"
                        )
                    # Divergence isolation: a NaN request fails alone while
                    # the good requests sharing the window complete.
                    if mode == "batched":
                        good = [session.submit(B[:, c]) for c in range(3)]
                        bad = session.submit(np.full(matrix.n_rows, np.nan))
                        assert all(g.result(timeout=600).converged for g in good)
                        try:
                            bad.result(timeout=600)
                            raise SystemExit(
                                f"[serve] {backend}: non-finite request "
                                "did not fail"
                            )
                        except ValueError:
                            pass
                finally:
                    session.close()
                assert stats.requests_completed >= total
                walls.setdefault(mode, []).append(wall)
                if mode not in best or wall < best[mode][0]:
                    best[mode] = (wall, stats)

        throughput: Dict[str, float] = {}
        for mode, session_kwargs in _SERVE_MODES:
            wall, stats = best[mode]
            rps = total / wall
            throughput[mode] = rps
            entries.append(
                {
                    "benchmark": "serve",
                    "backend": backend,
                    "matrix": label,
                    "config": "poly16",
                    "dtype": "double",
                    "mode": mode,
                    "clients": clients,
                    "requests": total,
                    "tolerance": tol,
                    "max_block": session_kwargs["max_block"],
                    "max_wait_ms": session_kwargs["max_wait_ms"],
                    "restart": session_kwargs["restart"],
                    "wall_seconds": wall,
                    "run_wall_seconds": walls[mode],
                    "rhs_per_second": rps,
                    "queue_wait_p50_ms": stats.queue_wait.p50_ms,
                    "queue_wait_p95_ms": stats.queue_wait.p95_ms,
                    "solve_p50_ms": stats.solve.p50_ms,
                    "solve_p95_ms": stats.solve.p95_ms,
                    "latency_p50_ms": stats.latency.p50_ms,
                    "latency_p95_ms": stats.latency.p95_ms,
                    "mean_batch_occupancy": stats.mean_batch_occupancy,
                    "batch_occupancy": {
                        str(k): v for k, v in sorted(stats.batch_occupancy.items())
                    },
                    "block_iterations": stats.block_iterations,
                }
            )
            print(
                f"[serve] {backend}/{mode}: {total} requests from {clients} "
                f"clients in {wall:.2f} s -> {rps:.1f} RHS/s "
                f"(latency p50 {stats.latency.p50_ms:.0f} ms / "
                f"p95 {stats.latency.p95_ms:.0f} ms, mean occupancy "
                f"{stats.mean_batch_occupancy:.1f})",
                flush=True,
            )
        speedups[backend] = throughput["batched"] / throughput["unbatched"]
        run_speedups[backend] = [
            t_u / t_b for t_u, t_b in zip(walls["unbatched"], walls["batched"])
        ]
        print(
            f"[serve] {backend}: batched/unbatched throughput "
            f"{speedups[backend]:.2f}x",
            flush=True,
        )

    summary: Dict[str, object] = {
        "grid": grid,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "tolerance": tol,
        "repeats": repeats,
        "gate": dict(SERVE_GATE),
        "throughput_speedup_batched_over_unbatched": speedups,
        "per_run_speedup_batched_over_unbatched": run_speedups,
    }
    path = write_bench_json("serve", entries, summary=summary, out=out)
    print(f"[serve] wrote {path}")

    gate_speedup = speedups.get(SERVE_GATE["backend"], 0.0)
    if gate_speedup < SERVE_GATE["min_speedup"]:
        print(
            f"[serve] FAIL gate: {SERVE_GATE['backend']} batched serving "
            f"{gate_speedup:.2f}x < {SERVE_GATE['min_speedup']}x RHS/s",
            file=sys.stderr,
        )
        raise SystemExit(1)
    print(
        f"[serve] gate holds: {SERVE_GATE['backend']} batched serving "
        f"{gate_speedup:.2f}x >= {SERVE_GATE['min_speedup']}x RHS/s"
    )
    return path


#: The observability overhead gate, checked on the reference backend
#: against the same workload shape as the ``--serve`` batched mode:
#: with tracing *disabled* (the default: metrics collectors only) the
#: serving throughput must stay within ``max_untraced_cost`` of the
#: obs-free baseline, and with tracing *enabled* within
#: ``max_traced_cost`` — observability must be cheap when off and
#: affordable when on.
OBS_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "max_untraced_cost": 0.02,
    "max_sampled_cost": 0.02,
    "max_traced_cost": 0.10,
}

#: The instrumentation states the overhead benchmark interleaves.
_OBS_VARIANTS = ("baseline", "untraced", "sampled", "traced")


def run_obs(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 32,
    clients: int = 8,
    requests_per_client: int = 3,
    tol: float = 1e-8,
    repeats: int = 6,
    trace_out: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Observability overhead benchmark → BENCH_obs.json (with gate).

    Replays the ``--serve`` batched client mix (``clients`` threads, one
    in-flight request each) against three identically configured sessions
    that differ only in instrumentation:

    * ``baseline`` — :meth:`repro.obs.Observability.disabled`: no tracer,
      no metrics registry (the PR-8 state);
    * ``untraced`` — metrics collectors registered, tracing off (the
      library default);
    * ``sampled`` — adaptive tracing (:class:`repro.obs.Sampler`, 10%
      head rate + tail keep): the always-on production configuration;
    * ``traced`` — a live :class:`repro.obs.Tracer` spanning every
      request plus solver probes, with metrics on.

    The variants are interleaved across ``repeats`` and each keeps its
    best wall time, so machine drift cancels out of the overhead ratios.
    The traced run's span ledger must reconcile with the service
    telemetry (one ``request`` root per submitted request,
    ``submitted == completed + failed``); its Chrome trace-event export
    is written next to the JSON (``TRACE_obs.json``) and the gate
    (:data:`OBS_GATE`) bounds both overhead ratios on the reference
    backend.
    """
    import threading

    import numpy as np

    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.obs import (
        MetricsRegistry,
        Observability,
        Sampler,
        Tracer,
        export_chrome_trace,
        prometheus_text,
    )
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.serve import OperatorSession

    matrix = laplace3d(grid)
    label = f"Laplace3D{grid}"
    precond = GmresPolynomialPreconditioner(matrix, degree=16)
    total = clients * requests_per_client
    B = rng(2026).standard_normal((matrix.n_rows, total))
    session_kwargs = dict(_SERVE_MODES[1][1])  # the batched serving config
    entries: List[Dict[str, object]] = []
    costs: Dict[str, Dict[str, float]] = {}
    trace_path = trace_out or (RESULTS_DIR / "TRACE_obs.json")

    def make_obs(variant: str) -> "Observability":
        if variant == "baseline":
            return Observability.disabled()
        if variant == "untraced":
            return Observability(tracer=None, registry=MetricsRegistry())
        if variant == "sampled":
            return Observability(
                tracer=Tracer(sampler=Sampler(head_rate=0.1, tail_keep=True)),
                registry=MetricsRegistry(),
            )
        return Observability(
            tracer=Tracer(), registry=MetricsRegistry()
        )

    for backend in each_backend():

        def drive_clients(session):
            errors: List[BaseException] = []

            def client(c):
                try:
                    for j in range(requests_per_client):
                        idx = c * requests_per_client + j
                        result = session.submit(B[:, idx]).result(timeout=600)
                        assert result.converged, (
                            f"request {idx} ended {result.status}"
                        )
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(c,), name=f"client-{c}")
                for c in range(clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            if errors:
                raise SystemExit(f"[obs] {backend}: client errors: {errors[:3]}")
            return wall

        best: Dict[str, tuple] = {}
        for _ in range(max(1, repeats)):
            for variant in _OBS_VARIANTS:
                obs = make_obs(variant)
                session = OperatorSession(
                    matrix, preconditioner=precond, tol=tol, obs=obs,
                    **session_kwargs,
                )
                try:
                    session.solve(B[:, 0])
                    session.solve_many(B[:, : session.max_block])
                    wall = drive_clients(session)
                    stats = session.stats()
                    # Scrape before close: a closed session's collector
                    # retires itself and drops its series.
                    scrape = (
                        prometheus_text(obs.registry)
                        if obs.registry is not None
                        else ""
                    )
                finally:
                    session.close()
                assert stats.requests_completed >= total
                if variant == "traced":
                    # Span ledger reconciles with the service telemetry.
                    tracer = obs.tracer
                    assert tracer.open_spans == 0, "span leak under load"
                    roots = [
                        s for s in tracer.finished_spans()
                        if s.name == "request"
                    ]
                    dropped = tracer.dropped_spans
                    if dropped == 0 and len(roots) != stats.requests_submitted:
                        raise SystemExit(
                            f"[obs] {backend}: {len(roots)} request spans != "
                            f"{stats.requests_submitted} submitted requests"
                        )
                    if stats.requests_submitted != (
                        stats.requests_completed + stats.requests_failed
                    ):
                        raise SystemExit(f"[obs] {backend}: telemetry skew")
                if variant == "sampled":
                    # Sampled ledger reconciles: every request either left
                    # a kept root or was counted sampled-out — and with an
                    # all-converged workload the kept set is the head
                    # stride plus the tail's slowest-decile keeps.
                    tracer = obs.tracer
                    assert tracer.open_spans == 0, "span leak under sampling"
                    roots = [
                        s for s in tracer.finished_spans()
                        if s.parent_id is None and s.name == "request"
                    ]
                    if tracer.dropped_spans == 0 and (
                        len(roots) + tracer.sampled_out_traces
                        != stats.requests_submitted
                    ):
                        raise SystemExit(
                            f"[obs] {backend}: sampled ledger skew: "
                            f"{len(roots)} kept + {tracer.sampled_out_traces} "
                            f"dropped != {stats.requests_submitted} submitted"
                        )
                    bad = [
                        s for s in roots
                        if s.attrs.get("outcome") not in ("converged", "cancelled")
                        and s.attrs.get("sampled") == "tail"
                    ]
                    if stats.requests_failed and not bad:
                        raise SystemExit(
                            f"[obs] {backend}: failed requests were sampled out"
                        )
                if variant == "untraced":
                    # The collectors actually publish on scrape.
                    if "repro_requests_submitted_total" not in scrape:
                        raise SystemExit(
                            f"[obs] {backend}: metrics collector silent"
                        )
                if variant not in best or wall < best[variant][0]:
                    best[variant] = (wall, stats, obs)

        baseline_rps = total / best["baseline"][0]
        costs[backend] = {}
        for variant in _OBS_VARIANTS:
            wall, stats, obs = best[variant]
            rps = total / wall
            cost = 1.0 - rps / baseline_rps
            if variant != "baseline":
                costs[backend][variant] = cost
            entry: Dict[str, object] = {
                "benchmark": "obs",
                "backend": backend,
                "matrix": label,
                "config": "poly16",
                "dtype": "double",
                "variant": variant,
                "clients": clients,
                "requests": total,
                "tolerance": tol,
                "max_block": session_kwargs["max_block"],
                "wall_seconds": wall,
                "rhs_per_second": rps,
                "throughput_cost_vs_baseline": max(0.0, cost),
                "latency_p50_ms": stats.latency.p50_ms,
                "latency_p95_ms": stats.latency.p95_ms,
            }
            if variant == "traced":
                tracer = best["traced"][2].tracer
                entry["finished_spans"] = len(tracer.finished_spans())
                entry["dropped_spans"] = tracer.dropped_spans
            if variant == "sampled":
                tracer = best["sampled"][2].tracer
                entry["finished_spans"] = len(tracer.finished_spans())
                entry["sampled_out_traces"] = tracer.sampled_out_traces
                entry["head_rate"] = tracer.sampler.head_rate
            entries.append(entry)
            print(
                f"[obs] {backend}/{variant}: {total} requests in "
                f"{wall:.2f} s -> {rps:.1f} RHS/s"
                + (
                    f" ({100 * cost:+.1f}% vs baseline)"
                    if variant != "baseline"
                    else ""
                ),
                flush=True,
            )

        if backend == OBS_GATE["backend"]:
            # Export the reference backend's traced run for Perfetto.
            tracer = best["traced"][2].tracer
            payload = export_chrome_trace(trace_path, tracer=tracer)
            print(
                f"[obs] wrote {trace_path} "
                f"({len(payload['traceEvents'])} trace events)"
            )

    summary: Dict[str, object] = {
        "grid": grid,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "tolerance": tol,
        "gate": dict(OBS_GATE),
        "throughput_cost_vs_baseline": costs,
        "chrome_trace": trace_path.name,
    }
    path = write_bench_json("obs", entries, summary=summary, out=out)
    print(f"[obs] wrote {path}")

    gate_costs = costs.get(OBS_GATE["backend"], {})
    failures = []
    if gate_costs.get("untraced", 1.0) > OBS_GATE["max_untraced_cost"]:
        failures.append(
            f"metrics-only serving cost {100 * gate_costs.get('untraced', 1.0):.1f}% "
            f"> {100 * OBS_GATE['max_untraced_cost']:.0f}% RHS/s"
        )
    if gate_costs.get("sampled", 1.0) > OBS_GATE["max_sampled_cost"]:
        failures.append(
            f"sampled tracing cost {100 * gate_costs.get('sampled', 1.0):.1f}% "
            f"> {100 * OBS_GATE['max_sampled_cost']:.0f}% RHS/s"
        )
    if gate_costs.get("traced", 1.0) > OBS_GATE["max_traced_cost"]:
        failures.append(
            f"traced serving cost {100 * gate_costs.get('traced', 1.0):.1f}% "
            f"> {100 * OBS_GATE['max_traced_cost']:.0f}% RHS/s"
        )
    if failures:
        for failure in failures:
            print(f"[obs] FAIL gate ({OBS_GATE['backend']}): {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"[obs] gate holds on {OBS_GATE['backend']}: tracing off "
        f"{100 * gate_costs.get('untraced', 0.0):+.1f}%, sampled "
        f"{100 * gate_costs.get('sampled', 0.0):+.1f}%, tracing on "
        f"{100 * gate_costs.get('traced', 0.0):+.1f}% RHS/s vs baseline"
    )
    return path


#: The solver-farm acceptance gate, checked on the reference backend:
#: with ``operators`` tenants sharing ``max_sessions`` warm-session slots
#: under a skewed traffic mix (one hot tenant submitting ~half the fleet's
#: requests), the farm must (a) beat the naive one-session-at-a-time
#: baseline by ``min_fleet_speedup`` in fleet RHS/s, (b) keep every cold
#: tenant's p95 latency within ``max_cold_p95_degradation`` of the same
#: tenant served alone (no noisy-neighbour starvation), and (c) actually
#: exercise eviction/re-warm churn (``min_evictions``).
FARM_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D16",
    "operators": 8,
    "max_sessions": 6,
    "min_fleet_speedup": 1.5,
    "max_cold_p95_degradation": 3.0,
    "min_evictions": 1,
}


def run_farm(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 16,
    operators: int = 8,
    max_sessions: int = 6,
    workers: int = 3,
    hot_requests: int = 24,
    cold_requests: int = 4,
    tol: float = 1e-8,
    repeats: int = 3,
) -> pathlib.Path:
    """Multi-tenant solver-farm benchmark → BENCH_farm.json (with gate).

    The workload is a skewed multi-tenant mix: ``operators`` operators
    (same Laplace3D system, independently registered and warmed — the
    serving cost structure, not the numerics, is under test), where tenant
    0 is *hot* (``hot_requests`` submissions) and the rest are cold
    (``cold_requests`` each).  Three measurements per backend:

    * **farm** — every tenant drives its requests concurrently through one
      :class:`repro.serve.SolverFarm` with ``max_sessions < operators``,
      so the run includes LRU eviction and transparent re-warm;
    * **naive** — the no-farm alternative: the same trace served
      sequentially with a single warm :class:`OperatorSession` at a time,
      rebuilt on every operator switch;
    * **cold-only** — the cold tenants served concurrently through an
      identical farm *without* the hot tenant: the per-tenant p95 latency
      baseline that isolates exactly the hot neighbour's impact for the
      noisy-neighbour check (cold-vs-cold contention is present in both
      runs and cancels out of the ratio).

    Farm and naive measurements are interleaved across ``repeats`` so
    machine drift cancels out of the throughput ratio; each tenant's best
    p95 across the contended repeats is compared against its cold-only
    baseline.  Enforces :data:`FARM_GATE` on the reference backend.
    """
    import threading

    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.serve import OperatorSession, SolverFarm

    label = f"Laplace3D{grid}"
    keys = [f"op{i}" for i in range(operators)]
    hot = keys[0]
    counts = {k: (hot_requests if k == hot else cold_requests) for k in keys}
    total = sum(counts.values())
    # One matrix and one preconditioner instance *per operator*, as a
    # deployment of distinct operators would register them; the identical
    # spectra here just keep the per-request work uniform across tenants.
    # Setup cost is paid outside any timed window, as a deployment pays
    # it at registration time.
    matrices = {k: laplace3d(grid) for k in keys}
    matrix = matrices[keys[0]]
    preconds = {
        k: GmresPolynomialPreconditioner(matrices[k], degree=16) for k in keys
    }
    session_kwargs = dict(
        restart=10,
        tol=tol,
        max_restarts=60,
    )
    # Per-operator batching width, as a deployment would tune it: the hot
    # tenant coalesces to 8-wide blocks, the cold tenants' full burst is
    # exactly one 4-wide block (so a burst dispatches immediately instead
    # of waiting out the micro-batch window for stragglers).
    max_blocks = {k: (8 if k == hot else 4) for k in keys}
    B = {
        k: rng(3000 + i).standard_normal((matrix.n_rows, counts[k]))
        for i, k in enumerate(keys)
    }

    # The naive baseline replays this deterministic trace: hot bursts of 4
    # interleaved with one request from each cold tenant — the arrival
    # pattern the farm's clients also approximate.
    trace: List[tuple] = []
    remaining = dict(counts)
    while any(remaining.values()):
        for _ in range(4):
            if remaining[hot]:
                trace.append((hot, counts[hot] - remaining[hot]))
                remaining[hot] -= 1
        for k in keys[1:]:
            if remaining[k]:
                trace.append((k, counts[k] - remaining[k]))
                remaining[k] -= 1
    assert len(trace) == total

    entries: List[Dict[str, object]] = []
    summary_speedups: Dict[str, float] = {}
    summary_p95: Dict[str, float] = {}
    summary_evictions: Dict[str, int] = {}

    for backend in each_backend():

        def run_naive() -> tuple:
            """One warm session at a time, rebuilt on every operator switch."""
            start = time.perf_counter()
            current: Optional[str] = None
            session: Optional[OperatorSession] = None
            switches = 0
            try:
                for key, idx in trace:
                    if key != current:
                        if session is not None:
                            session.close()
                        session = OperatorSession(
                            matrices[key],
                            name=f"naive-{key}",
                            preconditioner=preconds[key],
                            max_block=max_blocks[key],
                            **session_kwargs,
                        )
                        current, switches = key, switches + 1
                    result = session.solve(B[key][:, idx])
                    assert result.converged, f"naive {key}[{idx}] {result.status}"
            finally:
                if session is not None:
                    session.close()
            return time.perf_counter() - start, switches

        def run_fleet(selected: List[str]) -> tuple:
            """Drive ``selected`` tenants concurrently through one farm."""
            farm = SolverFarm(
                max_sessions=max_sessions,
                workers=workers,
                queue_depth=max(128, hot_requests * 2),
                fairness="weighted",
                max_wait_ms=2.0,
                name="bench",
            )
            for k in selected:
                farm.register(
                    k,
                    matrices[k],
                    preconditioner=preconds[k],
                    max_block=max_blocks[k],
                    **session_kwargs,
                )
            errors: List[tuple] = []

            def client(k: str) -> None:
                try:
                    futures = [
                        farm.submit(k, B[k][:, j]) for j in range(counts[k])
                    ]
                    for j, f in enumerate(futures):
                        result = f.result(timeout=600)
                        assert result.converged, f"{k}[{j}] {result.status}"
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append((k, exc))

            threads = [
                threading.Thread(target=client, args=(k,), name=f"tenant-{k}")
                for k in selected
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            stats = farm.stats()
            farm.close()
            if errors:
                raise SystemExit(f"[farm] {backend}: tenant errors: {errors[:3]}")
            return wall, stats

        # Hot-free baseline first (per-cold-tenant p95 without the noisy
        # neighbour), then the contended farm and naive runs interleaved
        # across repeats.
        baseline_p95: Dict[str, float] = {}
        for _ in range(max(1, repeats)):
            _, cold_stats = run_fleet(keys[1:])
            for k in keys[1:]:
                p95 = cold_stats.tenants[k].serve.latency.p95_ms
                baseline_p95[k] = min(baseline_p95.get(k, float("inf")), p95)
        best_farm: Optional[tuple] = None
        best_naive = float("inf")
        naive_switches = 0
        cold_best_p95: Dict[str, float] = {}
        for _ in range(max(1, repeats)):
            wall, stats = run_fleet(keys)
            if best_farm is None or wall < best_farm[0]:
                best_farm = (wall, stats)
            for k in keys[1:]:
                p95 = stats.tenants[k].serve.latency.p95_ms
                cold_best_p95[k] = min(cold_best_p95.get(k, float("inf")), p95)
            naive_wall, naive_switches = run_naive()
            best_naive = min(best_naive, naive_wall)

        farm_wall, farm_stats = best_farm
        # Fault-tolerance quiescence gate: a healthy benchmark load must
        # not leak requests (submitted == completed + failed) nor trigger
        # any of the failure machinery — deadlines, cancellations and
        # breaker trips all belong to chaos runs, not this one.
        fleet = farm_stats.fleet
        if fleet.requests_submitted != (
            fleet.requests_completed + fleet.requests_failed
        ):
            raise SystemExit(
                f"[farm] {backend}: telemetry does not reconcile: "
                f"{fleet.requests_submitted} submitted != "
                f"{fleet.requests_completed} completed + "
                f"{fleet.requests_failed} failed"
            )
        if (
            fleet.requests_timed_out
            or fleet.requests_cancelled
            or farm_stats.breaker_trips
        ):
            raise SystemExit(
                f"[farm] {backend}: spurious failure-path activity under "
                f"healthy load: timed_out={fleet.requests_timed_out} "
                f"cancelled={fleet.requests_cancelled} "
                f"breaker_trips={farm_stats.breaker_trips}"
            )
        farm_rps = total / farm_wall
        naive_rps = total / best_naive
        speedup = farm_rps / naive_rps
        worst_ratio = max(
            (cold_best_p95[k] / baseline_p95[k] if baseline_p95[k] > 0 else 0.0)
            for k in keys[1:]
        )
        summary_speedups[backend] = speedup
        summary_p95[backend] = worst_ratio
        summary_evictions[backend] = farm_stats.evictions

        common = {
            "benchmark": "farm",
            "backend": backend,
            "matrix": label,
            "config": "poly16",
            "dtype": "double",
            "operators": operators,
            "max_sessions": max_sessions,
            "workers": workers,
            "requests": total,
            "tolerance": tol,
        }
        entries.append(
            dict(
                common,
                mode="naive",
                wall_seconds=best_naive,
                rhs_per_second=naive_rps,
                session_rebuilds=naive_switches,
            )
        )
        entries.append(
            dict(
                common,
                mode="farm",
                wall_seconds=farm_wall,
                rhs_per_second=farm_rps,
                fleet_speedup_vs_naive=speedup,
                evictions=farm_stats.evictions,
                sessions_created=farm_stats.sessions_created,
                sessions_live=farm_stats.sessions_live,
                latency_p50_ms=farm_stats.fleet.latency.p50_ms,
                latency_p95_ms=farm_stats.fleet.latency.p95_ms,
                worst_cold_p95_degradation=worst_ratio,
                requests_timed_out=fleet.requests_timed_out,
                requests_cancelled=fleet.requests_cancelled,
                breaker_trips=farm_stats.breaker_trips,
            )
        )
        for k in keys:
            tenant = farm_stats.tenants[k]
            entries.append(
                dict(
                    common,
                    mode="farm_tenant",
                    tenant=k,
                    role="hot" if k == hot else "cold",
                    requests=tenant.serve.requests_completed,
                    fairness_share=tenant.fairness_share,
                    expected_share=tenant.expected_share,
                    evictions=tenant.evictions,
                    queue_wait_p95_ms=tenant.serve.queue_wait.p95_ms,
                    latency_p50_ms=tenant.serve.latency.p50_ms,
                    latency_p95_ms=tenant.serve.latency.p95_ms,
                    hot_free_latency_p95_ms=baseline_p95.get(k),
                )
            )
        print(
            f"[farm] {backend}: {total} requests / {operators} operators -> "
            f"farm {farm_rps:.1f} RHS/s vs naive {naive_rps:.1f} RHS/s "
            f"({speedup:.2f}x), evictions {farm_stats.evictions}, "
            f"worst cold p95 {worst_ratio:.2f}x its hot-free baseline",
            flush=True,
        )

    summary: Dict[str, object] = {
        "grid": grid,
        "operators": operators,
        "max_sessions": max_sessions,
        "workers": workers,
        "hot_requests": hot_requests,
        "cold_requests": cold_requests,
        "tolerance": tol,
        "repeats": repeats,
        "gate": dict(FARM_GATE),
        "fleet_speedup_farm_over_naive": summary_speedups,
        "worst_cold_p95_degradation": summary_p95,
        "evictions": summary_evictions,
    }
    path = write_bench_json("farm", entries, summary=summary, out=out)
    print(f"[farm] wrote {path}")

    gate_backend = FARM_GATE["backend"]
    failures = []
    if summary_speedups.get(gate_backend, 0.0) < FARM_GATE["min_fleet_speedup"]:
        failures.append(
            f"fleet speedup {summary_speedups.get(gate_backend, 0.0):.2f}x "
            f"< {FARM_GATE['min_fleet_speedup']}x vs naive"
        )
    if summary_p95.get(gate_backend, float("inf")) > FARM_GATE["max_cold_p95_degradation"]:
        failures.append(
            f"cold-tenant p95 degraded {summary_p95.get(gate_backend, 0.0):.2f}x "
            f"> {FARM_GATE['max_cold_p95_degradation']}x by the hot neighbour"
        )
    if summary_evictions.get(gate_backend, 0) < FARM_GATE["min_evictions"]:
        failures.append("no session evictions observed (LRU churn not exercised)")
    if failures:
        for failure in failures:
            print(f"[farm] FAIL gate ({gate_backend}): {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"[farm] gate holds on {gate_backend}: "
        f"{summary_speedups[gate_backend]:.2f}x fleet RHS/s, cold p95 "
        f"{summary_p95[gate_backend]:.2f}x solo, "
        f"{summary_evictions[gate_backend]} evictions"
    )
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark harness CLI")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the scaled-down fig1/fig5 smoke benchmark (BENCH_smoke.json)",
    )
    parser.add_argument(
        "--backends",
        action="store_true",
        help="run the kernel-backend comparison (BENCH_backends.json)",
    )
    parser.add_argument(
        "--solve",
        action="store_true",
        help="run the end-to-end GMRES(50) solve benchmark (BENCH_solve.json)",
    )
    parser.add_argument(
        "--solve-block",
        action="store_true",
        help="run the batched multi-RHS solve benchmark with its >=0.9x "
        "per-RHS gate (BENCH_block.json)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the solver-service throughput benchmark with its >=0.7x "
        "batched-vs-unbatched RHS/s gate (BENCH_serve.json)",
    )
    parser.add_argument(
        "--farm",
        action="store_true",
        help="run the multi-tenant solver-farm benchmark with its >=1.5x "
        "fleet-RHS/s + noisy-neighbour + eviction gate (BENCH_farm.json)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="run the observability overhead benchmark (tracing off / "
        "sampled / fully on vs no-obs baseline, <2%%/<2%%/<10%% RHS/s "
        "gates) and emit BENCH_obs.json plus the Chrome trace artifact "
        "TRACE_obs.json",
    )
    parser.add_argument(
        "--grid", type=int, default=64, help="Laplace3D grid for --backends"
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent client threads for --serve",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="override the output path (only valid with exactly one mode)",
    )
    args = parser.parse_args(argv)
    modes = [
        args.smoke,
        args.backends,
        args.solve,
        args.solve_block,
        args.serve,
        args.farm,
        args.obs,
    ]
    if not any(modes):
        parser.error(
            "choose at least one of --smoke / --backends / --solve / "
            "--solve-block / --serve / --farm / --obs"
        )
    if args.out is not None and sum(modes) > 1:
        parser.error("--out is ambiguous with more than one mode")
    if args.smoke:
        run_smoke(out=args.out)
    if args.backends:
        run_backend_comparison(args.grid, out=args.out)
    if args.solve:
        run_solve(out=args.out)
    if args.solve_block:
        run_solve_block(out=args.out)
    if args.serve:
        run_serve(out=args.out, clients=args.clients)
    if args.farm:
        run_farm(out=args.out)
    if args.obs:
        run_obs(out=args.out, clients=args.clients)
    return 0


if __name__ == "__main__":
    sys.exit(main())
