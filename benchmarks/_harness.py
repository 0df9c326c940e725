"""Helpers shared by the benchmark modules (kept out of conftest so the
benchmark files can import them explicitly), and the benchmark CLI.

Besides the pytest-benchmark glue (:func:`run_once`) and the pinned
execution contexts every solver-level measurement runs in
(:func:`backend_context` / :func:`each_backend`), this module writes the
machine-readable records CI reads: :func:`write_bench_json` writes a
``BENCH_<name>.json`` file (schema tag, environment stamps, an optional
summary block and one entry per measured configuration, tagged with
backend, matrix and dtype so perf trajectories can be diffed across
commits); :func:`timer_entries` flattens a kernel timer into entries.

Every timed mode measures through one core:

* **interleaved repeats** — :func:`interleave` runs the legs of a
  comparison in the same order on every repeat, so machine drift cancels
  out of their ratios; a leg returns ``(wall, result)``, timed over its
  whole call by :func:`timed` unless it times its own window.  Every
  mode's statistic is the best wall of its repeats (:func:`best`;
  :func:`best_of` for a single leg);
* **client fleet** — :func:`drive_clients` runs one thread per client,
  named ``client-<i>`` or ``tenant-<key>`` (the names show up in
  ``TRACE_obs.json``), returns the fleet's wall seconds and raises
  ``SystemExit`` with the first client errors;
* **gate report** — a gated mode writes its JSON first, then
  :func:`report_gate` prints one ``FAIL gate`` line per violated bound
  to stderr and exits 1, or prints the ``gate holds`` line.  Every gate
  is checked on the reference (``numpy``) backend.

The modes, ``python benchmarks/_harness.py --<mode>`` (``--out PATH``
overrides the output file when exactly one mode runs):

* ``--smoke`` runs scaled-down Figure 1 and Figure 5 configurations
  (< 2 minutes) → ``BENCH_smoke.json``, per-kernel wall and modelled
  seconds (the CI smoke-benchmark job uploads it as an artifact);
* ``--backends`` times every registered kernel backend, and the plan-free
  reference SpMV, on the ``--grid`` Laplace3D SpMV/SpMM (64³ is the
  acceptance configuration), best of 7 → ``BENCH_backends.json`` with
  the measured speedups;
* ``--solve`` times the end-to-end unmetered and metered fp64 GMRES(50)
  solve on the smoke matrices for every backend, best of 3 after a
  warm-up → ``BENCH_solve.json``.  The summary records the pre-PR
  per-iteration baseline and the speedup against it;
  ``benchmarks/check_solve_regression.py`` diffs a fresh run against the
  committed file in CI (:data:`SOLVE_GATE`);
* ``--solve-block`` interleaves 8 sequential GMRES solves with one
  Block-GMRES solve of the same right-hand sides (both backends, plain
  and polynomial-preconditioned; only the gate configuration earns the 5
  repeats) → ``BENCH_block.json`` with every run.  Gate
  :data:`BLOCK_GATE`, plus the block-vs-sequential parity check;
* ``--serve`` drives 8 clients (``--clients``) against one
  :class:`repro.serve.OperatorSession`, the unbatched width-1 scheduler
  interleaved with the micro-batching one, best of 5 →
  ``BENCH_serve.json`` with RHS/s and p50/p95 queue-wait/solve/total
  latency.  Gate :data:`SERVE_GATE`, plus bit-parity (served == direct
  solve) and divergence isolation;
* ``--obs`` replays the ``--serve`` batched workload with obs off
  (baseline), metrics only (the default), adaptive sampling (10% head +
  tail keep) and full tracing + solver probes, best of 6 →
  ``BENCH_obs.json`` and the traced run's Chrome trace ``TRACE_obs.json``
  (chrome://tracing / Perfetto; with ``--out PATH`` the trace goes to
  ``TRACE_obs_fresh.json`` beside ``PATH``).  Gate :data:`OBS_GATE`,
  plus span ledgers that reconcile with the service telemetry;
* ``--farm`` replays a skewed 8-operator mix (one hot tenant, seven cold
  ones) through a :class:`repro.serve.SolverFarm` with fewer session
  slots than operators, so LRU eviction and re-warm are measured,
  interleaved with the naive baseline (one warm session at a time,
  rebuilt on every operator switch, requests solved sequentially), best
  of 3, after a hot-free run of the cold tenants alone →
  ``BENCH_farm.json`` with fleet RHS/s, per-tenant p50/p95 latency,
  fairness shares and evictions.  Gate :data:`FARM_GATE`, plus a
  reconciling, failure-free fleet ledger.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One timed run of a leg: (wall seconds, what the leg returned).
Run = Tuple[float, object]


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
# measurement core (shared by every timed mode)                          #
# ---------------------------------------------------------------------- #
def timed(func: Callable[[], object]) -> Run:
    """Call ``func`` once; return ``(wall seconds of the call, its result)``."""
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def interleave(legs: Dict[str, Callable[[], Run]], repeats: int) -> Dict[str, List[Run]]:
    """Run every leg, in the order given, on each of ``repeats`` repeats.

    Each leg returns its own ``(wall, result)`` (see :func:`timed`), so a
    leg that sets up state outside its timed window can leave it out.
    Returns each leg's runs in repeat order.
    """
    runs: Dict[str, List[Run]] = {name: [] for name in legs}
    for _ in range(max(1, repeats)):
        for name, leg in legs.items():
            runs[name].append(leg())
    return runs


def best(runs: List[Run]) -> Run:
    """The fastest run of a leg (the earliest one on a tie)."""
    return min(runs, key=lambda run: run[0])


def walls(runs: List[Run]) -> List[float]:
    """The wall seconds of a leg's runs, in repeat order."""
    return [wall for wall, _ in runs]


def best_of(func: Callable[[], object], repeats: int) -> Run:
    """Best ``(wall, result)`` of ``repeats`` whole calls of ``func``."""
    return best(interleave({"": lambda: timed(func)}, repeats)[""])


def drive_clients(
    work: Callable[[object], None], clients: Iterable, prefix: str, *, tag: str
) -> float:
    """Run ``work(c)`` on one thread per client ``c``, named ``prefix-c``.

    Returns the wall seconds from the first start to the last join.
    Raises ``SystemExit`` naming the first (up to three) client errors.
    """
    errors: List[tuple] = []

    def client(c) -> None:
        try:
            work(c)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((c, exc))

    threads = [
        threading.Thread(target=client, args=(c,), name=f"{prefix}-{c}") for c in clients
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise SystemExit(f"{tag}: client errors: {errors[:3]}")
    return wall


def report_gate(tag: str, backend: str, failures: List[str], holds: str) -> None:
    """Print one ``FAIL gate`` line per failure to stderr and exit 1, or
    print the ``gate holds`` line when there is none."""
    for failure in failures:
        print(f"[{tag}] FAIL gate ({backend}): {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    print(f"[{tag}] gate holds on {backend}: {holds}")


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


def _written(name: str, entries, summary=None, out=None) -> pathlib.Path:
    """:func:`write_bench_json`, then print the path written."""
    path = write_bench_json(name, entries, summary=summary, out=out)
    print(f"[{name}] wrote {path}")
    return path


# ---------------------------------------------------------------------- #
# CLI modes (used by CI)                                                 #
# ---------------------------------------------------------------------- #
def run_smoke(out: Optional[pathlib.Path] = None) -> pathlib.Path:
    """CI smoke benchmark: quick fig1/fig5 configs → BENCH_smoke.json."""
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
            elapsed, _ = timed(lambda: driver(cfg))
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
    return _written("smoke", entries, out=out)


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
        times = spmv_times.setdefault(dtype_name, {})

        def add(backend: str, kernel: str, seconds: float, width: int) -> None:
            entries.append(
                {
                    "benchmark": "backend_comparison",
                    "backend": backend,
                    "matrix": matrix.name,
                    "kernel": kernel,
                    "dtype": dtype_name,
                    "calls": 1,
                    "wall_seconds": seconds,
                    "n_rows": matrix.n_rows,
                    "nnz": matrix.nnz,
                    "n_rhs": width,
                }
            )

        times["reference"], _ = best_of(
            lambda: reference_spmv(matrix.data, matrix.indices, matrix.indptr, x), 7
        )
        add("reference", "SpMV", times["reference"], 1)
        print(
            f"[backends] {matrix.name} {dtype_name} reference: "
            f"SpMV {times['reference'] * 1e3:.2f} ms",
            flush=True,
        )
        for name in available_backends():
            backend = get_backend(name)
            backend.spmv(matrix, x)  # warm-up pass also builds cached handles
            times[name], _ = best_of(lambda: backend.spmv(matrix, x), 7)
            t_spmm, _ = best_of(lambda: backend.spmm(matrix, X), 7)
            add(name, "SpMV", times[name], 1)
            add(name, "SpMM", t_spmm, n_rhs)
            print(
                f"[backends] {matrix.name} {dtype_name} {name}: "
                f"SpMV {times[name] * 1e3:.2f} ms, SpMM({n_rhs}) {t_spmm * 1e3:.2f} ms",
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
    return _written("backends", entries, summary, out)


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
                    gmres(matrix, b, **solve_kwargs)  # warm-up
                    wall, result = best_of(lambda: gmres(matrix, b, **solve_kwargs), repeats)
                per_iter_us = wall / result.iterations * 1e6
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
                        "wall_seconds": wall,
                        "wall_per_iteration_us": per_iter_us,
                    }
                )
                baseline = PRE_PR_BASELINE_US.get(f"{backend}/{label}")
                if mode == "unmetered" and baseline:
                    speedups[f"{backend}/{label}"] = baseline / per_iter_us
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
    return _written("solve", entries, summary, out)


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
            kwargs = dict(tol=tol, preconditioner=precond, fp64_check=True)

            def sequential():
                return [
                    gmres(matrix, B[:, c], restart=seq_restart, max_restarts=10, **kwargs)
                    for c in range(block_size)
                ]

            def block():
                return block_gmres(matrix, B, restart=blk_restart, max_restarts=60, **kwargs)

            legs = {"sequential": lambda: timed(sequential), "block": lambda: timed(block)}
            for leg in legs.values():
                leg()  # warm-up (plans, BLAS, caches)
            # Only the gate configuration earns the full repeat count.
            runs = interleave(legs, repeats if config == BLOCK_GATE["config"] else 1)
            t_seq, seq_results = best(runs["sequential"])
            t_blk, blk = best(runs["block"])

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
            run_speedups[key] = [
                t_s / t_b for t_s, t_b in zip(walls(runs["sequential"]), walls(runs["block"]))
            ]
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
                    run_wall_seconds=walls(runs["sequential"]),
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
                    run_wall_seconds=walls(runs["block"]),
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
    path = _written("block", entries, summary, out)
    gate_key = f"{BLOCK_GATE['backend']}/{BLOCK_GATE['config']}"
    speedup, bound = speedups.get(gate_key, 0.0), BLOCK_GATE["min_speedup"]
    report_gate(
        "block",
        BLOCK_GATE["backend"],
        [f"{gate_key} per-RHS speedup {speedup:.2f}x < {bound}x"] if speedup < bound else [],
        f"{gate_key} {speedup:.2f}x >= {bound}x per RHS",
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

#: Mode label -> OperatorSession kwargs.  The unbatched scheduler serves
#: width-1 solves with the single-RHS-tuned restart; the batched scheduler
#: coalesces up to 8 requests with the block-tuned restart — the same two
#: solver configurations BLOCK_GATE compares, now measured *as a service*.
_SERVE_MODES = {
    "unbatched": dict(max_block=1, max_wait_ms=0.0, restart=50, max_restarts=10,
                      policy="sequential"),
    "batched": dict(max_block=8, max_wait_ms=25.0, restart=15, max_restarts=60,
                    policy="block"),
}


def _serve_setup(grid: int, total: int) -> tuple:
    """The ``--serve`` / ``--obs`` workload: Laplace3D, its degree-16
    polynomial preconditioner and ``total`` right-hand sides."""
    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner

    matrix = laplace3d(grid)
    precond = GmresPolynomialPreconditioner(matrix, degree=16)
    return matrix, precond, rng(2026).standard_normal((matrix.n_rows, total))


def _serve_window(session, B, clients: int, per_client: int, tol: float, tag: str, check):
    """Warm ``session``, time its client fleet, run ``check(session)``,
    close it.  Returns ``(wall, (stats, what check returned))``.

    Each client submits one right-hand side at a time and waits for its
    future — the serving workload shape.
    """

    def work(c: int) -> None:
        for j in range(per_client):
            idx = c * per_client + j
            result = session.submit(B[:, idx]).result(timeout=600)
            assert result.converged, f"request {idx} ended {result.status}"
            assert result.relative_residual_fp64 <= tol * 1.01

    try:
        # Warm both dispatch widths through the telemetry-free direct path
        # so the timed window measures steady state.
        session.solve(B[:, 0])
        if session.max_block > 1:
            session.solve_many(B[:, : session.max_block])
        wall = drive_clients(work, range(clients), "client", tag=tag)
        stats = session.stats()
        checked = check(session)
    finally:
        session.close()
    assert stats.requests_completed >= clients * per_client
    return wall, (stats, checked)


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
    :class:`repro.serve.OperatorSession`, once with the unbatched width-1
    scheduler and once with micro-batching enabled, for every registered
    backend.  Records RHS/s and p50/p95 queue-wait/solve/total latency
    from the service telemetry, checks the served results, and enforces
    :data:`SERVE_GATE`.

    Also asserts the two serving acceptance properties end to end: a
    request served through the unbatched scheduler is *bit-identical* to
    the session's direct ``solve()``, and a batch containing one
    non-finite (diverging) right-hand side still completes its other
    requests.
    """
    import numpy as np

    from repro.serve import OperatorSession

    total = clients * requests_per_client
    matrix, precond, B = _serve_setup(grid, total)
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    run_speedups: Dict[str, List[float]] = {}

    for backend in each_backend():

        def bit_parity(session) -> None:
            """Unbatched served == direct solve."""
            served = session.submit(B[:, 0]).result(timeout=600)
            assert np.array_equal(served.x, session.solve(B[:, 0]).x), (
                f"[serve] {backend}: served result drifted from the direct solve path"
            )

        def divergence_isolation(session) -> None:
            """A NaN request fails alone while the good requests sharing
            the window complete."""
            good = [session.submit(B[:, c]) for c in range(3)]
            bad = session.submit(np.full(matrix.n_rows, np.nan))
            assert all(g.result(timeout=600).converged for g in good)
            try:
                bad.result(timeout=600)
            except ValueError:
                return
            raise SystemExit(f"[serve] {backend}: non-finite request did not fail")

        checks = {"unbatched": bit_parity, "batched": divergence_isolation}
        runs = interleave(
            {
                mode: lambda mode=mode: _serve_window(
                    OperatorSession(
                        matrix, preconditioner=precond, tol=tol, **_SERVE_MODES[mode]
                    ),
                    B, clients, requests_per_client, tol, f"[serve] {backend}/{mode}",
                    checks[mode],
                )
                for mode in _SERVE_MODES
            },
            repeats,
        )

        throughput: Dict[str, float] = {}
        for mode, session_kwargs in _SERVE_MODES.items():
            wall, (stats, _) = best(runs[mode])
            rps = throughput[mode] = total / wall
            entries.append(
                {
                    "benchmark": "serve",
                    "backend": backend,
                    "matrix": f"Laplace3D{grid}",
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
                    "run_wall_seconds": walls(runs[mode]),
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
            t_u / t_b for t_u, t_b in zip(walls(runs["unbatched"]), walls(runs["batched"]))
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
    path = _written("serve", entries, summary, out)
    speedup, bound = speedups.get(SERVE_GATE["backend"], 0.0), SERVE_GATE["min_speedup"]
    verdict = f"batched serving {speedup:.2f}x {'<' if speedup < bound else '>='} {bound}x RHS/s"
    report_gate("serve", SERVE_GATE["backend"], [verdict] if speedup < bound else [], verdict)
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


def _check_obs_ledger(variant: str, obs, stats, scrape: str, tag: str) -> None:
    """A variant's instrumentation accounts for every request it served."""
    tracer = obs.tracer
    if variant == "traced":
        # Span ledger reconciles with the service telemetry.
        assert tracer.open_spans == 0, "span leak under load"
        roots = [s for s in tracer.finished_spans() if s.name == "request"]
        if tracer.dropped_spans == 0 and len(roots) != stats.requests_submitted:
            raise SystemExit(
                f"{tag}: {len(roots)} request spans != "
                f"{stats.requests_submitted} submitted requests"
            )
        if stats.requests_submitted != stats.requests_completed + stats.requests_failed:
            raise SystemExit(f"{tag}: telemetry skew")
    if variant == "sampled":
        # Sampled ledger reconciles: every request either left a kept root
        # or was counted sampled-out — and with an all-converged workload
        # the kept set is the head stride plus the tail's slowest-decile
        # keeps.
        assert tracer.open_spans == 0, "span leak under sampling"
        roots = [
            s for s in tracer.finished_spans()
            if s.parent_id is None and s.name == "request"
        ]
        if tracer.dropped_spans == 0 and (
            len(roots) + tracer.sampled_out_traces != stats.requests_submitted
        ):
            raise SystemExit(
                f"{tag}: sampled ledger skew: {len(roots)} kept + "
                f"{tracer.sampled_out_traces} dropped != "
                f"{stats.requests_submitted} submitted"
            )
        bad = [
            s for s in roots
            if s.attrs.get("outcome") not in ("converged", "cancelled")
            and s.attrs.get("sampled") == "tail"
        ]
        if stats.requests_failed and not bad:
            raise SystemExit(f"{tag}: failed requests were sampled out")
    if variant == "untraced" and "repro_requests_submitted_total" not in scrape:
        # The collectors actually publish on scrape.
        raise SystemExit(f"{tag}: metrics collector silent")


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
    in-flight request each) against identically configured sessions that
    differ only in instrumentation:

    * ``baseline`` — :meth:`repro.obs.Observability.disabled`: no tracer,
      no metrics registry;
    * ``untraced`` — metrics collectors registered, tracing off (the
      library default);
    * ``sampled`` — adaptive tracing (:class:`repro.obs.Sampler`, 10%
      head rate + tail keep): the always-on production configuration;
    * ``traced`` — a live :class:`repro.obs.Tracer` spanning every
      request plus solver probes, with metrics on.

    The traced and sampled runs' span ledgers must reconcile with the
    service telemetry (one ``request`` root per submitted request,
    ``submitted == completed + failed``); the reference backend's traced
    run is exported as a Chrome trace next to the JSON
    (``TRACE_obs.json``), and the gate (:data:`OBS_GATE`) bounds the
    overhead ratios on that backend.
    """
    from repro.obs import (
        MetricsRegistry,
        Observability,
        Sampler,
        Tracer,
        export_chrome_trace,
        prometheus_text,
    )
    from repro.serve import OperatorSession

    total = clients * requests_per_client
    matrix, precond, B = _serve_setup(grid, total)
    session_kwargs = _SERVE_MODES["batched"]
    entries: List[Dict[str, object]] = []
    costs: Dict[str, Dict[str, float]] = {}
    trace_path = trace_out or (RESULTS_DIR / "TRACE_obs.json")
    make_obs = {
        "baseline": Observability.disabled,
        "untraced": lambda: Observability(tracer=None, registry=MetricsRegistry()),
        "sampled": lambda: Observability(
            tracer=Tracer(sampler=Sampler(head_rate=0.1, tail_keep=True)),
            registry=MetricsRegistry(),
        ),
        "traced": lambda: Observability(tracer=Tracer(), registry=MetricsRegistry()),
    }

    for backend in each_backend():

        def leg(variant: str) -> Run:
            obs = make_obs[variant]()
            session = OperatorSession(
                matrix, preconditioner=precond, tol=tol, obs=obs, **session_kwargs
            )
            # Scrape before close: a closed session's collector retires
            # itself and drops its series.
            wall, (stats, scrape) = _serve_window(
                session, B, clients, requests_per_client, tol, f"[obs] {backend}",
                lambda _: prometheus_text(obs.registry) if obs.registry is not None else "",
            )
            _check_obs_ledger(variant, obs, stats, scrape, f"[obs] {backend}")
            return wall, (stats, obs)

        runs = interleave(
            {variant: lambda variant=variant: leg(variant) for variant in _OBS_VARIANTS},
            repeats,
        )
        baseline_rps = total / best(runs["baseline"])[0]
        costs[backend] = {}
        for variant in _OBS_VARIANTS:
            wall, (stats, obs) = best(runs[variant])
            rps = total / wall
            cost = 1.0 - rps / baseline_rps
            if variant != "baseline":
                costs[backend][variant] = cost
            entry: Dict[str, object] = {
                "benchmark": "obs",
                "backend": backend,
                "matrix": f"Laplace3D{grid}",
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
            tracer = obs.tracer
            if variant == "traced":
                entry["finished_spans"] = len(tracer.finished_spans())
                entry["dropped_spans"] = tracer.dropped_spans
            if variant == "sampled":
                entry["finished_spans"] = len(tracer.finished_spans())
                entry["sampled_out_traces"] = tracer.sampled_out_traces
                entry["head_rate"] = tracer.sampler.head_rate
            entries.append(entry)
            print(
                f"[obs] {backend}/{variant}: {total} requests in "
                f"{wall:.2f} s -> {rps:.1f} RHS/s"
                + (f" ({100 * cost:+.1f}% vs baseline)" if variant != "baseline" else ""),
                flush=True,
            )

        if backend == OBS_GATE["backend"]:
            # Export the reference backend's traced run for Perfetto.
            _, (_, traced) = best(runs["traced"])
            payload = export_chrome_trace(trace_path, tracer=traced.tracer)
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
    path = _written("obs", entries, summary, out)
    gate_costs = costs.get(OBS_GATE["backend"], {})
    failures = [
        f"{what} cost {100 * gate_costs.get(variant, 1.0):.1f}% "
        f"> {100 * OBS_GATE[f'max_{variant}_cost']:.0f}% RHS/s"
        for variant, what in (
            ("untraced", "metrics-only serving"),
            ("sampled", "sampled tracing"),
            ("traced", "traced serving"),
        )
        if gate_costs.get(variant, 1.0) > OBS_GATE[f"max_{variant}_cost"]
    ]
    report_gate(
        "obs",
        OBS_GATE["backend"],
        failures,
        f"tracing off {100 * gate_costs.get('untraced', 0.0):+.1f}%, sampled "
        f"{100 * gate_costs.get('sampled', 0.0):+.1f}%, tracing on "
        f"{100 * gate_costs.get('traced', 0.0):+.1f}% RHS/s vs baseline",
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

    * **cold-only** — the cold tenants served concurrently through an
      identical farm *without* the hot tenant, ``repeats`` times first:
      the per-tenant p95 latency baseline that isolates exactly the hot
      neighbour's impact for the noisy-neighbour check (cold-vs-cold
      contention is present in both runs and cancels out of the ratio);
    * **farm** — every tenant drives its requests concurrently through one
      :class:`repro.serve.SolverFarm` with ``max_sessions < operators``,
      so the run includes LRU eviction and transparent re-warm;
    * **naive** — the no-farm alternative: the same trace served
      sequentially with a single warm :class:`OperatorSession` at a time,
      rebuilt on every operator switch.

    Farm and naive runs are interleaved; each tenant's best contended p95
    is compared against its best cold-only one.  Enforces
    :data:`FARM_GATE` on the reference backend.
    """
    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.serve import OperatorSession, SolverFarm

    keys = [f"op{i}" for i in range(operators)]
    hot, cold = keys[0], keys[1:]
    counts = {k: (hot_requests if k == hot else cold_requests) for k in keys}
    total = sum(counts.values())
    # One matrix and one preconditioner instance *per operator*, as a
    # deployment of distinct operators would register them; the identical
    # spectra here just keep the per-request work uniform across tenants.
    # Setup cost is paid outside any timed window, as a deployment pays
    # it at registration time.
    matrices = {k: laplace3d(grid) for k in keys}
    preconds = {
        k: GmresPolynomialPreconditioner(matrices[k], degree=16) for k in keys
    }
    session_kwargs = dict(restart=10, tol=tol, max_restarts=60)
    # Per-operator batching width, as a deployment would tune it: the hot
    # tenant coalesces to 8-wide blocks, the cold tenants' full burst is
    # exactly one 4-wide block (so a burst dispatches immediately instead
    # of waiting out the micro-batch window for stragglers).
    max_blocks = {k: (8 if k == hot else 4) for k in keys}
    B = {
        k: rng(3000 + i).standard_normal((matrices[k].n_rows, counts[k]))
        for i, k in enumerate(keys)
    }

    # The naive baseline replays this deterministic trace: hot bursts of 4
    # interleaved with one request from each cold tenant — the arrival
    # pattern the farm's clients also approximate.
    trace: List[tuple] = []
    remaining = dict(counts)
    while any(remaining.values()):
        for k in [hot] * 4 + cold:
            if remaining[k]:
                trace.append((k, counts[k] - remaining[k]))
                remaining[k] -= 1
    assert len(trace) == total

    entries: List[Dict[str, object]] = []
    summary_speedups: Dict[str, float] = {}
    summary_p95: Dict[str, float] = {}
    summary_evictions: Dict[str, int] = {}

    def run_naive() -> int:
        """One warm session at a time, rebuilt on every operator switch;
        returns the number of sessions built."""
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
        return switches

    def run_fleet(selected: List[str], tag: str) -> Run:
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

        def work(k: str) -> None:
            futures = [farm.submit(k, B[k][:, j]) for j in range(counts[k])]
            for j, f in enumerate(futures):
                result = f.result(timeout=600)
                assert result.converged, f"{k}[{j}] {result.status}"

        try:
            wall = drive_clients(work, selected, "tenant", tag=tag)
            return wall, farm.stats()
        finally:
            farm.close()

    for backend in each_backend():
        tag = f"[farm] {backend}"
        # Hot-free baseline first (per-cold-tenant p95 without the noisy
        # neighbour), then the contended farm and naive runs interleaved.
        solo = interleave({"cold": lambda: run_fleet(cold, tag)}, repeats)["cold"]
        runs = interleave(
            {"farm": lambda: run_fleet(keys, tag), "naive": lambda: timed(run_naive)},
            repeats,
        )

        def best_p95(fleet_runs: List[Run]) -> Dict[str, float]:
            return {
                k: min(stats.tenants[k].serve.latency.p95_ms for _, stats in fleet_runs)
                for k in cold
            }

        baseline_p95, cold_best_p95 = best_p95(solo), best_p95(runs["farm"])
        farm_wall, farm_stats = best(runs["farm"])
        naive_wall, naive_switches = best(runs["naive"])
        # Fault-tolerance quiescence gate: a healthy benchmark load must
        # not leak requests (submitted == completed + failed) nor trigger
        # any of the failure machinery — deadlines, cancellations and
        # breaker trips all belong to chaos runs, not this one.
        fleet = farm_stats.fleet
        if fleet.requests_submitted != (
            fleet.requests_completed + fleet.requests_failed
        ):
            raise SystemExit(
                f"{tag}: telemetry does not reconcile: "
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
                f"{tag}: spurious failure-path activity under "
                f"healthy load: timed_out={fleet.requests_timed_out} "
                f"cancelled={fleet.requests_cancelled} "
                f"breaker_trips={farm_stats.breaker_trips}"
            )
        farm_rps = total / farm_wall
        naive_rps = total / naive_wall
        speedup = farm_rps / naive_rps
        worst_ratio = max(
            (cold_best_p95[k] / baseline_p95[k] if baseline_p95[k] > 0 else 0.0)
            for k in cold
        )
        summary_speedups[backend] = speedup
        summary_p95[backend] = worst_ratio
        summary_evictions[backend] = farm_stats.evictions

        common = {
            "benchmark": "farm",
            "backend": backend,
            "matrix": f"Laplace3D{grid}",
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
                wall_seconds=naive_wall,
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
                latency_p50_ms=fleet.latency.p50_ms,
                latency_p95_ms=fleet.latency.p95_ms,
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
    path = _written("farm", entries, summary, out)
    gate_backend = FARM_GATE["backend"]
    speedup = summary_speedups.get(gate_backend, 0.0)
    worst = summary_p95.get(gate_backend, float("inf"))
    evictions = summary_evictions.get(gate_backend, 0)
    failures = []
    if speedup < FARM_GATE["min_fleet_speedup"]:
        failures.append(
            f"fleet speedup {speedup:.2f}x < {FARM_GATE['min_fleet_speedup']}x vs naive"
        )
    if worst > FARM_GATE["max_cold_p95_degradation"]:
        failures.append(
            f"cold-tenant p95 degraded {worst:.2f}x "
            f"> {FARM_GATE['max_cold_p95_degradation']}x by the hot neighbour"
        )
    if evictions < FARM_GATE["min_evictions"]:
        failures.append("no session evictions observed (LRU churn not exercised)")
    report_gate(
        "farm",
        gate_backend,
        failures,
        f"{speedup:.2f}x fleet RHS/s, cold p95 {worst:.2f}x solo, {evictions} evictions",
    )
    return path


#: flag -> (help, how it runs from the parsed arguments), in run order.
MODES: Dict[str, Tuple[str, Callable]] = {
    "smoke": (
        "run the scaled-down fig1/fig5 smoke benchmark (BENCH_smoke.json)",
        lambda args: run_smoke(out=args.out),
    ),
    "backends": (
        "run the kernel-backend comparison (BENCH_backends.json)",
        lambda args: run_backend_comparison(args.grid, out=args.out),
    ),
    "solve": (
        "run the end-to-end GMRES(50) solve benchmark (BENCH_solve.json)",
        lambda args: run_solve(out=args.out),
    ),
    "solve-block": (
        "run the batched multi-RHS solve benchmark with its >=0.9x "
        "per-RHS gate (BENCH_block.json)",
        lambda args: run_solve_block(out=args.out),
    ),
    "serve": (
        "run the solver-service throughput benchmark with its >=0.7x "
        "batched-vs-unbatched RHS/s gate (BENCH_serve.json)",
        lambda args: run_serve(out=args.out, clients=args.clients),
    ),
    "farm": (
        "run the multi-tenant solver-farm benchmark with its >=1.5x "
        "fleet-RHS/s + noisy-neighbour + eviction gate (BENCH_farm.json)",
        lambda args: run_farm(out=args.out),
    ),
    "obs": (
        "run the observability overhead benchmark (tracing off / "
        "sampled / fully on vs no-obs baseline, <2%%/<2%%/<10%% RHS/s "
        "gates) and emit BENCH_obs.json plus the Chrome trace artifact "
        "TRACE_obs.json (TRACE_obs_fresh.json beside --out)",
        lambda args: run_obs(
            out=args.out,
            clients=args.clients,
            trace_out=None if args.out is None else args.out.with_name("TRACE_obs_fresh.json"),
        ),
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark harness CLI")
    for flag, (help_text, _) in MODES.items():
        parser.add_argument(f"--{flag}", action="store_true", help=help_text)
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
    chosen = [run for flag, (_, run) in MODES.items() if getattr(args, flag.replace("-", "_"))]
    if not chosen:
        parser.error("choose at least one of " + " / ".join(f"--{flag}" for flag in MODES))
    if args.out is not None and len(chosen) > 1:
        parser.error("--out is ambiguous with more than one mode")
    for run in chosen:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
