"""Repository benchmark: time to an fp64-accurate solution and served throughput.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fp64-laplace3d --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs an untraced window and then a traced one, and reports
the per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is the result object; the line before it carries the
machine fingerprint and the check details.  Full results and the traced
run's spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is loaded: with OpenBLAS's default
# threading a 32k-element dot takes milliseconds instead of microseconds
# on small machines, which would swamp every kernel time measured here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Measure the library's default backend, not one chosen by the caller's
# environment.
os.environ.pop("REPRO_BACKEND", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: A traced run passes when the per-layer self times account for the
#: traced request wall time to within this share.
COVERAGE_TOLERANCE = 0.10


def import_library():
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)
    return repro


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def openblas_threads() -> dict:
    """Live thread count of each bundled OpenBLAS (numpy's and scipy's)."""
    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    found = {}
    for package, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ):
        for path in glob.glob(os.path.join(site, pattern)):
            try:
                getter = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            found[package] = getter()
    return found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` ("unknown" without one)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(repro, seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "blas": blas,
        "openblas_threads": openblas_threads(),
        "backend": repro.linalg.get_context().backend.name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def end_to_end(window, setups) -> dict:
    """End-to-end metrics of one untraced window."""
    import numpy

    latencies = [r.latency for r in window.requests if r.error is None]
    counted = [r for r in window.requests if r.ok and r.t_done <= window.end]
    # Throughput over the time the counted requests took, so the request
    # straddling the window end does not quantize the rate.
    span = max((r.t_done for r in counted), default=window.end) - window.start
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": float(numpy.percentile(latencies, 90)),
        "rhs_per_s": len(counted) / span,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, window, log, base_p50: float, iterations: float) -> dict:
    """Per-layer metrics of the traced window, per completed request.

    ``precond.setup.s`` is the exception: seconds per preconditioner
    construction anywhere in the traced run, set-up included.
    """
    from layers import summarize

    completed = [r for r in window.requests if r.error is None]
    n = len(completed)
    spans = [s for s in log.spans if s[6] >= window.start]
    metrics = summarize(spans, n)
    constructions = [s[7] - s[6] for s in log.spans if s[2] == "precond.setup"]
    self_total = metrics.pop("self_total_s")
    latency_sum = sum(r.latency for r in completed)
    traced_p50 = statistics.median(r.latency for r in completed)
    results = [r.result for r in completed]

    def mean(values) -> float:
        values = list(values)
        return float(sum(values) / len(values)) if values else 0.0

    if workload.served:
        queue_wait = mean(r.queue_wait_seconds for r in results)
        batch_solve = mean(r.solve_seconds for r in results)
        overhead = latency_sum / n - queue_wait - batch_solve
        # Served requests: the serve layer's queue wait plus the batch
        # solve it rode in must account for the client's latency.
        coverage = (queue_wait + batch_solve) * n / latency_sum
        restarts = mean(r.solve_result.restarts for r in results)
        block_iterations = mean(r.details["block_iterations"] for r in results)
        width = mean(r.batch_size for r in results)
    else:
        queue_wait = batch_solve = overhead = 0.0
        # Direct requests: every span's self time, summed, against the
        # wall time the caller measured around each solve.
        coverage = self_total / latency_sum
        restarts = mean(r.restarts for r in results)
        block_iterations = mean(r.iterations for r in results)
        width = 1.0
    counters = window.counters
    metrics.update({
        "precond.setup.s": mean(constructions),
        "solvers.iterations": iterations,
        "solvers.restarts": restarts,
        "solvers.block_iterations": block_iterations,
        "serve.queue_wait_s": queue_wait,
        "serve.batch_solve_s": batch_solve,
        "serve.overhead_s": overhead,
        "serve.batch_width": width,
        "serve.retries": counters.get("retries", 0) / n,
        "serve.evictions": counters.get("evictions", 0) / n,
        "serve.rewarms": counters.get("rewarms", 0) / n,
        "serve.rewarm_s": counters.get("rewarm_s", 0.0) / n,
        "obs.scrape_s": sum(s for s, _ in window.scrapes) / n,
        "obs.scrape_bytes": mean(b for _, b in window.scrapes),
        "trace.base_latency_p50_s": base_p50,
        "trace.latency_p50_s": traced_p50,
        "trace.overhead_ratio": traced_p50 / base_p50,
        "trace.coverage": coverage,
        "trace.spans": len(spans) / n,
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, **options):
    """One benchmark invocation; returns ``(result, details)``.

    ``options`` go to the workload constructor (the self-test passes
    ``tiny`` and ``poison_rhs``).
    """
    repro = import_library()
    from layers import Tracing
    from workloads import WORKLOADS

    declared = declared_metrics()
    workload = WORKLOADS[workload_name](seed, **options)
    env = fingerprint(repro, seed)

    setups = []
    for i in range(SETUPS):
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            workload.close(state)
    # A traced run splits its time between an untraced and a traced
    # window, so every run takes about ``seconds``.
    window_s = seconds / 2 if trace else seconds
    try:
        window = workload.run(state, window_s)
        iterations = workload.iterations(state) if trace else None
    finally:
        workload.close(state)
    workload.check(window)
    windows = [window]
    metrics = end_to_end(window, setups)
    kind = "end_to_end"

    checks = {}
    if trace:
        tracing = Tracing(repro.linalg.get_context().backend)
        with tracing.installed():
            state = workload.setup(tracing)
            try:
                traced = workload.run(state, window_s, tracing)
            finally:
                workload.close(state)
        workload.check(traced)
        windows.append(traced)
        metrics = per_layer(workload, traced, tracing.log, metrics["latency_p50_s"], iterations)
        checks["coverage"] = abs(metrics["trace.coverage"] - 1.0) <= COVERAGE_TOLERANCE
        kind = "per_layer"
        os.makedirs(OUT, exist_ok=True)
        tracing.log.write(
            os.path.join(OUT, f"spans-{workload_name}-seed{seed}.jsonl.gz"),
            {"workload": workload_name, "window": [traced.start, traced.end],
             "fingerprint": env},
        )

    missing = set(declared[kind]) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    requests = [r for w in windows for r in w.requests]
    failed = sum(1 for r in requests if not r.ok)
    # Correct means no returned solution is wrong: every request the
    # solver reports as converged must pass the independent oracle.
    checks["oracle"] = all(r.ok for r in requests if r.converged)
    result = {
        "correct": all(checks.values()),
        "attempted": len(requests),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared[kind].items()
        },
    }
    details = {
        "workload": workload_name,
        "fingerprint": env,
        "checks": checks,
        "failed_frac": failed / len(requests),
        "latency_samples": sum(1 for r in window.requests if r.error is None),
        "setup_s_samples": setups,
        "errors": sorted({r.error for r in requests if r.error is not None})[:5],
        "max_oracle_residual": max(
            (r.residual for r in requests if r.converged), default=None
        ),
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
