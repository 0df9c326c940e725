"""Backend-comparison benchmark: NumPy reference vs SciPy fast path.

Times the registered kernel backends head-to-head on the 64³ Laplace3D
matrix (the acceptance configuration) and writes the machine-readable
``BENCH_backends.json``.  The assertions encode the perf guardrails, both
against the plan-free ``np.add.reduceat`` reference function in fp64: the
SciPy compiled CSR SpMV must stay at least 3× faster than it, and the
NumPy backend's cached DIA SpMV at least 2× — if a refactor ever drags a
fast path back toward the reference, this benchmark fails before the
regression lands.
"""

import json

from _harness import run_backend_comparison, run_once


def test_backend_comparison_spmv_speedup(benchmark):
    path = run_once(benchmark, lambda: run_backend_comparison(64))
    payload = json.loads(path.read_text())

    entries = payload["entries"]
    assert entries, "backend comparison produced no entries"
    backends = {e["backend"] for e in entries}
    assert {"numpy", "scipy"} <= backends

    # Acceptance gates on Laplace3D64 in fp64, both against the plan-free
    # reference function: SciPy SpMV >= 3x (measured 5.5-8x), and the
    # NumPy backend's DIA SpMV >= 2x (measured 3.9-6.2x).
    summary = payload["summary"]
    speedup = summary["spmv_speedup_scipy_over_reference_double"]
    assert speedup >= 3.0, f"scipy SpMV speedup degraded to {speedup:.2f}x (< 3x)"
    speedup = summary["spmv_speedup_numpy_over_reference_double"]
    assert speedup >= 2.0, f"numpy SpMV speedup degraded to {speedup:.2f}x (< 2x)"

    # On the compiled path, batching pays: SpMM(k) must beat k sequential
    # SpMVs (the matrix streams through memory once).  The NumPy reference
    # makes no such promise — its batched kernel exists for semantics, not
    # speed — so the guardrail is scoped to scipy.
    n_rhs = payload["summary"]["n_rhs"]
    spmv = next(
        e["wall_seconds"]
        for e in entries
        if e["backend"] == "scipy" and e["kernel"] == "SpMV" and e["dtype"] == "double"
    )
    spmm = next(
        e["wall_seconds"]
        for e in entries
        if e["backend"] == "scipy" and e["kernel"] == "SpMM" and e["dtype"] == "double"
    )
    assert spmm < n_rhs * spmv
