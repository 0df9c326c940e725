"""Same-run metering overhead of a direct GMRES-IR solve.

Interleaves metered and unmetered ``gmres_ir(restart=50, cgs2)`` solves on
Laplace3D 24³ in one process and prints the median metered/unmetered
wall-time ratio over the pairs, with the machine's core count and the BLAS
thread count.  Each pair runs two solves of each kind in ABBA order, and
the order alternates between pairs so that neither leg always runs first.
"Metered" is the library default (``meter_kernels=True``, every kernel
call recorded into the solver's ``KernelTimer``); "unmetered" runs the
same solve under ``use_device(..., meter=False)``, the metering fast path.

Exits non-zero when the median ratio exceeds :data:`BOUND`::

    PYTHONPATH=src python benchmarks/bench_metering_overhead.py [--pairs 25] [--grid 24]

BLAS is pinned to one thread before numpy is imported, as in
``perfbench/run.py``: with OpenBLAS's default threading the small GEMVs of
the orthogonalization take milliseconds instead of microseconds and the
ratio would measure thread wake-ups, not metering.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

#: Largest accepted median metered/unmetered wall-time ratio.
BOUND = 1.12


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--grid", type=int, default=24)
    args = parser.parse_args(argv)

    import numpy as np

    from repro import gmres_ir
    from repro.linalg.context import get_context, use_device
    from repro.matrices import laplace3d

    matrix = laplace3d(args.grid)
    rng = np.random.default_rng(1)
    pool = [rng.random(matrix.n_rows) for _ in range(4)]
    device = get_context().device

    def solve(b, meter: bool) -> float:
        start = time.perf_counter()
        if meter:
            result = gmres_ir(matrix, b, restart=50, tol=1e-10, ortho="cgs2")
        else:
            with use_device(device, meter=False):
                result = gmres_ir(matrix, b, restart=50, tol=1e-10, ortho="cgs2")
        wall = time.perf_counter() - start
        if not result.converged:
            raise SystemExit(f"gmres_ir did not converge: {result.status}")
        return wall

    for meter in (True, False, True, False):  # warm-up: plans, workspaces
        solve(pool[0], meter)

    ratios, metered, unmetered = [], [], []
    for i in range(args.pairs):
        b = pool[i % len(pool)]
        # ABBA order: a drift in machine speed during the pair cancels.
        order = (False, True, True, False) if i % 2 else (True, False, False, True)
        walls = {True: 0.0, False: 0.0}
        for meter in order:
            walls[meter] += solve(b, meter)
        metered.append(walls[True] / 2)
        unmetered.append(walls[False] / 2)
        ratios.append(walls[True] / walls[False])

    ratio = statistics.median(ratios)
    print(
        f"metering overhead: gmres_ir Laplace3D {args.grid}^3, {args.pairs} pairs, "
        f"cores={len(os.sched_getaffinity(0))} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')} "
        f"backend={get_context().backend.name}"
    )
    print(
        f"  metered p50 {statistics.median(metered):.4f} s, "
        f"unmetered p50 {statistics.median(unmetered):.4f} s, "
        f"median ratio {ratio:.3f} (bound {BOUND:.2f}; "
        f"quartiles {statistics.quantiles(ratios, n=4)[0]:.3f}"
        f"–{statistics.quantiles(ratios, n=4)[2]:.3f})"
    )
    if ratio > BOUND:
        print(f"FAIL: metering costs {ratio - 1:.1%} of a direct solve (> {BOUND - 1:.0%})")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
