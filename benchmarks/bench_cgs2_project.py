"""Same-run timing of the compiled CGS2 projection against the GEMV sequence.

For each basis length ``n`` and precision, times one CGS2 step (both
projection passes of ``w`` against a Fortran-ordered basis, as
``ClassicalGramSchmidt2`` runs it) summed over basis widths ``j = 1..50``,
two ways through ``NumpyBackend`` with caller-owned buffers:

* ``gemv``: the backend default, ``KernelBackend.cgs2_project`` — two
  BLAS GEMV-T and two GEMV-N, four sweeps over the basis;
* ``fused``: ``NumpyBackend.cgs2_project`` — the compiled projection
  kernel ``bcgs2_project`` at block width 1, three sweeps.

The two alternate within each repeat, and the table reports the medians
and the median of the per-repeat fused/gemv ratios, with the machine's
core count and the BLAS thread count.  Exits non-zero when a median ratio
exceeds 1 (the fused step slower than the GEMVs) or the kernel is not
available::

    PYTHONPATH=src python benchmarks/bench_cgs2_project.py [--repeats 15] [--n 4096 13824 32768]

BLAS is pinned to one thread before numpy is imported, as in
``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

WIDTHS = range(1, 51)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--n", type=int, nargs="+", default=[4096, 13824, 32768])
    args = parser.parse_args(argv)

    import numpy as np

    from repro.backends import native
    from repro.backends.base import KernelBackend
    from repro.backends.numpy_backend import NumpyBackend

    backend = NumpyBackend()
    print(
        f"CGS2 step summed over j = 1..{WIDTHS[-1]}, {args.repeats} repeats, "
        f"cores={len(os.sched_getaffinity(0))} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
    print(f"{'n':>7} {'dtype':>8} {'gemv ms':>9} {'fused ms':>9} {'ratio':>6}")
    worst = 0.0
    for n in args.n:
        for dtype in (np.float32, np.float64):
            if native.kernel("bcgs2_project", np.dtype(dtype)) is None:
                print("FAIL: the compiled bcgs2_project kernel is not available")
                return 1
            gen = np.random.default_rng(n)
            block = np.asfortranarray(
                np.linalg.qr(gen.standard_normal((n, WIDTHS[-1] + 1)))[0], dtype=dtype
            )
            w0 = block[:, -1].copy()
            w = np.empty_like(w0)
            work = np.empty_like(w0)
            h1, h2 = np.empty(WIDTHS[-1], dtype), np.empty(WIDTHS[-1], dtype)

            def step(project) -> float:
                total = 0.0
                for j in WIDTHS:
                    V = block[:, :j]
                    np.copyto(w, w0)
                    start = time.perf_counter()
                    project(backend, V, w, h1[:j], h2[:j], work=work)
                    total += time.perf_counter() - start
                return total

            ways = {"gemv": KernelBackend.cgs2_project, "fused": NumpyBackend.cgs2_project}
            for project in ways.values():  # warm-up
                step(project)
            times = {name: [] for name in ways}
            for i in range(args.repeats):
                for name in sorted(ways, reverse=bool(i % 2)):
                    times[name].append(step(ways[name]))
            ratio = statistics.median(f / g for f, g in zip(times["fused"], times["gemv"]))
            worst = max(worst, ratio)
            print(
                f"{n:>7} {np.dtype(dtype).name:>8} "
                f"{statistics.median(times['gemv']) * 1e3:>9.2f} "
                f"{statistics.median(times['fused']) * 1e3:>9.2f} {ratio:>6.3f}"
            )
    if worst > 1.0:
        print(f"FAIL: the fused step is slower than the GEMV sequence ({worst:.3f}x)")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
