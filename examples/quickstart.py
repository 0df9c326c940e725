#!/usr/bin/env python
"""Quickstart: solve a PDE system with GMRES double and GMRES-IR.

Builds the paper's BentPipe2D convection-diffusion problem (at a scaled
grid size), solves it with double-precision GMRES(m) and with GMRES-IR
(fp32 inner cycles, fp64 refinement), and prints the convergence summary,
the modelled V100 kernel-time breakdown and the speedup — the minimal
version of Figure 4 / Table I of the paper.

Run:
    python examples/quickstart.py [grid]
"""

import sys

import repro
from repro.analysis import speedup_table
from repro.linalg import use_device
from repro.perfmodel import get_device


def main(grid: int = 64) -> None:
    # 1. Build the problem: convection-dominated 2D flow, all-ones RHS.
    matrix = repro.matrices.bentpipe2d(grid)
    b = repro.ones_rhs(matrix)
    print(f"problem: {matrix.name}, n={matrix.n_rows}, nnz={matrix.nnz}")

    # 2. Model the paper's V100, dimensionally scaled to this problem size
    #    (see DeviceSpec.scaled); all kernel calls are metered against it.
    device = get_device("v100").scaled(matrix.n_rows / 1500**2)

    with use_device(device):
        # 3. Baseline: everything in double precision.
        double = repro.gmres(matrix, b, precision="double", restart=25, tol=1e-10)
        # 4. GMRES-IR: fp32 inner GMRES(25) cycles, fp64 refinement.
        mixed = repro.gmres_ir(matrix, b, restart=25, tol=1e-10)

    print("\n--- GMRES double ---")
    print(double.summary())
    print("\n--- GMRES-IR ---")
    print(mixed.summary())

    # 5. Per-kernel comparison (Table I layout).
    table = speedup_table(double, mixed, baseline_name="GMRES double", comparison_name="GMRES-IR")
    print("\n" + table.format(scale=1e3, time_unit="modelled ms"))
    print(f"\nGMRES-IR modelled speedup: {table.total_speedup:.2f}x "
          f"(paper reports 1.32x on the full-size problem)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 64)
