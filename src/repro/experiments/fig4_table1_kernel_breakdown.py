"""Figure 4 + Table I — kernel-time breakdown and per-kernel speedups on BentPipe2D.

Paper setup: BentPipe2D1500, GMRES(50) double vs GMRES(50)-IR, tolerance
1e-10.  Figure 4 shows each solver's total solve time split into
GEMV (Trans) / Norm / GEMV (No Trans) / SpMV / Other; Table I reports the
per-kernel speedups:

    GEMV (Trans) 1.28×, Norm 1.15×, GEMV (No Trans) 1.57×,
    Total Orthogonalization 1.38×, SpMV 2.48×, Total 1.32×.

The report's rows are the Table-I rows with both solvers' modelled seconds,
the measured speedup, and each solver's host wall seconds in the metered
kernels (the NumPy execution on this machine, next to the modelled V100
time); the per-solver breakdown fractions (the Figure 4 bars) are attached
under ``parameters["breakdown"]``.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import KernelBreakdown, breakdown_from_result, speedup_table
from ..matrices import bentpipe2d
from ..solvers import gmres, gmres_ir
from .common import ExperimentConfig, ExperimentReport, solve_on_scaled_device

__all__ = ["run", "PAPER_REFERENCE", "PAPER_TABLE_I"]

PAPER_GRID = 1500
PAPER_N = PAPER_GRID ** 2

#: Table I of the paper (seconds and speedups on the V100).
PAPER_TABLE_I = {
    "GEMV (Trans)": {"double": 20.20, "ir": 15.78, "speedup": 1.28},
    "Norm": {"double": 1.72, "ir": 1.49, "speedup": 1.15},
    "GEMV (No Trans)": {"double": 19.01, "ir": 12.10, "speedup": 1.57},
    "Total Orthogonalization": {"double": 41.85, "ir": 30.30, "speedup": 1.38},
    "SpMV": {"double": 7.33, "ir": 2.95, "speedup": 2.48},
    "Total Time": {"double": 50.26, "ir": 38.03, "speedup": 1.32},
}

PAPER_REFERENCE = {
    "problem": "BentPipe2D1500, GMRES(50) double vs GMRES(50)-IR",
    "per-kernel speedups": "GEMV(T) 1.28, Norm 1.15, GEMV(N) 1.57, Orthog 1.38, SpMV 2.48, Total 1.32",
    "orthogonalization share (double)": "83% of solve time at restart 50",
}


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    grid: Optional[int] = None,
) -> ExperimentReport:
    """Run the Figure 4 / Table I kernel-breakdown comparison."""
    cfg = config or ExperimentConfig()
    grid = grid if grid is not None else cfg.pick(96, 64)
    matrix = bentpipe2d(grid)
    m = cfg.restart

    double = solve_on_scaled_device(
        gmres, matrix, PAPER_N, precision="double", restart=m, tol=cfg.tol
    )
    mixed = solve_on_scaled_device(
        gmres_ir, matrix, PAPER_N, restart=m, tol=cfg.tol
    )

    table = speedup_table(double, mixed, baseline_name="GMRES double", comparison_name="GMRES-IR")
    double_host, ir_host = (
        KernelBreakdown(r.timer.name, r.timer.wall_seconds_by_label()) for r in (double, mixed)
    )
    rows = []
    for r in table.rows:
        paper = PAPER_TABLE_I.get(r.label, {})
        rows.append(
            {
                "kernel": r.label,
                "double [model s]": r.baseline_seconds,
                "IR [model s]": r.comparison_seconds,
                "double [host s]": double_host.row_seconds(r.label),
                "IR [host s]": ir_host.row_seconds(r.label),
                "speedup": r.speedup,
                "paper speedup": paper.get("speedup"),
            }
        )

    base_breakdown = breakdown_from_result(double)
    ir_breakdown = breakdown_from_result(mixed)
    report = ExperimentReport(
        experiment="Figure 4 + Table I",
        title="Kernel-time breakdown and speedups, GMRES double vs GMRES-IR (BentPipe2D)",
        rows=rows,
        columns=[
            "kernel", "double [model s]", "IR [model s]", "double [host s]",
            "IR [host s]", "speedup", "paper speedup",
        ],
        parameters={
            "matrix": matrix.name,
            "n": matrix.n_rows,
            "restart": m,
            "double iterations": double.iterations,
            "IR iterations": mixed.iterations,
            "orthogonalization share (double)": base_breakdown.orthogonalization_fraction(),
            "orthogonalization share (IR)": ir_breakdown.orthogonalization_fraction(),
            "breakdown": {
                "double": dict(base_breakdown.seconds_by_label),
                "ir": dict(ir_breakdown.seconds_by_label),
            },
        },
        paper_reference=PAPER_REFERENCE,
        notes=[
            f"scaled problem: grid {grid} vs paper grid {PAPER_GRID}; modelled V100 seconds",
        ],
    )
    return report
