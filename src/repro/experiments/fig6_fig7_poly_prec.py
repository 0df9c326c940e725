"""Figures 6 and 7 — polynomial-preconditioned GMRES vs GMRES-IR on Stretched2D.

Paper setup: Stretched2D1500 (SPD Laplacian on a stretched grid; GMRES(50)
cannot converge on it without preconditioning), degree-40 GMRES-polynomial
preconditioner, tolerance 1e-10.  Three configurations are compared:

(a) fp64 GMRES with the polynomial computed/applied in fp64,
(b) fp64 GMRES with the polynomial computed/applied in fp32 (casting the
    vector on every application), and
(c) GMRES-IR with the fp32 polynomial.

Paper observations: all three converge almost identically (Figure 6); the
fp32 polynomial already speeds up the fp64 solver, but GMRES-IR is the
fastest, 1.58× over configuration (a) (Figure 7).  With polynomial
preconditioning the SpMV — not orthogonalization — dominates the solve time
(64% of it in fp64), which is exactly where fp32 pays off most.

Scaled setup: Stretched2D at a reduced grid with a reduced polynomial
degree (the preconditioner strength has to match the scaled problem's
difficulty so the solve still spans multiple restart cycles).
"""

from __future__ import annotations

from typing import Optional

from ..analysis import breakdown_from_result
from ..matrices import stretched2d
from ..preconditioners import GmresPolynomialPreconditioner
from ..solvers import gmres, gmres_ir
from .common import ExperimentConfig, ExperimentReport, solve_on_scaled_device

__all__ = ["run", "PAPER_REFERENCE"]

PAPER_GRID = 1500
PAPER_N = PAPER_GRID ** 2
PAPER_DEGREE = 40

PAPER_REFERENCE = {
    "problem": "Stretched2D1500, degree-40 GMRES polynomial, GMRES(50), tol 1e-10",
    "fp64 prec": "482 iters / 22.66 s",
    "GMRES-IR + fp32 prec": "500 iters / 14.37 s (1.58x)",
    "convergence": "fp32 preconditioning converges like fp64 preconditioning",
    "SpMV share of fp64 solve time": "about 64% (vs 15% unpreconditioned)",
    "preconditioner setup time": "0.5 s or less (excluded from solve times)",
}


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    grid: Optional[int] = None,
    stretch: float = 8.0,
    degree: Optional[int] = None,
) -> ExperimentReport:
    """Run the Figures 6/7 polynomial-preconditioning comparison."""
    cfg = config or ExperimentConfig()
    grid = grid if grid is not None else cfg.pick(128, 96)
    degree = degree if degree is not None else cfg.pick(10, 10)
    m = cfg.restart
    matrix = stretched2d(grid, stretch=stretch)

    poly64 = GmresPolynomialPreconditioner(matrix, degree=degree, precision="double")
    poly32 = GmresPolynomialPreconditioner(matrix, degree=degree, precision="single")

    run_a = solve_on_scaled_device(
        gmres, matrix, PAPER_N,
        precision="double", restart=m, tol=cfg.tol, preconditioner=poly64,
    )
    run_b = solve_on_scaled_device(
        gmres, matrix, PAPER_N,
        precision="double", restart=m, tol=cfg.tol, preconditioner=poly32,
    )
    run_c = solve_on_scaled_device(
        gmres_ir, matrix, PAPER_N,
        restart=m, tol=cfg.tol, preconditioner=poly32,
    )

    rows = []
    for label, result in (
        ("fp64 GMRES + fp64 poly", run_a),
        ("fp64 GMRES + fp32 poly", run_b),
        ("GMRES-IR + fp32 poly", run_c),
    ):
        breakdown = breakdown_from_result(result)
        rows.append(
            {
                "configuration": label,
                "status": result.status.value,
                "iterations": result.iterations,
                "relative residual (fp64)": result.relative_residual_fp64,
                "solve time [model s]": result.model_seconds,
                "speedup vs fp64 prec": run_a.model_seconds / result.model_seconds
                if result.model_seconds
                else float("nan"),
                "SpMV share": breakdown.fraction("SpMV"),
                "orthog share": breakdown.orthogonalization_fraction(),
            }
        )

    return ExperimentReport(
        experiment="Figures 6 + 7",
        title="Polynomial-preconditioned GMRES: fp64 prec vs fp32 prec vs GMRES-IR (Stretched2D)",
        rows=rows,
        columns=[
            "configuration",
            "status",
            "iterations",
            "relative residual (fp64)",
            "solve time [model s]",
            "speedup vs fp64 prec",
            "SpMV share",
            "orthog share",
        ],
        parameters={
            "matrix": matrix.name,
            "n": matrix.n_rows,
            "stretch": stretch,
            "polynomial degree": degree,
            "restart": m,
            "poly setup seconds (fp64 / fp32)": (
                poly64.setup_seconds(),
                poly32.setup_seconds(),
            ),
        },
        paper_reference=PAPER_REFERENCE,
        notes=[
            f"scaled problem: grid {grid}, degree {degree} "
            f"(paper: grid {PAPER_GRID}, degree {PAPER_DEGREE}); the degree is scaled with the "
            "problem difficulty so the solve spans multiple restart cycles, as in the paper",
            "preconditioner construction is excluded from solve times, as in the paper",
        ],
    )
