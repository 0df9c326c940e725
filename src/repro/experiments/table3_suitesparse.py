"""Table III — GMRES double vs GMRES-IR on the SuiteSparse suite (proxies).

Paper setup: ten SuiteSparse matrices plus the four Galeri PDE problems of
the earlier sections, solved with GMRES(50) double and GMRES(50)-IR at
tolerance 1e-10; some rows use block Jacobi after an RCM reordering
(``J 1``, ``J 42``) and some a degree-25 GMRES polynomial (``p 25``).
Headline observations:

* GMRES-IR tends to give speedup (1.08–1.58×) on matrices that need many
  hundreds or thousands of iterations;
* on matrices that converge in very few iterations the extra iterations of
  GMRES-IR cancel the per-kernel gains (speedups 0.92–0.98×);
* ``parabolic_fem`` is an outlier where GMRES-IR convergence diverges from
  GMRES double (flagged by the authors for further investigation).

This reproduction runs the same protocol on the structural proxies of
:mod:`repro.matrices.suitesparse_proxies` (the collection itself is not
shipped with the package) plus the scaled Galeri problems, and
reports measured vs paper values per row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..matrices import bentpipe2d, laplace3d, stretched2d, uniflow2d
from ..matrices.suitesparse_proxies import PROXY_SPECS, ProxySpec
from ..preconditioners import (
    BlockJacobiPreconditioner,
    GmresPolynomialPreconditioner,
    JacobiPreconditioner,
)
from ..sparse.csr import CsrMatrix
from ..sparse.ordering import permute_symmetric, reverse_cuthill_mckee
from ..sparse.properties import avg_nonzeros_per_row
from ..solvers import gmres, gmres_ir
from .common import ExperimentConfig, ExperimentReport, solve_on_scaled_device

__all__ = ["run", "PAPER_REFERENCE", "GALERI_ROWS"]

PAPER_REFERENCE = {
    "speedup range where IR helps": "1.08x - 1.58x",
    "where IR does not help": "matrices converging in very few iterations (0.92x - 0.98x)",
    "reordering": "lung2 and hood are RCM-reordered before block Jacobi",
    "galeri rows": "BentPipe2D1500 1.32x, UniFlow2D2500 1.40x, Laplace3D150 1.44x, Stretched2D1500 1.58x",
}

#: The Galeri rows at the bottom of Table III: (paper name, builder, paper n,
#: paper nnz, preconditioner, paper double time/iters, paper IR time/iters, speedup).
GALERI_ROWS: Tuple[tuple, ...] = (
    ("BentPipe2D1500", bentpipe2d, 96, 1500 ** 2, None, 50.26, 12967, 38.03, 13150, 1.32),
    ("UniFlow2D2500", uniflow2d, 96, 2500 ** 2, None, 29.62, 2905, 21.17, 3000, 1.40),
    ("Laplace3D150", laplace3d, 24, 150 ** 3, None, 16.93, 2387, 11.75, 2400, 1.44),
    ("Stretched2D1500", stretched2d, 128, 1500 ** 2, ("poly", 10), 22.66, 482, 14.37, 500, 1.58),
)


def _build_preconditioners(
    matrix: CsrMatrix, assignment: Optional[Tuple[str, int]]
) -> Tuple[Optional[object], Optional[object]]:
    """Return (fp64 preconditioner, fp32 preconditioner) for one table row."""
    if assignment is None:
        return None, None
    kind, param = assignment
    if kind == "jacobi":
        return (
            JacobiPreconditioner(matrix, precision="double"),
            JacobiPreconditioner(matrix, precision="single"),
        )
    if kind == "block_jacobi":
        return (
            BlockJacobiPreconditioner(matrix, block_size=param, precision="double"),
            BlockJacobiPreconditioner(matrix, block_size=param, precision="single"),
        )
    if kind == "poly":
        return (
            GmresPolynomialPreconditioner(matrix, degree=param, precision="double"),
            GmresPolynomialPreconditioner(matrix, degree=param, precision="single"),
        )
    raise ValueError(f"unknown preconditioner assignment {assignment!r}")


def _run_row(
    name: str,
    matrix: CsrMatrix,
    paper_n: int,
    assignment: Optional[Tuple[str, int]],
    cfg: ExperimentConfig,
    *,
    rcm: bool,
    max_restarts: int,
) -> Dict[str, object]:
    if rcm:
        perm = reverse_cuthill_mckee(matrix)
        matrix = permute_symmetric(matrix, perm)
    prec64, prec32 = _build_preconditioners(matrix, assignment)
    double = solve_on_scaled_device(
        gmres, matrix, paper_n,
        precision="double", restart=cfg.restart, tol=cfg.tol,
        preconditioner=prec64, max_restarts=max_restarts,
    )
    mixed = solve_on_scaled_device(
        gmres_ir, matrix, paper_n,
        restart=cfg.restart, tol=cfg.tol,
        preconditioner=prec32, max_restarts=max_restarts,
    )
    prec_label = "" if assignment is None else f"{assignment[0][0].upper()} {assignment[1]}"
    return {
        "matrix": name,
        "n": matrix.n_rows,
        "nnz": matrix.nnz,
        "nnz/row": avg_nonzeros_per_row(matrix),
        "prec": prec_label,
        "double status": double.status.value[:4],
        "double iters": double.iterations,
        "double time [model s]": double.model_seconds,
        "IR status": mixed.status.value[:4],
        "IR iters": mixed.iterations,
        "IR time [model s]": mixed.model_seconds,
        "speedup": double.model_seconds / mixed.model_seconds
        if mixed.model_seconds
        else float("nan"),
    }


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    include_galeri: bool = True,
    proxy_names: Optional[List[str]] = None,
    max_restarts: int = 240,
) -> ExperimentReport:
    """Run the Table III survey on the proxy suite (plus the Galeri rows)."""
    cfg = config or ExperimentConfig()
    names = proxy_names if proxy_names is not None else list(PROXY_SPECS)
    if cfg.quick:
        # Keep one representative of each difficulty class in quick mode.
        quick_set = ["atmosmodj", "stomach", "hood", "Transport"]
        names = [n for n in names if n in quick_set]

    rows: List[Dict[str, object]] = []
    for name in names:
        spec: ProxySpec = PROXY_SPECS[name]
        matrix = spec.build()
        assignment = spec.preconditioner_at_scale()
        needs_rcm = assignment is not None and assignment[0] in ("jacobi", "block_jacobi")
        row = _run_row(
            name, matrix, spec.original_n, assignment, cfg,
            rcm=needs_rcm, max_restarts=max_restarts,
        )
        row["paper iters (double)"] = spec.paper_double_iters
        row["paper speedup"] = spec.paper_speedup
        rows.append(row)

    if include_galeri and not cfg.quick:
        for (
            name, builder, grid, paper_n, assignment,
            _pt, p_iters, _pit, _piters, p_speedup,
        ) in GALERI_ROWS:
            matrix = builder(grid) if name != "Stretched2D1500" else builder(grid, stretch=8)
            row = _run_row(
                name, matrix, paper_n, assignment, cfg, rcm=False, max_restarts=max_restarts
            )
            row["paper iters (double)"] = p_iters
            row["paper speedup"] = p_speedup
            rows.append(row)

    return ExperimentReport(
        experiment="Table III",
        title="GMRES double vs GMRES-IR across the SuiteSparse proxy suite and Galeri problems",
        rows=rows,
        columns=[
            "matrix",
            "n",
            "nnz",
            "prec",
            "double iters",
            "double time [model s]",
            "IR iters",
            "IR time [model s]",
            "speedup",
            "paper iters (double)",
            "paper speedup",
        ],
        parameters={"restart": cfg.restart, "tolerance": cfg.tol},
        paper_reference=PAPER_REFERENCE,
        notes=[
            "SuiteSparse matrices are replaced by structural proxies (no collection access); "
            "see repro.matrices.suitesparse_proxies for the per-matrix recipe",
            "parabolic_fem: the paper's 0.92x slowdown is a known mismatch at proxy scale "
            "(see the proxy's notes)",
        ],
    )
