"""Linear solvers: GMRES(m) and its multiprecision variants.

* :func:`~repro.solvers.gmres.gmres` — restarted GMRES in one working
  precision (the paper's Algorithm 1 / baseline).
* :func:`~repro.solvers.gmres_ir.gmres_ir` — GMRES with iterative
  refinement (Algorithm 2): fp32 inner cycles, fp64 refinement.
* :func:`~repro.solvers.gmres_fd.gmres_fd` — the Float→Double switching
  solver the paper compares against (Section III-C).
* :func:`~repro.solvers.ir_three_precision.gmres_ir_three_precision` —
  half/single/double refinement, the paper's future-work extension.
* :func:`~repro.solvers.cg.cg` — preconditioned conjugate gradients for the
  SPD problems.
* :func:`~repro.solvers.block_gmres.block_gmres`,
  :func:`~repro.solvers.block_gmres.block_gmres_ir` and
  :func:`~repro.solvers.block_gmres.solve_many` — the batched
  multi-right-hand-side path.

Every entry point follows one contract, written once in
:mod:`repro.solvers.driver`: ``control=`` bounds the solve by deadline,
cancellation or iteration budget; a non-finite residual ends it with
``BREAKDOWN``; a zero right-hand side returns zero; ``probe=`` sees one
event per restart or refinement boundary and exactly one terminal event,
last.  GMRES and GMRES-IR each have one driver body for every width
(``gmres``/``gmres_ir`` call it with a vector, ``block_gmres``/
``block_gmres_ir`` with an ``(n, k)`` block); both bodies and the
three-precision IR are one restart loop with different steps.  GMRES-FD
chains two GMRES runs and reports them as one solve.  Every GMRES step
runs one Arnoldi cycle, :func:`~repro.solvers.gmres.run_cycle`, on one
workspace type and with one stop rule for vectors and blocks alike: a
non-finite Arnoldi norm, or the collapse of every new basis vector, ends
the cycle.
"""

from .result import (
    ConvergenceHistory,
    MultiSolveResult,
    ResultLike,
    SolveResult,
    SolverStatus,
)
from .status import (
    LossOfAccuracyTest,
    SolveControl,
    StagnationTest,
)
from .gmres import gmres, run_cycle, GmresWorkspace, CycleOutcome
from .gmres_ir import gmres_ir
from .gmres_fd import gmres_fd
from .cg import cg
from .ir_three_precision import gmres_ir_three_precision
from .block_gmres import block_gmres, block_gmres_ir, solve_many

__all__ = [
    "ConvergenceHistory",
    "ResultLike",
    "SolveResult",
    "MultiSolveResult",
    "SolverStatus",
    "LossOfAccuracyTest",
    "StagnationTest",
    "SolveControl",
    "gmres",
    "run_cycle",
    "GmresWorkspace",
    "CycleOutcome",
    "gmres_ir",
    "gmres_fd",
    "cg",
    "gmres_ir_three_precision",
    "block_gmres",
    "block_gmres_ir",
    "solve_many",
]
