"""GMRES-FD — the "Float→Double" precision-switching solver (Section III-C).

The first inclination for a multiprecision GMRES: run restarted GMRES
entirely in fp32 for some number of iterations, then switch the whole
solver to fp64, using the fp32 solution as the initial guess.  The paper
evaluates this against GMRES-IR in Figures 1 and 2 and finds it both
awkward (the switch point must be tuned per problem) and, on some problems
(UniFlow2D), largely ineffective — the fp64 phase cannot exploit the
eigenvector information the fp32 phase built, so it almost starts over.

The implementation simply composes two :func:`repro.solvers.gmres.gmres`
runs and merges their histories and timers; the solution cast at the switch
is metered.  Each phase runs its cycles on its own
:class:`~repro.solvers.gmres.GmresWorkspace`, the one workspace type of
every GMRES cycle, in its own precision (the fp32 and fp64 phases cannot
share buffers), so the only per-switch allocations are the two phase
workspaces and the one metered cast.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..linalg import kernels
from ..ortho import OrthogonalizationManager
from ..perfmodel.timer import KernelTimer, use_timer
from ..precision import Precision, as_precision
from ..preconditioners.base import Preconditioner
from ..sparse.csr import CsrMatrix
from .driver import Ending, finish, resolve_budget, shifted_probe
from .gmres import gmres
from .result import ConvergenceHistory, SolveResult
from .status import SolveControl

__all__ = ["gmres_fd"]


def gmres_fd(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    switch_iteration: int,
    low_precision: Union[str, Precision] = "single",
    high_precision: Union[str, Precision] = "double",
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "cgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    fp64_check: bool = True,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve ``A x = b`` with fp32 GMRES(m) switching to fp64 GMRES(m).

    Parameters
    ----------
    switch_iteration:
        Number of low-precision iterations before switching (the paper
        sweeps this in multiples of the restart length — Figures 1 and 2).
        Zero means a pure high-precision solve.
    low_precision / high_precision:
        Precisions before and after the switch (single / double in the paper).
    max_iterations / max_restarts:
        One budget for the whole solve: the high-precision phase gets what
        the low-precision phase left over.
    control / probe:
        Forwarded to both phases.  The probe sees one solve: the
        high-precision phase's events continue the low-precision phase's
        iteration and restart counts, and one terminal event ends it.
    Everything else:
        As in :func:`repro.solvers.gmres.gmres`.  The same preconditioner
        object is used in both phases; it is wrapped to each phase's working
        precision automatically.
    """
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    if switch_iteration < 0:
        raise ValueError("switch_iteration must be non-negative")
    low = as_precision(low_precision)
    high = as_precision(high_precision)
    solver_name = name or f"gmres({restart})-fd@{switch_iteration}"
    timer = timer or KernelTimer(solver_name)
    phase = dict(
        restart=restart, tol=tol, preconditioner=preconditioner, ortho=ortho,
        fp64_check=False, control=control,
    )

    with use_timer(timer):
        # Phase 1: low precision, capped at the switch point.
        if switch_iteration > 0:
            first = gmres(
                matrix, b, x0, precision=low, name=f"{solver_name}-low",
                max_iterations=min(switch_iteration, max_iterations),
                max_restarts=max_restarts, probe=shifted_probe(probe), **phase,
            )
            x_switch = kernels.cast(first.x, high)
            history = first.history
            low_iterations, low_restarts = first.iterations, first.restarts
        else:
            x_switch = np.asarray(
                x0 if x0 is not None else np.zeros(matrix.n_rows), dtype=high.dtype
            )
            history = ConvergenceHistory()
            low_iterations = low_restarts = 0

        # Phase 2: high precision from the switched initial guess, on what
        # is left of the budget.
        second = gmres(
            matrix, b, x_switch, precision=high, name=f"{solver_name}-high",
            max_iterations=max(0, max_iterations - low_iterations),
            max_restarts=max(0, max_restarts - low_restarts),
            probe=shifted_probe(probe, low_iterations, low_restarts), **phase,
        )

    ending = Ending(
        second.status,
        low_iterations + second.iterations,
        low_restarts + second.restarts,
        second.relative_residual,
    )
    return finish(
        matrix, b, second.x, ending,
        history=history.merged_with(second.history, iteration_offset=low_iterations),
        timer=timer, solver="gmres-fd", precision=f"{low.name}->{high.name}",
        fp64_check=fp64_check, probe=probe,
        details={
            "switch_iteration": switch_iteration,
            "restart": restart,
            "tolerance": tol,
            "low_iterations": low_iterations,
            "high_iterations": second.iterations,
        },
    )
