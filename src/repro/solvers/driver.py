"""The single-vector solver contract, written once.

The paper's GMRES (Algorithm 1) and GMRES-IR (Algorithm 2) are the same
loop: recompute the true residual ``r = b - A x``, decide whether to stop,
and otherwise take one step that improves ``x``.  They differ only in the
step — one same-precision GMRES(m) cycle, or cast → inner-precision cycles
→ cast back.  :func:`restart_loop` is that loop, and it owns everything at
the restart boundary, so every driver gets the same contract:

* the explicit residual, its history entry and its probe event;
* the stop checks, in order: converged, non-finite residual →
  ``BREAKDOWN``, the :class:`~repro.solvers.SolveControl` demand, loss of
  accuracy, stagnation, and the iteration / restart budget;
* a zero right-hand side, whose solution is zero;
* a step that can make no further progress, which is verified once with
  the true residual (``CONVERGED`` or ``BREAKDOWN``).

:func:`finish` emits the one terminal probe event, runs the optional fp64
accuracy check and builds the :class:`~repro.solvers.SolveResult`.
:func:`shifted_probe` lets a composed solve — GMRES-FD's two phases, the
chunks of :func:`~repro.solvers.solve_many` — report as one solve.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..config import get_config
from ..linalg import kernels
from ..obs.probe import ProbeEvent
from ..precision import Precision, as_precision
from ..preconditioners.base import IdentityPreconditioner, Preconditioner
from ..preconditioners.mixed import wrap_for_precision
from ..sparse.csr import CsrMatrix
from .result import ConvergenceHistory, SolveResult, SolverStatus
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = [
    "Step",
    "Ending",
    "resolve_budget",
    "as_preconditioner",
    "resolve_workspace",
    "prepare_vector",
    "restart_loop",
    "finish",
    "shifted_probe",
    "fp64_relative_residual",
]


class Step(NamedTuple):
    """What one step of :func:`restart_loop` did: its inner iterations, their
    absolute implicit residual norms, and whether it was the last step that
    can make progress (the loop then verifies the iterate once and stops)."""

    iterations: int
    implicit: Sequence[float]
    final: bool = False


class Ending(NamedTuple):
    """How a solve ended: status, inner iterations, restarts, residual."""

    status: SolverStatus
    iterations: int
    restarts: int
    residual: float


def resolve_budget(
    restart: Optional[int],
    tol: Optional[float],
    max_iterations: Optional[int],
    max_restarts: Optional[int],
) -> Tuple[int, float, int, int]:
    """Fill unset restart / tolerance / budget arguments from the config."""
    cfg = get_config()
    restart = cfg.restart if restart is None else int(restart)
    tol = cfg.rtol if tol is None else float(tol)
    max_restarts = cfg.max_restarts if max_restarts is None else int(max_restarts)
    if max_iterations is None:
        max_iterations = restart * max_restarts
    return restart, tol, max_iterations, max_restarts


def as_preconditioner(
    preconditioner: Optional[Preconditioner], precision: Precision
) -> Preconditioner:
    """The identity, or ``preconditioner`` wrapped to ``precision``."""
    if preconditioner is None:
        return IdentityPreconditioner(precision=precision)
    return wrap_for_precision(preconditioner, precision)


def resolve_workspace(workspace, make, *shape):
    """A caller's pooled workspace checked against this solve, or a fresh one.

    ``shape`` is what both ``make`` and the workspace's ``accommodates``
    take: ``(n, restart[, block_size], precision)``.  The serve layer pools
    workspaces so steady-state serving allocates no Krylov storage.
    """
    if workspace is None:
        return make(*shape)
    if not workspace.accommodates(*shape):
        *dims, precision = shape
        raise ValueError(
            f"provided {type(workspace).__name__} (n={workspace.basis.length}, "
            f"restart={workspace.restart}, {workspace.precision.name}) cannot "
            f"accommodate a solve of shape {tuple(dims)} in "
            f"{as_precision(precision).name}"
        )
    return workspace


def prepare_vector(
    b: np.ndarray, x0: Optional[np.ndarray], n: int, precision: Precision
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate ``b`` and return it with a private copy of ``x0`` (or zeros)."""
    b_work = np.asarray(b, dtype=precision.dtype)
    if b_work.shape != (n,):
        raise ValueError(f"right-hand side must have length {n}")
    if x0 is None:
        return b_work, np.zeros(n, dtype=precision.dtype)
    return b_work, np.asarray(x0, dtype=precision.dtype).copy()


def restart_loop(
    A: CsrMatrix,
    b: np.ndarray,
    x: np.ndarray,
    bnorm: float,
    step: Callable[[np.ndarray, float, int], Step],
    *,
    tol: float,
    max_iterations: int,
    max_restarts: int,
    history: ConvergenceHistory,
    scratch: Tuple[np.ndarray, np.ndarray],
    solver: str,
    kind: str = "restart",
    label: Optional[str] = None,
    control: Optional[SolveControl] = None,
    probe=None,
    loss_of_accuracy: Optional[LossOfAccuracyTest] = None,
    stagnation: Optional[StagnationTest] = None,
) -> Ending:
    """Run restarts until a stop check fires; ``x`` is updated in place.

    Each pass recomputes ``r = b - A x`` into ``scratch`` (booked under
    ``label`` when given, e.g. GMRES-IR's ``"Residual"``), records it,
    feeds ``probe`` one ``kind`` event and applies the stop checks.  If
    none fires, ``step(r, ||r||, remaining_iterations)`` improves ``x``
    and reports a :class:`Step`.  Must run inside the solve's
    :func:`~repro.perfmodel.timer.use_timer` block, like ``bnorm``.
    """
    if bnorm == 0.0:
        x[:] = 0
        return Ending(SolverStatus.CONVERGED, 0, 0, 0.0)
    w_buf, r_buf = scratch
    labelled = {} if label is None else {"label": label}

    def explicit_residual():
        w = kernels.spmv(A, x, out=w_buf, **labelled)
        r = kernels.copy(b, out=r_buf, **labelled)
        kernels.axpy(-1.0, w, r, **labelled)
        return r, kernels.norm2(r, **labelled)

    iterations = 0
    restarts = 0
    pending_implicit: Optional[float] = None
    while True:
        r, rnorm = explicit_residual()
        relative = rnorm / bnorm
        history.record_explicit(iterations, relative)
        if probe is not None:
            probe(ProbeEvent(solver, kind, iterations, restarts, relative))

        status = None
        if relative <= tol:
            status = SolverStatus.CONVERGED
        elif not np.isfinite(relative):
            # A NaN/Inf residual means a working precision broke down
            # (overflow, or an injected fault); no amount of further
            # iteration recovers, so classify instead of looping.
            status = SolverStatus.BREAKDOWN
        elif control is not None and (demanded := control.poll()) is not None:
            status = demanded
        elif (
            loss_of_accuracy is not None
            and pending_implicit is not None
            and loss_of_accuracy.triggered(pending_implicit / bnorm, relative)
        ):
            status = SolverStatus.LOSS_OF_ACCURACY
        elif stagnation is not None and stagnation.update(relative):
            status = SolverStatus.STAGNATION
        elif iterations >= max_iterations or restarts >= max_restarts:
            status = SolverStatus.MAX_ITERATIONS
        if status is not None:
            return Ending(status, iterations, restarts, relative)

        taken = step(r, rnorm, max_iterations - iterations)
        for k, implicit_abs in enumerate(taken.implicit, start=1):
            history.record_implicit(iterations + k, implicit_abs / bnorm)
        iterations += taken.iterations
        restarts += 1
        pending_implicit = taken.implicit[-1] if taken.implicit else float("inf")
        if taken.final:
            # Nothing more the step can do: the true residual decides.
            r, rnorm = explicit_residual()
            relative = rnorm / bnorm
            history.record_explicit(iterations, relative)
            status = SolverStatus.CONVERGED if relative <= tol else SolverStatus.BREAKDOWN
            return Ending(status, iterations, restarts, relative)


def finish(
    matrix: CsrMatrix,
    b: np.ndarray,
    x: np.ndarray,
    ending: Ending,
    *,
    history: ConvergenceHistory,
    timer,
    solver: str,
    precision: str,
    details: dict,
    fp64_check: bool,
    probe=None,
) -> SolveResult:
    """Emit the terminal probe event and build the :class:`SolveResult`."""
    if probe is not None:
        probe(ProbeEvent(
            solver=solver,
            kind="terminal",
            iteration=ending.iterations,
            restarts=ending.restarts,
            residual=ending.residual,
            status=ending.status,
        ))
    return SolveResult(
        x=x,
        status=ending.status,
        iterations=ending.iterations,
        restarts=ending.restarts,
        relative_residual=ending.residual,
        relative_residual_fp64=(
            fp64_relative_residual(matrix, b, x) if fp64_check else ending.residual
        ),
        history=history,
        timer=timer,
        solver=solver,
        precision=precision,
        details=details,
    )


def shifted_probe(probe, iteration: int = 0, restarts: int = 0):
    """Forward one part of a composed solve's events onto the whole solve.

    The part's ``iteration`` / ``restarts`` are shifted by the totals of
    the parts before it, and its own terminal event is dropped — the
    composer emits the one terminal event of the whole solve.
    """
    if probe is None:
        return None

    def forward(event: ProbeEvent) -> None:
        if event.kind != "terminal":
            probe(dataclasses.replace(
                event,
                iteration=event.iteration + iteration,
                restarts=event.restarts + restarts,
            ))

    return forward


def fp64_relative_residual(matrix: CsrMatrix, b: np.ndarray, x: np.ndarray) -> float:
    """Unmetered fp64 check of ``||b - A x|| / ||b||`` (accuracy verification)."""
    A64 = matrix.astype("double")
    b64 = np.asarray(b, dtype=np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    bnorm = float(np.linalg.norm(b64))
    if bnorm == 0.0:
        return float(np.linalg.norm(A64.matvec(x64)))
    return float(np.linalg.norm(b64 - A64.matvec(x64)) / bnorm)
