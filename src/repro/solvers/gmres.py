"""Restarted GMRES(m) — the paper's Algorithm 1.

Right-preconditioned GMRES with two-pass classical Gram-Schmidt
orthogonalization (CGS2), Givens-rotation least squares, an implicit
residual estimate monitored every iteration, and the true residual
recomputed at every restart.  Everything runs in a single *working
precision* (the Belos solvers are templated on one scalar type); the
multiprecision variants (GMRES-IR, GMRES-FD) are built on top of the cycle
routine exported here.

The solver is deliberately faithful to the kernel sequence of the Belos
implementation the paper measures, because those kernel calls are what the
performance model meters:

* per iteration: 1 SpMV (plus the preconditioner's SpMVs), 2× GEMV-T and
  2× GEMV-N (CGS2), one norm, one vector scale;
* per restart: an SpMV + axpy to recompute the true residual, a small
  host-side triangular solve, one GEMV-N to form the solution update, and
  one extra preconditioner application (right preconditioning recovers
  ``x = x0 + M V y``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..linalg import kernels
from ..linalg.dense import GivensWorkspace
from ..linalg.multivector import MultiVector
from ..ortho import OrthogonalizationManager, make_ortho_manager
from ..perfmodel.timer import KernelTimer, use_timer
from ..precision import Precision, as_precision
from ..preconditioners.base import Preconditioner
from ..sparse.csr import CsrMatrix
from .driver import (
    Columns,
    Step,
    as_preconditioner,
    finish_columns,
    resolve_budget,
    resolve_workspace,
    restart_loop,
)
from .result import SolveResult
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = ["gmres", "run_gmres_cycle", "CycleOutcome", "GmresWorkspace"]

#: Subdiagonal entries below this absolute value are treated as a lucky breakdown.
BREAKDOWN_TOLERANCE = 1e-30


@dataclass
class CycleOutcome:
    """Result of one GMRES(m) restart cycle."""

    update: np.ndarray
    iterations: int
    implicit_norms: List[float] = field(default_factory=list)
    breakdown: bool = False

    @property
    def final_implicit_norm(self) -> float:
        return self.implicit_norms[-1] if self.implicit_norms else float("inf")


class GmresWorkspace:
    """Pre-allocated storage reused across restart cycles.

    Holds the Krylov basis :class:`MultiVector` (``n × (m+1)``) and the
    Givens workspace for the Hessenberg least-squares problem, both in the
    working precision.  GMRES-IR keeps one of these for its inner fp32
    solver and reuses it across refinement steps — just like the Belos
    solver object the paper's implementation re-feeds with new right-hand
    sides.

    It also owns the scratch vectors of the steady-state iteration, so a
    solve allocates nothing once the workspace exists:

    * ``w`` / ``r`` — driver scratch for the restart-time true residual
      (``w = A x``, ``r = b - w``);
    * ``z`` — preconditioned-vector buffer inside the cycle (also reused
      for the cycle-final right-preconditioner application);
    * ``update`` — the solution update ``V y`` of a cycle;
    * ``hcol`` — Hessenberg-column-length buffer for the triangular-solve
      coefficients ``y`` at the end of a cycle.

    ``update``/``z`` are handed out through :class:`CycleOutcome`, so the
    outcome of a cycle is only valid until the next cycle runs on the same
    workspace — every solver consumes it immediately.
    """

    def __init__(self, n: int, restart: int, precision) -> None:
        self.precision = as_precision(precision)
        self.restart = int(restart)
        self.basis = MultiVector(n, self.restart + 1, self.precision)
        self.givens = GivensWorkspace(self.restart, dtype=self.precision.dtype)
        dtype = self.precision.dtype
        self.w = np.empty(n, dtype=dtype)
        self.r = np.empty(n, dtype=dtype)
        self.z = np.empty(n, dtype=dtype)
        self.update = np.empty(n, dtype=dtype)
        self.hcol = np.empty(self.restart + 1, dtype=dtype)

    def storage_bytes(self) -> int:
        """Device memory held by the Krylov basis (for OOM checks)."""
        return self.basis.storage_bytes()

    def accommodates(self, n: int, restart: int, precision) -> bool:
        """True if this workspace can run a solve of the given shape.

        Reusable for any solve on the same vector length and precision
        whose restart does not exceed the capacity it was built with
        (cycles are capped by ``max_steps``, so a longer-restart workspace
        yields bit-identical numerics to a fresh exact-size one).
        """
        return (
            self.basis.length == n
            and self.restart >= restart
            and self.precision.dtype == as_precision(precision).dtype
        )


def run_gmres_cycle(
    matrix: CsrMatrix,
    residual: np.ndarray,
    residual_norm: float,
    workspace: GmresWorkspace,
    *,
    ortho: OrthogonalizationManager,
    preconditioner: Preconditioner,
    absolute_target: Optional[float] = None,
    max_steps: Optional[int] = None,
    control: Optional[SolveControl] = None,
) -> CycleOutcome:
    """Run one restart cycle of GMRES(m) and return the solution update.

    Parameters
    ----------
    matrix:
        System matrix in the working precision.
    residual:
        Current residual ``b - A x`` (the cycle's right-hand side), already
        in the working precision.  Not modified.
    residual_norm:
        Its 2-norm (computed by the caller, who usually needs it anyway).
    workspace:
        Pre-allocated basis and Givens storage (defines the restart length).
    ortho:
        Orthogonalization manager (CGS2 in the paper).
    preconditioner:
        Right preconditioner in the working precision
        (:class:`IdentityPreconditioner` when unpreconditioned).
    absolute_target:
        If given, the cycle stops early once the implicit residual estimate
        drops below this absolute value (standard GMRES monitors its
        implicit residual).  GMRES-IR passes ``None``: its inner fp32
        residuals "give little information about the convergence of the
        overall problem", so inner cycles always run the full ``m`` steps.
    max_steps:
        Optional cap below the restart length (used by GMRES-FD to stop at
        the precision-switch iteration).
    control:
        Optional :class:`~repro.solvers.SolveControl` polled every
        ``control.check_interval`` Arnoldi steps; when it demands a stop
        the cycle ends early and still returns the partial update (the
        driver classifies the terminal status at the restart boundary).

    Returns
    -------
    CycleOutcome
        The (right-preconditioned) solution update ``M V y`` and the
        per-iteration implicit residual norms (absolute).  The update
        vector is a view into the workspace's scratch and is only valid
        until the next cycle runs on the same workspace; callers fold it
        into their solution immediately.
    """
    dtype = workspace.precision.dtype
    if matrix.dtype != dtype:
        raise TypeError(
            f"matrix precision {matrix.dtype.name} does not match the "
            f"workspace precision {dtype.name}"
        )
    if residual.dtype != dtype:
        raise TypeError("residual precision does not match the workspace precision")

    basis = workspace.basis
    givens = workspace.givens
    basis.reset()
    givens.reset(residual_norm)

    steps = workspace.restart if max_steps is None else min(max_steps, workspace.restart)
    if residual_norm <= 0.0 or steps == 0:
        workspace.update[:] = 0
        return CycleOutcome(update=workspace.update, iterations=0)

    basis.append(residual)
    kernels.scal(1.0 / residual_norm, basis.column(0))

    implicit_norms: List[float] = []
    breakdown = False
    iterations = 0

    for j in range(steps):
        v_j = basis.column(j)
        z = v_j if preconditioner.is_identity else preconditioner.apply(v_j, out=workspace.z)
        # The SpMV writes straight into the next basis column (a contiguous
        # view of the Fortran-ordered block), so forming the new Arnoldi
        # vector neither allocates nor copies.
        w = kernels.spmv(matrix, z, out=basis.column(j + 1))
        h, h_next = ortho.orthogonalize(basis, w)
        implicit = givens.append_column(h, h_next)
        implicit_norms.append(implicit)
        iterations += 1
        if control is not None:
            control.charge(1)

        # A vanishing subdiagonal is a lucky breakdown; an overflowed or NaN
        # one leaves no usable next basis vector either (1/inf scales it to
        # zero and R would get a zero diagonal), so both end the cycle.
        if not BREAKDOWN_TOLERANCE < h_next < math.inf:
            breakdown = True
            break
        # The next basis vector is always formed (Belos does the same); it is
        # simply unused when the cycle ends at this iteration.
        kernels.scal(1.0 / h_next, w)
        basis.set_count(j + 2)  # column j+1 is already in place
        if absolute_target is not None and implicit <= absolute_target:
            break
        if (
            control is not None
            and iterations % control.check_interval == 0
            and control.poll() is not None
        ):
            break

    y = givens.solve(out=workspace.hcol[:iterations])
    update = basis.combine(y, j=iterations, out=workspace.update)
    if not preconditioner.is_identity:
        update = preconditioner.apply(update, out=workspace.z)
    return CycleOutcome(
        update=update,
        iterations=iterations,
        implicit_norms=implicit_norms,
        breakdown=breakdown,
    )


def gmres(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    precision: Union[str, Precision, None] = None,
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "cgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    loss_of_accuracy_check: bool = True,
    stagnation: Optional[StagnationTest] = None,
    fp64_check: bool = True,
    workspace: Optional[GmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve ``A x = b`` with restarted GMRES(m) in a single working precision.

    Parameters
    ----------
    matrix:
        System matrix (any precision; converted to the working precision —
        the one-time conversion is not metered, matching how the paper
        excludes the fp32 matrix copy from solve times).
    b, x0:
        Right-hand side and optional initial guess (default zero).
    precision:
        Working precision (default: the matrix's own precision).
    restart:
        Restart length ``m`` (default 50, the paper's setting).
    tol:
        Relative residual tolerance ``||b - A x|| / ||b||`` (default 1e-10).
    max_iterations / max_restarts:
        Iteration budget; whichever is hit first terminates the solve.
    preconditioner:
        Right preconditioner.  If its precision differs from the working
        precision it is wrapped so every application casts (and is charged
        for) the conversion — the paper's "fp32 preconditioner with fp64
        GMRES" configuration.
    ortho:
        Orthogonalization: ``"cgs2"`` (paper default), ``"cgs"`` or ``"mgs"``.
    timer:
        Optional existing :class:`KernelTimer` to record into (a fresh one
        is created otherwise and attached to the result).
    loss_of_accuracy_check:
        Detect implicit/explicit residual divergence and stop with
        ``SolverStatus.LOSS_OF_ACCURACY`` (Section V-F behaviour).
    stagnation:
        Optional :class:`StagnationTest` applied to the explicit residuals.
        It is a template: the solve runs its own copy, so one test can be
        passed to many solves.
    fp64_check:
        Also report the final residual recomputed in fp64 (unmetered).
    workspace:
        Optional pre-allocated :class:`GmresWorkspace` to reuse (must
        accommodate this solve's shape).  The serve layer pools one for
        its width-1 dispatches; numerics are bit-identical to a fresh
        workspace.
    control:
        Optional :class:`~repro.solvers.SolveControl` — a cooperative
        deadline / cancellation / iteration-budget token polled at every
        restart boundary and every ``control.check_interval`` inner
        iterations.  A triggered control terminates the solve with status
        ``TIMED_OUT``, ``CANCELLED`` or ``MAX_ITERATIONS`` and returns the
        best iterate reached so far.
    probe:
        Optional convergence probe — a callable fed one
        :class:`~repro.obs.ProbeEvent` per restart boundary (the explicit
        relative residual the solver already computes there) plus one
        terminal event carrying the final status.  See
        :mod:`repro.obs.probe`.

    Returns
    -------
    SolveResult
    """
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    prec = as_precision(precision if precision is not None else matrix.dtype)
    ortho_mgr = make_ortho_manager(ortho) if isinstance(ortho, str) else ortho

    A = matrix.astype(prec)
    n = A.n_rows
    cols = Columns(b, x0, n, prec.dtype, vector=True)
    precond = as_preconditioner(preconditioner, prec)
    workspace = resolve_workspace(workspace, GmresWorkspace, n, restart, prec)
    timer = timer or KernelTimer(name or f"gmres({restart})-{prec.name}")

    def cycle(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        targets = tol * cols.bnorms[:1]
        outcome = run_gmres_cycle(
            A, R[:, 0], rnorms[0], workspace, ortho=ortho_mgr, preconditioner=precond,
            absolute_target=targets[0], max_steps=min(restart, remaining),
            control=control,
        )
        kernels.axpy(1.0, outcome.update, cols.X[:, 0])
        # After a breakdown the true residual decides, as in GMRES-IR.
        return Step(
            outcome.iterations, outcome.implicit_norms,
            outcome.iterations == 0 or outcome.breakdown, targets,
        )

    with use_timer(timer):
        restart_loop(
            A, cols, cycle,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            scratch=(workspace.w, workspace.r), solver="gmres",
            control=control, probe=probe, stagnation=stagnation,
            loss_of_accuracy=LossOfAccuracyTest(tolerance=tol) if loss_of_accuracy_check else None,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver="gmres", precision=prec.name,
        fp64_check=fp64_check, probe=probe,
        details={
            "restart": restart,
            "tolerance": tol,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "basis_bytes": workspace.storage_bytes(),
        },
    )
