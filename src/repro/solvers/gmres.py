"""Restarted GMRES(m) — the paper's Algorithm 1.

Right-preconditioned GMRES with two-pass classical Gram-Schmidt
orthogonalization (CGS2), Givens-rotation least squares, an implicit
residual estimate monitored every iteration, and the true residual
recomputed at every restart.  Everything runs in a single *working
precision* (the Belos solvers are templated on one scalar type).

The module holds the one GMRES driver body, for every width: :func:`gmres`
runs it on a vector, :func:`~repro.solvers.block_gmres.block_gmres` on an
``(n, k)`` block of right-hand sides.  It also holds the one restarted
Arnoldi cycle every GMRES solver runs, :func:`run_cycle`, with its one
workspace type (:class:`GmresWorkspace`), outcome type
(:class:`CycleOutcome`) and stop rule.  A vector residual runs the
single-vector cycle below; an ``(n, k)`` residual block runs the same
cycle with SpMM and BLAS-3 block kernels (Block-GMRES), even at
``k = 1``.  The multiprecision variants (GMRES-IR, GMRES-FD, the
three-precision IR) are built on top of it.

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
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..linalg import kernels
from ..linalg.dense import GivensWorkspace
from ..linalg.multivector import MultiVector
from ..ortho import BREAKDOWN_TOLERANCE, OrthogonalizationManager, make_ortho_manager
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
    restart_loop,
)
from .result import MultiSolveResult, SolveResult
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = ["gmres", "run_cycle", "CycleOutcome", "GmresWorkspace", "resolve_ortho"]


class GmresWorkspace:
    """Pre-allocated storage reused across restart cycles of any width.

    Holds the Krylov basis :class:`MultiVector` (``n × (restart+1)·p``)
    and the :class:`~repro.linalg.dense.GivensWorkspace` of the Hessenberg
    least-squares problem, both in the working precision, plus the block
    scratch of the steady-state iteration, so a solve allocates nothing
    once the workspace exists.  ``block_size`` (``p``) is the widest cycle
    it serves; every buffer is an ``(n, p)`` block sliced to the active
    width — its first column for a single-vector cycle, its leading ``k``
    columns for a block (deflation shrinks ``k`` between cycles, and
    leading columns of Fortran-ordered blocks stay contiguous):

    * ``W`` / ``R`` — driver scratch for the restart-time true residual
      (``W = A X``, ``R = B - W``);
    * ``Z`` — preconditioner output inside the cycle (also reused for the
      cycle-final right-preconditioner application);
    * ``update`` — the solution update ``V Y`` of a cycle;
    * ``implicit`` — the per-(step, column) implicit residual norms.

    GMRES-IR keeps one of these for its inner fp32 solver and reuses it
    across refinement steps — just like the Belos solver object the
    paper's implementation re-feeds with new right-hand sides.  The
    outcome of a cycle holds views of this scratch, so it is only valid
    until the next cycle runs on the same workspace — every solver
    consumes it immediately.
    """

    def __init__(self, n: int, restart: int, precision, block_size: int = 1) -> None:
        if restart <= 0 or block_size <= 0:
            raise ValueError("restart and block_size must be positive")
        self.precision = as_precision(precision)
        self.restart = int(restart)
        self.block_size = int(block_size)
        dtype = self.precision.dtype
        self.basis = MultiVector(n, (self.restart + 1) * self.block_size, self.precision)
        self.givens = GivensWorkspace(
            self.restart * self.block_size, self.block_size, dtype=dtype
        )

        def block() -> np.ndarray:
            return np.empty((n, self.block_size), dtype=dtype, order="F")

        self.W, self.R, self.Z, self.update = block(), block(), block(), block()
        self.implicit = np.empty((self.restart, self.block_size), dtype=np.float64)
        self._gemm_work: dict = {}
        self._coefficients: dict = {}

    def gemm_work(self, k: int) -> np.ndarray:
        """Fortran-ordered ``(n, k)`` scratch for the BLAS-3 update kernels.

        It matches the layout of the Fortran blocks it updates, so
        ``gemm_notrans`` forms ``V Y`` in BLAS's tall-skinny orientation.
        """
        buf = self._gemm_work.get(k)
        if buf is None:
            buf = self._gemm_work[k] = np.empty(
                (self.basis.length, k), dtype=self.precision.dtype, order="F"
            )
        return buf

    def coefficients(self, k: int) -> np.ndarray:
        """C-contiguous ``(restart·k, k)`` buffer for the least-squares
        coefficients of a width-``k`` cycle."""
        buf = self._coefficients.get(k)
        if buf is None:
            buf = self._coefficients[k] = np.empty(
                (self.restart * k, k), dtype=self.precision.dtype
            )
        return buf

    def storage_bytes(self) -> int:
        """Device memory held by the Krylov basis (for OOM checks)."""
        return self.basis.storage_bytes()

    def accommodates(self, n: int, restart: int, precision, block_size: int = 1) -> bool:
        """True if this workspace can run a solve of the given shape.

        Reusable for any solve on the same vector length and precision
        whose restart and width do not exceed the capacities it was built
        with: cycles are capped by ``max_steps`` and every buffer is sliced
        to the active width, so a larger workspace yields bit-identical
        numerics to a fresh exact-size one.
        """
        return (
            self.basis.length == n
            and self.restart >= restart
            and self.block_size >= block_size
            and self.precision.dtype == as_precision(precision).dtype
        )


def resolve_workspace(
    workspace: Optional[GmresWorkspace], n: int, restart: int, precision, block_size: int = 1
) -> GmresWorkspace:
    """A caller's pooled workspace checked against this solve, or a fresh one.

    The serve layer pools workspaces so steady-state serving allocates no
    Krylov storage.
    """
    if workspace is None:
        return GmresWorkspace(n, restart, precision, block_size)
    if not workspace.accommodates(n, restart, precision, block_size):
        raise ValueError(
            f"provided GmresWorkspace (n={workspace.basis.length}, "
            f"restart={workspace.restart}, block_size={workspace.block_size}, "
            f"{workspace.precision.name}) cannot accommodate a solve of shape "
            f"{(n, restart, block_size)} in {as_precision(precision).name}"
        )
    return workspace


@dataclass
class CycleOutcome:
    """Result of one restart cycle.

    ``update`` is the ``(n,)`` or ``(n, k)`` right-preconditioned solution
    update ``M V Y``; ``implicit`` holds the absolute implicit residual
    norms, one row per Arnoldi step folded into the update and one column
    per right-hand side.  Both are views of workspace scratch.
    ``breakdown`` and ``nonfinite`` tell apart the two ends of the stop
    rule of :func:`run_cycle`: a lucky breakdown (every new column
    collapsed) and a non-finite norm.
    """

    update: np.ndarray
    iterations: int
    implicit: np.ndarray
    breakdown: bool = False
    nonfinite: bool = False

    @property
    def exhausted(self) -> bool:
        """True if the cycle ran no step or ended on the stop rule: its
        Krylov space holds nothing more for this residual."""
        return self.breakdown or self.nonfinite or self.iterations == 0


def resolve_ortho(
    ortho: Union[str, OrthogonalizationManager], ndim: int
) -> OrthogonalizationManager:
    """The orthogonalization manager a driver of operand ``ndim`` runs:
    ``1`` for the single-vector drivers, ``2`` for the block drivers."""
    manager = make_ortho_manager(ortho) if isinstance(ortho, str) else ortho
    if manager.ndim != ndim:
        kind = "single-vector" if ndim == 1 else "block"
        raise ValueError(f"{manager.name} orthogonalization does not serve a {kind} solver")
    return manager


def run_cycle(
    matrix: CsrMatrix,
    R: np.ndarray,
    workspace: GmresWorkspace,
    *,
    ortho: OrthogonalizationManager,
    preconditioner: Preconditioner,
    residual_norm: Optional[float] = None,
    absolute_targets: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
    control: Optional[SolveControl] = None,
) -> CycleOutcome:
    """Run one restart cycle of GMRES(m) and return the solution update.

    The width is the residual's: a vector ``R`` runs a single-vector
    cycle (SpMV, GEMV-based orthogonalization, one Givens rotation per
    step), an ``(n, k)`` block ``R`` a Block-GMRES cycle whose ``k``
    columns share one Krylov basis (one SpMM, BLAS-3 block
    orthogonalization and a band-Hessenberg QR per step) — even at
    ``k = 1``.  Each step is one preconditioner apply, one matrix
    product, one :meth:`~repro.ortho.OrthogonalizationManager.orthogonalize`
    and one :meth:`~repro.linalg.dense.GivensWorkspace.append`.

    One stop rule ends a cycle early, for every width: a step whose
    subdiagonal (the norm of a new basis vector) is non-finite
    (``nonfinite=True``; its values never reach the update), or whose
    every new column collapsed to at most
    :data:`~repro.ortho.BREAKDOWN_TOLERANCE` (``breakdown=True``, a lucky
    breakdown; the step is kept).  A single collapsed column of a wider
    block is zeroed by the orthogonalization and the cycle continues for
    the others.

    Parameters
    ----------
    matrix:
        System matrix in the working precision.
    R:
        Current residual ``b - A x`` (the cycle's right-hand side): a
        vector, or an ``(n, k)`` block with ``k`` up to
        ``workspace.block_size``; already in the working precision.  Not
        modified.
    workspace:
        Pre-allocated basis, Givens and block scratch (defines the
        restart length).
    ortho:
        Orthogonalization manager taking operands of ``R``'s ``ndim``
        (CGS2 / block CGS2 in the paper).
    preconditioner:
        Right preconditioner in the working precision
        (:class:`IdentityPreconditioner` when unpreconditioned).
    residual_norm:
        ``R``'s 2-norm, required for a vector (computed by the caller, who
        usually needs it anyway); a block takes its norms from the QR of
        ``R`` that seeds the basis.
    absolute_targets:
        If given, the cycle stops early once every column's implicit
        residual estimate is at or below its absolute target (columns
        share the basis, so none can leave mid-cycle).  GMRES-IR passes
        ``None``: its inner fp32 residuals "give little information about
        the convergence of the overall problem", so inner cycles always
        run the full ``m`` steps.
    max_steps:
        Optional cap below the restart length (used by GMRES-FD to stop at
        the precision-switch iteration).
    control:
        Optional whole-solve :class:`~repro.solvers.SolveControl`, charged
        one iteration per step and polled every ``control.check_interval``
        steps; when it demands a stop the cycle ends early and still
        returns the partial update (the driver classifies the terminal
        status at the restart boundary).
    """
    dtype = workspace.precision.dtype
    if matrix.dtype != dtype:
        raise TypeError(
            f"matrix precision {matrix.dtype.name} does not match the "
            f"workspace precision {dtype.name}"
        )
    if R.dtype != dtype:
        raise TypeError("residual precision does not match the workspace precision")
    if R.shape[0] != matrix.n_rows or ortho.ndim != R.ndim:
        raise ValueError(
            f"a residual of shape {R.shape} does not fit this matrix and "
            f"{ortho.name} orthogonalization"
        )
    vector = R.ndim == 1
    k = 1 if vector else R.shape[1]
    if not 0 < k <= workspace.block_size:
        raise ValueError(
            f"block width {k} out of range (workspace block size "
            f"{workspace.block_size})"
        )

    basis = workspace.basis
    givens = workspace.givens
    implicit = workspace.implicit
    if vector:
        # A vector runs on the first column of every buffer.
        column = basis.column
        update, Z_out = workspace.update[:, 0], workspace.Z[:, 0]
        apply, product = preconditioner.apply, kernels.spmv
    else:
        def column(start: int) -> np.ndarray:
            return basis.column_block(start, k)

        update, Z_out = workspace.update[:, :k], workspace.Z[:, :k]
        apply, product = preconditioner.apply_block, kernels.spmm
    basis.reset()
    steps = workspace.restart if max_steps is None else min(max_steps, workspace.restart)
    if steps <= 0 or (vector and residual_norm <= 0.0):
        update[...] = 0
        return CycleOutcome(update, 0, implicit[:0, :k])

    # Seed the basis: v₀ = r / ‖r‖, or the QR V₀ S = R of a block.
    V = column(0)
    V[...] = R
    if vector:
        kernels.scal(1.0 / residual_norm, V)
        givens.reset(residual_norm)
    else:
        S, _ = ortho.orthogonalize(basis, V)
        givens.reset(S)
    basis.set_count(k)

    iterations = 0
    breakdown = nonfinite = False
    for j in range(steps):
        Z = V if preconditioner.is_identity else apply(V, out=Z_out)
        # The product writes straight into the next basis column(s) (a
        # contiguous view of the Fortran-ordered storage), so forming the
        # new Arnoldi vectors neither allocates nor copies.
        V = product(matrix, Z, out=column((j + 1) * k))
        H, subdiagonal = ortho.orthogonalize(basis, V)
        iterations += 1
        if control is not None:
            control.charge(1)
        # The largest new norm decides both ends of the stop rule (a NaN
        # propagates through the maximum).
        largest = subdiagonal if vector else float(subdiagonal.max())
        # An overflowed or NaN norm leaves no usable basis vector (1/inf
        # scales it to zero and R would get a zero diagonal): the step
        # stays out of the least-squares problem and ends the cycle.
        if not largest < math.inf:
            nonfinite = True
            break
        givens.append(H, subdiagonal)
        norms = givens.residual_norms(out=implicit[j, :k])
        # A vanishing norm of every new column is a lucky breakdown.
        if largest <= BREAKDOWN_TOLERANCE:
            breakdown = True
            break
        if vector:
            kernels.scal(1.0 / subdiagonal, V)
        basis.set_count((j + 2) * k)  # the new column(s) are already in place
        if absolute_targets is not None and (norms <= absolute_targets).all():
            break
        if (
            control is not None
            and iterations % control.check_interval == 0
            and control.poll() is not None
        ):
            break

    solved = givens.size
    Y = workspace.coefficients(k)[:solved]
    Y = givens.solve(out=Y[:, 0] if vector else Y)
    work = None if vector else workspace.gemm_work(k)
    update = basis.combine(Y, j=solved, out=update, work=work)
    if not preconditioner.is_identity:
        update = apply(update, out=Z_out)
    return CycleOutcome(update, iterations, implicit[: solved // k, :k], breakdown, nonfinite)


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
    return _gmres(
        matrix, b, x0, vector=True, precision=precision, restart=restart, tol=tol,
        max_iterations=max_iterations, max_restarts=max_restarts,
        preconditioner=preconditioner, ortho=ortho, timer=timer, name=name,
        loss_of_accuracy_check=loss_of_accuracy_check, stagnation=stagnation,
        fp64_check=fp64_check, workspace=workspace, control=control, probe=probe,
    )


def _gmres(
    matrix, B, X0, *, vector, precision, restart, tol, max_iterations, max_restarts,
    preconditioner, ortho, timer, name, loss_of_accuracy_check, stagnation, fp64_check,
    workspace, control, controls=None, probe=None,
) -> Union[SolveResult, MultiSolveResult]:
    """The GMRES(m) body of every width: ``vector=True`` for :func:`gmres`,
    an ``(n, k)`` block for ``block_gmres``."""
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    prec = as_precision(precision if precision is not None else matrix.dtype)
    ortho_mgr = resolve_ortho(ortho, 1 if vector else 2)
    n = matrix.n_rows
    cols = Columns(B, X0, n, prec.dtype, vector=vector, controls=controls)

    A = matrix.astype(prec)
    precond = as_preconditioner(preconditioner, prec)
    workspace = resolve_workspace(workspace, n, restart, prec, cols.p)
    solver = "gmres" if vector else "block-gmres"
    shape = restart if vector else f"{restart}x{cols.p}"
    timer = timer or KernelTimer(name or f"{solver}({shape})-{prec.name}")

    def cycle(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        k = cols.k
        targets = tol * cols.bnorms[:k]
        outcome = run_cycle(
            A, R[:, 0] if vector else R, workspace, ortho=ortho_mgr,
            preconditioner=precond, residual_norm=rnorms[0], absolute_targets=targets,
            max_steps=min(restart, remaining), control=control,
        )
        update = outcome.update.reshape(n, k)
        for i in range(k):
            kernels.axpy(1.0, update[:, i], cols.X[:, i])
        # After a breakdown the true residual decides.
        return Step(outcome.iterations, outcome.implicit, outcome.exhausted, targets)

    with use_timer(timer):
        restart_loop(
            A, cols, cycle,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            scratch=(workspace.W, workspace.R), solver=solver,
            control=control, probe=probe, stagnation=stagnation,
            loss_of_accuracy=LossOfAccuracyTest(tolerance=tol) if loss_of_accuracy_check else None,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver=solver, precision=prec.name,
        fp64_check=fp64_check, probe=probe,
        details={
            "restart": restart,
            "tolerance": tol,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "basis_bytes": workspace.storage_bytes(),
        },
    )
