"""GMRES-IR — GMRES with iterative refinement (the paper's Algorithm 2).

The outer loop runs in fp64 (or any chosen *outer* precision): it holds the
solution, recomputes the true residual ``r = b - A x`` after every inner
cycle, and decides convergence.  The inner solver is a full restart cycle of
GMRES(m) run entirely in fp32 (or any chosen *inner* precision) on the
correction equation ``A u = r``; its update is promoted to fp64 and added to
the solution.  This is the Turner–Walker / Carson–Higham scheme the paper
evaluates:

* two copies of the matrix are kept, one per precision (the fp64→fp32 copy
  is *excluded* from the reported solve time, as in the paper);
* the residual-vector casts between precisions at every refinement *are*
  included (they are metered through the ``cast`` kernel);
* convergence is only checked at restarts — the inner fp32 residuals "give
  little information about the convergence of the overall problem", so each
  inner cycle runs its full ``m`` iterations and GMRES-IR can spend up to
  ``m - 1`` extra iterations compared to plain GMRES;
* preconditioning, when used, is computed and applied entirely in the inner
  precision (the configuration the paper pairs with GMRES-IR).

One driver body serves every width: :func:`gmres_ir` runs it on a vector,
:func:`~repro.solvers.block_gmres.block_gmres_ir` on an ``(n, k)`` block.
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
from .driver import (
    Columns,
    Step,
    as_preconditioner,
    finish_columns,
    multiply,
    resolve_budget,
    restart_loop,
)
from .gmres import GmresWorkspace, resolve_ortho, resolve_workspace, run_cycle
from .result import MultiSolveResult, SolveResult
from .status import SolveControl

__all__ = ["gmres_ir"]


def gmres_ir(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    inner_precision: Union[str, Precision] = "single",
    outer_precision: Union[str, Precision] = "double",
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "cgs2",
    refine_every: int = 1,
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    fp64_check: bool = True,
    workspace: Optional[GmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve ``A x = b`` with GMRES-IR (fp32 inner cycles, fp64 refinement).

    Parameters
    ----------
    matrix:
        System matrix; copies are kept in both the inner and outer precision
        (the copy itself is not charged to the solve time, following the
        paper's timing convention).
    inner_precision / outer_precision:
        The two working precisions (paper: single / double).
    restart:
        Inner restart length ``m``; refinement happens after every inner
        cycle (default 50).
    tol:
        Relative residual tolerance, evaluated on the *outer* (fp64)
        residual only (default 1e-10).
    max_iterations / max_restarts:
        Budget in inner iterations / refinement steps.
    preconditioner:
        Right preconditioner for the inner solver; it is converted (wrapped)
        to the inner precision if needed, matching the paper's "computed and
        applied entirely in fp32" configuration.
    refine_every:
        Number of inner cycles between refinements (1 in the paper; larger
        values are the ablation of refinement frequency — the inner solver
        then restarts from its own fp32 residual in between).
    timer, name, ortho, fp64_check:
        As in :func:`repro.solvers.gmres.gmres`.
    control:
        Optional :class:`~repro.solvers.SolveControl` polled at every
        refinement boundary and every ``control.check_interval`` inner
        iterations; a triggered control terminates with ``TIMED_OUT`` /
        ``CANCELLED`` / ``MAX_ITERATIONS`` and keeps the refined iterate.
    probe:
        Optional convergence probe fed one
        :class:`~repro.obs.ProbeEvent` per refinement boundary (the outer
        fp64 residual) plus a terminal event (see :mod:`repro.obs.probe`).
    """
    return _gmres_ir(
        matrix, b, x0, vector=True, inner_precision=inner_precision,
        outer_precision=outer_precision, restart=restart, tol=tol,
        max_iterations=max_iterations, max_restarts=max_restarts,
        preconditioner=preconditioner, ortho=ortho, refine_every=refine_every,
        timer=timer, name=name, fp64_check=fp64_check, workspace=workspace,
        control=control, probe=probe,
    )


def _gmres_ir(
    matrix, B, X0, *, vector, inner_precision, outer_precision, restart, tol,
    max_iterations, max_restarts, preconditioner, ortho, refine_every, timer, name,
    fp64_check, workspace, control, controls=None, probe=None,
) -> Union[SolveResult, MultiSolveResult]:
    """The GMRES-IR body of every width: ``vector=True`` for
    :func:`gmres_ir`, an ``(n, k)`` block for ``block_gmres_ir``."""
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    if refine_every < 1:
        raise ValueError("refine_every must be at least 1")
    inner = as_precision(inner_precision)
    outer = as_precision(outer_precision)
    if inner.bytes > outer.bytes:
        raise ValueError("inner precision must not be wider than the outer precision")
    ortho_mgr = resolve_ortho(ortho, 1 if vector else 2)
    n = matrix.n_rows
    cols = Columns(B, X0, n, outer.dtype, vector=vector, controls=controls)
    p = cols.p

    # Matrix copies in both precisions (the fp32 copy is not metered).
    A_outer = matrix.astype(outer)
    A_inner = matrix.astype(inner)
    precond = as_preconditioner(preconditioner, inner)
    workspace = resolve_workspace(workspace, n, restart, inner, p)
    family = "gmres" if vector else "block-gmres"
    solver = f"{family}-ir"
    shape = restart if vector else f"{restart}x{p}"
    timer = timer or KernelTimer(name or f"{family}({shape})-ir-{inner.name}/{outer.name}")

    # Refinement blocks, reused across all refinement steps; a vector solve
    # uses their first column.  The cross-precision buffers only exist when
    # the precisions differ (kernels.cast is a no-op returning its input at
    # equal precision).
    def block(dtype) -> np.ndarray:
        return np.empty((n, p), dtype=dtype, order="F")

    correction = block(inner.dtype)
    mixed = inner.dtype != outer.dtype
    r_inner_buf = block(inner.dtype) if mixed else None
    u_buf = block(outer.dtype) if mixed else None
    rhs_buf = block(inner.dtype) if refine_every > 1 else None

    def refine(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        k = cols.k
        # Hand the residual to the low-precision solver (metered casts).
        r_inner = R
        if mixed:
            for i in range(k):
                kernels.cast(R[:, i], inner, out=r_inner_buf[:, i])
            r_inner = r_inner_buf[:, :k]
        # A vector cycle takes its residual's norm from the caller.
        cycle_rhs = r_inner
        cycle_rnorm = kernels.norm2(r_inner[:, 0]) if vector else None
        # Run `refine_every` inner cycles before the next refinement; the
        # standard algorithm refines after every cycle.
        correction[:, :k] = 0
        implicit = []
        done = 0
        final = False
        for cycle in range(refine_every):
            if remaining - done <= 0:
                break
            if cycle:
                # Between the cycles of one refinement the inner solver
                # restarts from its own low-precision residual (workspace.W
                # is free between cycles, so the extra product lands
                # there).  It is computed only when another cycle runs.
                w_in = multiply(A_inner, correction[:, :k], workspace.W[:, :k], vector=vector)
                for i in range(k):
                    kernels.copy(r_inner[:, i], out=rhs_buf[:, i])
                    kernels.axpy(-1.0, w_in[:, i], rhs_buf[:, i])
                cycle_rhs = rhs_buf[:, :k]
                cycle_rnorm = kernels.norm2(cycle_rhs[:, 0]) if vector else None
            outcome = run_cycle(
                A_inner, cycle_rhs[:, 0] if vector else cycle_rhs, workspace,
                ortho=ortho_mgr, preconditioner=precond, residual_norm=cycle_rnorm,
                max_steps=min(restart, remaining - done),
                absolute_targets=None,  # inner residuals are not trusted
                control=control,
            )
            implicit.extend(outcome.implicit.tolist())
            done += outcome.iterations
            update = outcome.update.reshape(n, k)
            for i in range(k):
                kernels.axpy(1.0, update[:, i], correction[:, i])
            if outcome.exhausted:
                # Nothing more the inner solver can do from its residual.
                # After a lucky breakdown the correction is only as
                # accurate as the inner precision, so the solve refines
                # again; a non-finite norm, or a refinement that changed
                # nothing, ends it and the next outer residual decides.
                final = outcome.nonfinite or not correction[:, :k].any()
                break
        # Promote the correction and update the solution in fp64.
        for i in range(k):
            u = kernels.cast(correction[:, i], outer, out=u_buf[:, i] if mixed else None)
            kernels.axpy(1.0, u, cols.X[:, i], label="Residual")
        return Step(done, implicit, final)

    with use_timer(timer):
        # The outer (true) residual is booked under "Other" in the paper
        # (it is part of the refinement overhead), hence label="Residual".
        restart_loop(
            A_outer, cols, refine,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            solver=solver, kind="refinement", label="Residual",
            scratch=(block(outer.dtype), block(outer.dtype)),
            control=control, probe=probe,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver=solver,
        precision=f"{inner.name}/{outer.name}", fp64_check=fp64_check, probe=probe,
        details={
            "restart": restart,
            "tolerance": tol,
            "refine_every": refine_every,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "inner_matrix_bytes": A_inner.storage_bytes(),
            "outer_matrix_bytes": A_outer.storage_bytes(),
            "basis_bytes": workspace.storage_bytes(),
        },
    )
