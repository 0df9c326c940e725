"""Block-GMRES: batched multi-right-hand-side solves on one operator.

The paper's central observation is that GMRES throughput is bandwidth
bound in its SpMV and orthogonalization kernels.  When many right-hand
sides share one matrix — the serving workload of the roadmap — the fix is
to advance a *block* of right-hand sides together:

* one ``spmm`` per block iteration streams the matrix through memory once
  for all ``k`` right-hand sides instead of once per RHS;
* orthogonalization happens against a shared Krylov basis with BLAS-3
  ``gemm`` kernels (block CGS2, :mod:`repro.ortho.block`), reading the
  basis once per pass for all ``k`` vectors;
* the ``k`` right-hand sides share one Krylov space of dimension
  ``k × steps``, so each column typically converges in far fewer (block)
  iterations than it would alone.

The module provides the restarted driver (:func:`block_gmres`), the
blocked mixed-precision refinement wrapper (:func:`block_gmres_ir`), and
the top-level :func:`solve_many` entry point that chunks an arbitrary
number of right-hand sides into blocks.  Both drivers run the restart
loop of :mod:`repro.solvers.driver`, which tracks convergence per column
and deflates the columns that end at a restart, around the one Arnoldi
cycle of :mod:`repro.solvers.gmres` (:func:`~repro.solvers.gmres.run_cycle`)
fed with ``(n, k)`` residual blocks.

Least squares is handled by the band-Hessenberg path of
:class:`~repro.linalg.dense.GivensWorkspace`, which yields the per-column
*implicit* residual norms GMRES monitors every iteration.  All
cycle-steady-state kernels follow the PR-2 ``out=``/``work=`` buffer
contract, so a block iteration allocates nothing once the
:class:`~repro.solvers.gmres.GmresWorkspace` exists.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

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
    announce,
    as_block,
    as_preconditioner,
    finish_columns,
    initial_block,
    resolve_budget,
    resolve_controls,
    restart_loop,
    shifted_probe,
)
from .gmres import GmresWorkspace, resolve_ortho, resolve_workspace, run_cycle
from .result import MultiSolveResult, merge_chunks
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = ["block_gmres", "block_gmres_ir", "solve_many"]


def block_gmres(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    precision: Union[str, Precision, None] = None,
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "bcgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    loss_of_accuracy_check: bool = True,
    stagnation: Optional[StagnationTest] = None,
    fp64_check: bool = True,
    workspace: Optional[GmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    probe=None,
) -> MultiSolveResult:
    """Solve ``A X = B`` for a block of right-hand sides with Block-GMRES.

    The ``k`` columns of ``B`` share one Krylov basis: every block
    iteration performs one batched ``spmm`` and BLAS-3 block CGS2, and the
    band-Hessenberg least-squares problem yields a per-column implicit
    residual estimate every iteration.  At every restart the true residual
    of each column is recomputed; columns that meet the tolerance are
    **deflated** — their solution is frozen and the remaining columns
    continue in a narrower block.

    Parameters mirror :func:`repro.solvers.gmres.gmres`, with:

    B:
        Right-hand-side block ``(n, k)`` (a 1-D vector is treated as one
        column).
    restart:
        Number of *block* iterations per cycle: each column sees a Krylov
        space of dimension ``k × restart`` per cycle (memory grows
        accordingly — ``(restart+1)·k`` basis vectors).
    max_iterations:
        Budget in block iterations (default ``restart · max_restarts``).
    stagnation:
        Optional :class:`StagnationTest` template; each column gets an
        independent copy (patience/min_reduction are taken from it), and a
        column that stagnates is deflated with
        ``SolverStatus.STAGNATION`` while the others continue.
    workspace:
        Optional pre-allocated :class:`~repro.solvers.gmres.GmresWorkspace`
        to reuse (it must accommodate this solve's shape — see
        :meth:`~repro.solvers.gmres.GmresWorkspace.accommodates`).  The
        serve layer pools workspaces so repeated dispatches on one
        operator allocate no Krylov storage; numerics are bit-identical
        to a fresh workspace.
    control:
        Optional whole-solve :class:`~repro.solvers.SolveControl` — polled
        at every restart boundary (and every ``check_interval`` block
        steps inside a cycle); when triggered *every* remaining column is
        finalized with the demanded status.
    controls:
        Optional per-column control list (one entry per right-hand side,
        entries may be ``None``).  A triggered column is **deflated** at
        the next restart boundary — its partial iterate is frozen with
        status ``TIMED_OUT`` / ``CANCELLED`` / ``MAX_ITERATIONS`` while
        the other columns keep iterating.  This is how the serve layer
        cancels one request of an in-flight batch within one restart
        cycle without disturbing its batchmates.
    probe:
        Optional convergence probe fed one
        :class:`~repro.obs.ProbeEvent` per restart boundary — the worst
        explicit relative residual over the columns active entering the
        boundary, plus how many columns were deflated at it — and one
        terminal event with the per-status column counts in
        ``extra["statuses"]`` (see :mod:`repro.obs.probe`).

    Returns
    -------
    MultiSolveResult
        Per-column statuses, iteration counts and histories; the kernel
        timer is shared by the whole block.
    """
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    prec = as_precision(precision if precision is not None else matrix.dtype)
    ortho_mgr = resolve_ortho(ortho, 2)
    n = matrix.n_rows
    cols = Columns(B, X0, n, prec.dtype, controls=controls)

    A = matrix.astype(prec)
    precond = as_preconditioner(preconditioner, prec)
    workspace = resolve_workspace(workspace, n, restart, prec, cols.p)
    timer = timer or KernelTimer(name or f"block-gmres({restart}x{cols.p})-{prec.name}")

    def cycle(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        k = cols.k
        targets = tol * cols.bnorms[:k]
        outcome = run_cycle(
            A, R, workspace, ortho=ortho_mgr, preconditioner=precond,
            absolute_targets=targets, max_steps=min(restart, remaining), control=control,
        )
        for i in range(k):
            kernels.axpy(1.0, outcome.update[:, i], cols.X[:, i])
        # After a breakdown the true residual decides, as in GMRES.
        return Step(outcome.iterations, outcome.implicit, outcome.exhausted, targets)

    with use_timer(timer):
        restart_loop(
            A, cols, cycle,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            scratch=(workspace.W, workspace.R), solver="block-gmres",
            control=control, probe=probe, stagnation=stagnation,
            loss_of_accuracy=LossOfAccuracyTest(tolerance=tol) if loss_of_accuracy_check else None,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver="block-gmres", precision=prec.name,
        fp64_check=fp64_check, probe=probe,
        details={
            "restart": restart,
            "tolerance": tol,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "basis_bytes": workspace.storage_bytes(),
        },
    )


def block_gmres_ir(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    inner_precision: Union[str, Precision] = "single",
    outer_precision: Union[str, Precision] = "double",
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "bcgs2",
    refine_every: int = 1,
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    fp64_check: bool = True,
    workspace: Optional[GmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    probe=None,
) -> MultiSolveResult:
    """Batched GMRES-IR: blocked fp32 inner cycles with fp64 refinement.

    The blocked analogue of :func:`repro.solvers.gmres_ir.gmres_ir`: the
    outer loop holds the solution block in the outer precision, recomputes
    the true residual block with one batched ``spmm`` per refinement, and
    deflates converged columns; each refinement runs ``refine_every``
    full Block-GMRES cycles in the inner precision on the correction
    system ``A U = R`` (inner implicit residuals are not trusted for
    convergence, exactly as in the single-vector solver).

    ``control`` / ``controls`` behave as in :func:`block_gmres`: a
    whole-solve token finalizes every remaining column when triggered, a
    per-column token deflates just its column at the next refinement
    boundary.  ``probe`` behaves as in :func:`block_gmres` with
    ``kind="refinement"`` events at the outer refinement boundaries.
    """
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    if refine_every < 1:
        raise ValueError("refine_every must be at least 1")
    inner = as_precision(inner_precision)
    outer = as_precision(outer_precision)
    if inner.bytes > outer.bytes:
        raise ValueError("inner precision must not be wider than the outer precision")
    ortho_mgr = resolve_ortho(ortho, 2)
    n = matrix.n_rows
    cols = Columns(B, X0, n, outer.dtype, controls=controls)
    p = cols.p

    A_outer = matrix.astype(outer)
    A_inner = matrix.astype(inner)
    precond = as_preconditioner(preconditioner, inner)
    workspace = resolve_workspace(workspace, n, restart, inner, p)
    timer = timer or KernelTimer(
        name or f"block-gmres({restart}x{p})-ir-{inner.name}/{outer.name}"
    )

    # Refinement-block scratch, reused across all refinement steps.
    def block(dtype) -> np.ndarray:
        return np.empty((n, p), dtype=dtype, order="F")

    correction = block(inner.dtype)
    mixed = inner.dtype != outer.dtype
    r_inner_buf = block(inner.dtype) if mixed else None
    u_buf = block(outer.dtype) if mixed else None
    rhs_buf = block(inner.dtype) if refine_every > 1 else None

    def refine(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        k = cols.k
        # Hand the residual block to the low-precision solver.
        if mixed:
            for i in range(k):
                kernels.cast(R[:, i], inner, out=r_inner_buf[:, i])
            r_inner = r_inner_buf[:, :k]
        else:
            r_inner = R
        correction[:, :k] = 0
        cycle_rhs = r_inner
        implicit = []
        done = 0
        final = False
        for _ in range(refine_every):
            if remaining - done <= 0:
                break
            outcome = run_cycle(
                A_inner, cycle_rhs, workspace, ortho=ortho_mgr, preconditioner=precond,
                absolute_targets=None,  # inner residuals are not trusted
                max_steps=min(restart, remaining - done), control=control,
            )
            implicit.extend(outcome.implicit.tolist())
            for i in range(k):
                kernels.axpy(1.0, outcome.update[:, i], correction[:, i])
            done += outcome.iterations
            if outcome.exhausted:
                # As in GMRES-IR: refine again unless the norm was
                # non-finite or the refinement changed nothing.
                final = outcome.nonfinite or not correction[:, :k].any()
                break
            if refine_every > 1:
                w_in = kernels.spmm(A_inner, correction[:, :k], out=workspace.W[:, :k])
                for i in range(k):
                    kernels.copy(r_inner[:, i], out=rhs_buf[:, i])
                    kernels.axpy(-1.0, w_in[:, i], rhs_buf[:, i])
                cycle_rhs = rhs_buf[:, :k]
        # Promote the correction and update the solution block.
        for i in range(k):
            u = kernels.cast(correction[:, i], outer, out=u_buf[:, i] if mixed else None)
            kernels.axpy(1.0, u, cols.X[:, i], label="Residual")
        return Step(done, implicit, final)

    with use_timer(timer):
        # The outer (true) residual block is booked under "Residual", like
        # the single-vector GMRES-IR.
        restart_loop(
            A_outer, cols, refine,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            scratch=(block(outer.dtype), block(outer.dtype)), solver="block-gmres-ir",
            kind="refinement", label="Residual", control=control, probe=probe,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver="block-gmres-ir",
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


def solve_many(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    method: str = "gmres",
    block_size: Optional[int] = None,
    timer: Optional[KernelTimer] = None,
    workspace: Optional[GmresWorkspace] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    **kwargs,
) -> MultiSolveResult:
    """Solve ``A X = B`` for many right-hand sides with the batched path.

    The serving entry point: splits the columns of ``B`` into blocks of at
    most ``block_size`` and runs each block through :func:`block_gmres`
    (``method="gmres"``) or :func:`block_gmres_ir` (``method="gmres-ir"``),
    so every block amortizes its matrix and basis traversals across its
    columns.  One shared :class:`KernelTimer` meters the whole batch.

    Parameters
    ----------
    B:
        Right-hand sides, shape ``(n, n_rhs)`` (a 1-D vector is one RHS).
    block_size:
        Maximum columns per block (default: all of them — one block).
        Memory per block is ``(restart + 1) · block_size`` basis vectors.
    method:
        ``"gmres"`` or ``"gmres-ir"``.
    workspace:
        Optional pre-allocated :class:`~repro.solvers.gmres.GmresWorkspace` shared by all
        chunks (each chunk is at most ``block_size`` columns wide, so one
        workspace of that width serves the whole batch).
    controls:
        Optional per-right-hand-side :class:`~repro.solvers.SolveControl`
        list (entries may be ``None``); each chunk receives the slice for
        its columns.
    kwargs:
        Forwarded to the block driver (restart, tol, preconditioner,
        ``control`` for a whole-batch token, ...).  A ``probe`` sees the
        batch as one solve: each chunk's events continue the iteration
        and restart counts of the chunks before it, and one terminal
        event carries the per-status counts of every column.
    """
    drivers = {
        "gmres": ("block-gmres", block_gmres),
        "block-gmres": ("block-gmres", block_gmres),
        "gmres-ir": ("block-gmres-ir", block_gmres_ir),
        "gmres_ir": ("block-gmres-ir", block_gmres_ir),
    }
    if method not in drivers:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(drivers)}"
        )
    solver_label, driver = drivers[method]
    probe = kwargs.pop("probe", None)

    B = as_block(B, matrix.n_rows)
    n, p = B.shape
    if X0 is not None:
        X0 = initial_block(X0, n, p)
    width = p if block_size is None else max(1, min(int(block_size), p))
    timer = timer or KernelTimer(f"solve-many-{solver_label}")
    controls = resolve_controls(controls, p)

    results: List[MultiSolveResult] = []
    for start in range(0, p, width):
        stop = min(start + width, p)
        # Each chunk's probe events continue the chunks before it.
        chunk_probe = shifted_probe(
            probe,
            sum(r.block_iterations for r in results),
            sum(r.restarts for r in results),
        )
        results.append(driver(
            matrix,
            B[:, start:stop],
            X0[:, start:stop] if X0 is not None else None,
            timer=timer,
            workspace=workspace,
            controls=controls[start:stop] if controls is not None else None,
            probe=chunk_probe,
            **kwargs,
        ))
    if len(results) == 1:
        results[0].details["block_size"] = width
        return announce(results[0], probe)

    return announce(
        merge_chunks(results, timer=timer, solver=solver_label, block_size=width), probe
    )
