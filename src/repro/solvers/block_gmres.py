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

The module provides :func:`block_gmres` and :func:`block_gmres_ir`, thin
block entry points into the one driver body of GMRES
(:mod:`repro.solvers.gmres`) and of GMRES-IR (:mod:`repro.solvers.gmres_ir`),
and :func:`solve_many`, which chunks any number of right-hand sides into
blocks.  The body runs the restart loop of :mod:`repro.solvers.driver`,
which tracks convergence per column and deflates the columns that end at
a restart, around the one Arnoldi cycle
:func:`~repro.solvers.gmres.run_cycle`.

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

from ..ortho import OrthogonalizationManager
from ..perfmodel.timer import KernelTimer
from ..precision import Precision
from ..preconditioners.base import Preconditioner
from ..sparse.csr import CsrMatrix
from .driver import announce, as_block, initial_block, resolve_controls, shifted_probe
from .gmres import GmresWorkspace, _gmres
from .gmres_ir import _gmres_ir
from .result import MultiSolveResult, merge_chunks
from .status import SolveControl, StagnationTest

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
    return _gmres(
        matrix, B, X0, vector=False, precision=precision, restart=restart, tol=tol,
        max_iterations=max_iterations, max_restarts=max_restarts,
        preconditioner=preconditioner, ortho=ortho, timer=timer, name=name,
        loss_of_accuracy_check=loss_of_accuracy_check, stagnation=stagnation,
        fp64_check=fp64_check, workspace=workspace, control=control,
        controls=controls, probe=probe,
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
    return _gmres_ir(
        matrix, B, X0, vector=False, inner_precision=inner_precision,
        outer_precision=outer_precision, restart=restart, tol=tol,
        max_iterations=max_iterations, max_restarts=max_restarts,
        preconditioner=preconditioner, ortho=ortho, refine_every=refine_every,
        timer=timer, name=name, fp64_check=fp64_check, workspace=workspace,
        control=control, controls=controls, probe=probe,
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
        Maximum columns per block, at least 1 (default: all of them — one
        block).  Memory per block is ``(restart + 1) · block_size`` basis
        vectors.
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
    if block_size is not None and int(block_size) < 1:
        raise ValueError("block_size must be at least 1")
    width = p if block_size is None else min(int(block_size), p)
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
