"""Preconditioned conjugate gradients.

The paper focuses on GMRES (nonsymmetric systems) but explicitly names CG
as the method of choice for SPD problems and cites a companion study of
polynomial-preconditioned CG in mixed precision [17].  A metered CG is
included so the SPD problems in the test set (Laplacians, Stretched2D,
several Table III proxies) can be cross-checked against an optimal
short-recurrence method, and so the CG-vs-GMRES kernel-mix contrast
(no growing orthogonalization cost) can be benchmarked.

Left preconditioning with an SPD preconditioner (the standard PCG form) is
used; for ``M = I`` this is plain CG.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..linalg import kernels
from ..obs.probe import ProbeEvent
from ..perfmodel.timer import KernelTimer, use_timer
from ..precision import Precision, as_precision
from ..preconditioners.base import Preconditioner
from ..sparse.csr import CsrMatrix
from .driver import Ending, as_preconditioner, finish, prepare_vector, resolve_budget
from .result import ConvergenceHistory, SolveResult, SolverStatus
from .status import SolveControl

__all__ = ["cg"]


def cg(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    precision: Union[str, Precision, None] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    explicit_residual_every: int = 50,
    fp64_check: bool = True,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve an SPD system ``A x = b`` with (preconditioned) conjugate gradients.

    Parameters
    ----------
    matrix:
        SPD system matrix (symmetry is not verified here — callers own that).
    precision:
        Working precision (default: the matrix's precision).
    tol:
        Relative residual tolerance on the recursively updated residual.
    max_iterations:
        Iteration cap (default: the library's restart*max_restarts budget).
    preconditioner:
        SPD preconditioner applied as ``z = M r`` each iteration (wrapped to
        the working precision if needed).
    explicit_residual_every:
        Recompute the true residual every ``k`` iterations (and at the end)
        to guard against drift of the recursive residual; mirrors the
        restart-time residual recomputation of GMRES.
    control:
        Optional :class:`~repro.solvers.SolveControl` polled before the
        first iteration and every ``control.check_interval`` iterations; a
        triggered control stops the solve with ``TIMED_OUT`` /
        ``CANCELLED`` / ``MAX_ITERATIONS`` and returns the current iterate.
    probe:
        Optional convergence probe fed one
        :class:`~repro.obs.ProbeEvent` per explicit-residual recompute
        (every ``explicit_residual_every`` iterations) plus a terminal
        event (see :mod:`repro.obs.probe`).
    """
    _, tol, max_iterations, _ = resolve_budget(None, tol, max_iterations, None)
    prec = as_precision(precision if precision is not None else matrix.dtype)

    A = matrix.astype(prec)
    b_work, x = prepare_vector(b, x0, A.n_rows, prec)
    precond = as_preconditioner(preconditioner, prec)
    history = ConvergenceHistory()
    timer = timer or KernelTimer(name or f"cg-{prec.name}")

    with use_timer(timer):
        bnorm = kernels.norm2(b_work)
        if bnorm == 0.0:
            # Zero right-hand side: the solution is zero.
            x[:] = 0
            ending = Ending(SolverStatus.CONVERGED, 0, 0, 0.0)
        else:
            ending = _pcg(
                A, b_work, x, bnorm, precond,
                tol=tol, max_iterations=max_iterations, history=history,
                explicit_residual_every=explicit_residual_every,
                control=control, probe=probe,
            )

    return finish(
        matrix, b, x, ending,
        history=history, timer=timer, solver="cg", precision=prec.name,
        fp64_check=fp64_check, probe=probe,
        details={"tolerance": tol, "preconditioner": precond.name},
    )


def _pcg(
    A: CsrMatrix,
    b: np.ndarray,
    x: np.ndarray,
    bnorm: float,
    precond: Preconditioner,
    *,
    tol: float,
    max_iterations: int,
    history: ConvergenceHistory,
    explicit_residual_every: int,
    control: Optional[SolveControl],
    probe,
) -> Ending:
    """The PCG recurrence on a nonzero right-hand side; ``x`` is updated in place."""
    # Pre-allocated iteration vectors, reused for the whole solve (the
    # short recurrence touches the same six length-n buffers every step).
    w = np.empty_like(x)
    r = np.empty_like(x)
    p = np.empty_like(x)
    Ap = np.empty_like(x)
    r_true = np.empty_like(x)
    z_buf = None if precond.is_identity else np.empty_like(x)

    kernels.spmv(A, x, out=w)
    kernels.copy(b, out=r)
    kernels.axpy(-1.0, w, r)
    z = r if precond.is_identity else precond.apply(r, out=z_buf)
    kernels.copy(z, out=p)
    rz = kernels.dot(r, z)
    rnorm = kernels.norm2(r)
    relative_residual = rnorm / bnorm
    history.record_explicit(0, relative_residual)
    # The first boundary, as in the GMRES drivers: a non-finite residual or
    # a control that already demands a stop ends the solve before a step.
    if not np.isfinite(relative_residual):
        return Ending(SolverStatus.BREAKDOWN, 0, 0, relative_residual)
    if control is not None and (demanded := control.poll()) is not None:
        return Ending(demanded, 0, 0, relative_residual)

    iterations = 0
    while iterations < max_iterations:
        if relative_residual <= tol:
            # Verify with the true residual before declaring convergence:
            # the recursive residual of low-precision CG can drift far
            # below what the iterate actually achieves.
            kernels.spmv(A, x, out=w)
            kernels.copy(b, out=r_true)
            kernels.axpy(-1.0, w, r_true)
            relative_residual = kernels.norm2(r_true) / bnorm
            history.record_explicit(iterations, relative_residual)
            if relative_residual <= tol:
                return Ending(SolverStatus.CONVERGED, iterations, 0, relative_residual)
        kernels.spmv(A, p, out=Ap)
        pAp = kernels.dot(p, Ap)
        if pAp <= 0.0:
            # Not SPD (or breakdown in low precision).
            return Ending(SolverStatus.BREAKDOWN, iterations, 0, relative_residual)
        alpha = rz / pAp
        kernels.axpy(alpha, p, x)
        kernels.axpy(-alpha, Ap, r)
        iterations += 1
        if control is not None:
            control.charge(1)

        if explicit_residual_every and iterations % explicit_residual_every == 0:
            kernels.spmv(A, x, out=w)
            kernels.copy(b, out=r_true)
            kernels.axpy(-1.0, w, r_true)
            rnorm = kernels.norm2(r_true)
            relative_residual = rnorm / bnorm
            history.record_explicit(iterations, relative_residual)
            if probe is not None:
                probe(ProbeEvent("cg", "residual", iterations, 0, relative_residual))
        else:
            rnorm = kernels.norm2(r)
            relative_residual = rnorm / bnorm
        history.record_implicit(iterations, relative_residual)

        if not np.isfinite(relative_residual):
            return Ending(SolverStatus.BREAKDOWN, iterations, 0, relative_residual)
        if (
            control is not None
            and iterations % control.check_interval == 0
            and (demanded := control.poll()) is not None
        ):
            return Ending(demanded, iterations, 0, relative_residual)

        z = r if precond.is_identity else precond.apply(r, out=z_buf)
        rz_new = kernels.dot(r, z)
        beta = rz_new / rz if rz != 0.0 else 0.0
        rz = rz_new
        kernels.scal(beta, p)
        kernels.axpy(1.0, z, p)
    return Ending(SolverStatus.MAX_ITERATIONS, iterations, 0, relative_residual)
