"""Three-precision GMRES-IR (half / single / double) — the paper's future work.

Section VI: "Since Kokkos is enabling support for half precision, we will
also study ways to incorporate a third level of precision into the
GMRES-IR solver while maintaining high accuracy."  This module implements
one natural realisation of that idea as an extension experiment:

* the **outer** loop refines in fp64 exactly as in GMRES-IR;
* the **middle** level is an fp32 GMRES-IR that itself refines
* an **inner** fp16 GMRES(m) cycle.

fp16 has a tiny dynamic range (max ≈ 65504, unit roundoff ≈ 4.9e-4), so
each residual handed to the half-precision solver is normalised to unit
norm first and the correction is rescaled afterwards — the standard scaling
safeguard for half-precision iterative refinement.  When the fp16 cycle
fails to reduce the residual at all (which happens on badly conditioned
problems), the middle level falls back to an fp32 cycle so the overall
method keeps converging; the fallback count is reported in the result
details, since "how often is fp16 actually usable" is the interesting
question this extension probes.
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
    resolve_budget,
    restart_loop,
)
from .gmres import GmresWorkspace, resolve_ortho, run_cycle
from .result import SolveResult
from .status import SolveControl

__all__ = ["gmres_ir_three_precision"]


def gmres_ir_three_precision(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    inner_precision: Union[str, Precision] = "half",
    middle_precision: Union[str, Precision] = "single",
    outer_precision: Union[str, Precision] = "double",
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "cgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    fp64_check: bool = True,
    improvement_threshold: float = 0.9,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve ``A x = b`` with half/single/double GMRES-IR.

    Parameters
    ----------
    improvement_threshold:
        An fp16 cycle is accepted when it reduces the (fp32-evaluated)
        residual of its correction equation below ``threshold`` times the
        starting norm; otherwise the cycle is redone in fp32 and counted as
        a fallback.
    Other parameters:
        As in :func:`repro.solvers.gmres_ir.gmres_ir`, including
        ``control`` and ``probe`` (``kind="refinement"`` events at the
        outer refinement boundaries).
    """
    restart, tol, max_iterations, max_restarts = resolve_budget(
        restart, tol, max_iterations, max_restarts
    )
    inner = as_precision(inner_precision)
    middle = as_precision(middle_precision)
    outer = as_precision(outer_precision)
    if not (inner.bytes <= middle.bytes <= outer.bytes):
        raise ValueError("precisions must be ordered inner <= middle <= outer")
    ortho_mgr = resolve_ortho(ortho, 1)

    A_outer = matrix.astype(outer)
    A_middle = matrix.astype(middle)
    A_inner = matrix.astype(inner)
    n = A_outer.n_rows
    cols = Columns(b, x0, n, outer.dtype, vector=True)
    precond_mid = as_preconditioner(preconditioner, middle)
    precond_in = as_preconditioner(preconditioner, inner)
    ws_middle = GmresWorkspace(n, restart, middle)
    ws_inner = GmresWorkspace(n, restart, inner)
    timer = timer or KernelTimer(
        name or f"gmres({restart})-ir3-{inner.name}/{middle.name}/{outer.name}"
    )

    # Pre-allocated refinement vectors, reused across all refinement steps.
    # Cross-precision buffers only exist when the adjacent precisions differ
    # (kernels.cast returns its input unchanged at equal precision); the
    # scaled residual and the fp32 residual check borrow the middle
    # workspace's driver scratch, which is free between cycles.
    r_mid_buf = np.empty(n, dtype=middle.dtype) if middle.dtype != outer.dtype else None
    r_half_buf = np.empty(n, dtype=inner.dtype) if inner.dtype != middle.dtype else None
    u_mid_buf = np.empty(n, dtype=middle.dtype) if middle.dtype != inner.dtype else None
    u_outer_buf = np.empty(n, dtype=outer.dtype) if middle.dtype != outer.dtype else None
    check_buf = np.empty(n, dtype=middle.dtype)
    cycles = {"half": 0, "fallback": 0}

    def refine(R: np.ndarray, rnorms: np.ndarray, remaining: int) -> Step:
        # Middle level: one correction in fp32, itself computed either by
        # an fp16 cycle (scaled to unit norm) or by an fp32 fallback.
        r_mid = kernels.cast(R[:, 0], middle, out=r_mid_buf)
        rnorm_mid = kernels.norm2(r_mid)
        cycle = dict(ortho=ortho_mgr, max_steps=min(restart, remaining), control=control)

        # --- try the half-precision inner cycle --------------------------- #
        scale = rnorm_mid if rnorm_mid > 0 else 1.0
        r_scaled = kernels.copy(r_mid, out=ws_middle.R[:, 0])
        kernels.scal(1.0 / scale, r_scaled)
        r_half = kernels.cast(r_scaled, inner, out=r_half_buf)
        rnorm_half = kernels.norm2(r_half)
        taken = None
        if np.isfinite(rnorm_half) and rnorm_half > 0:
            outcome = run_cycle(
                A_inner, r_half, ws_inner, preconditioner=precond_in,
                residual_norm=rnorm_half, **cycle,
            )
            if np.all(np.isfinite(outcome.update)):
                u_mid = kernels.cast(outcome.update, middle, out=u_mid_buf)
                kernels.scal(scale, u_mid)
                # Evaluate the achieved reduction in fp32.
                w_mid = kernels.spmv(A_middle, u_mid, out=ws_middle.W[:, 0])
                check = kernels.copy(r_mid, out=check_buf)
                kernels.axpy(-1.0, w_mid, check)
                if kernels.norm2(check) <= improvement_threshold * rnorm_mid:
                    cycles["half"] += 1
                    correction_mid = u_mid
                    # Never the last refinement: the fp32 cycle decides
                    # when nothing more can be done.
                    taken = Step(outcome.iterations, outcome.implicit * scale)

        if taken is None:
            # --- fp32 fallback cycle -------------------------------------- #
            cycles["fallback"] += 1
            outcome = run_cycle(
                A_middle, r_mid, ws_middle, preconditioner=precond_mid,
                residual_norm=rnorm_mid, **cycle,
            )
            correction_mid = outcome.update
            # As in GMRES-IR: refine again after a lucky breakdown unless
            # the norm was non-finite or the correction is zero.
            final = outcome.exhausted and (outcome.nonfinite or not correction_mid.any())
            taken = Step(outcome.iterations, outcome.implicit, final)

        u = kernels.cast(correction_mid, outer, out=u_outer_buf)
        kernels.axpy(1.0, u, cols.X[:, 0], label="Residual")
        return taken

    with use_timer(timer):
        restart_loop(
            A_outer, cols, refine,
            tol=tol, max_iterations=max_iterations, max_restarts=max_restarts,
            solver="gmres-ir3", kind="refinement", label="Residual",
            scratch=(np.empty(n, dtype=outer.dtype), np.empty(n, dtype=outer.dtype)),
            control=control, probe=probe,
        )

    return finish_columns(
        matrix, cols, timer=timer, solver="gmres-ir3",
        precision=f"{inner.name}/{middle.name}/{outer.name}",
        fp64_check=fp64_check, probe=probe,
        details={
            "restart": restart,
            "half_precision_cycles": cycles["half"],
            "fp32_fallback_cycles": cycles["fallback"],
            "preconditioner": precond_mid.name,
        },
    )
