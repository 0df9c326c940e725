"""The solver contract, written once: one restart loop for every width.

The paper's GMRES (Algorithm 1) and GMRES-IR (Algorithm 2) are the same
loop: recompute the true residual ``r = b - A x``, decide whether to stop,
and otherwise take one step that improves ``x``.  They differ only in the
step — one same-precision GMRES(m) cycle, or cast → inner-precision cycles
→ cast back.  The block drivers run the same loop on ``k`` right-hand sides
that share one Krylov space.  :func:`restart_loop` is that loop for ``k``
active columns, and a single-vector solve is its ``k = 1`` case.  It owns
everything at the restart boundary, so every driver gets the same contract:

* the explicit residual of every active column, its history entry, and one
  probe event per boundary;
* the implicit history: every step reports its per-step, per-column
  implicit residual norms as one :class:`Step`, and the loop books them;
* the stop checks, per column and in order: converged, non-finite residual
  → ``BREAKDOWN``, control demand (the column's own
  :class:`~repro.solvers.SolveControl`, then the whole-solve one), loss of
  accuracy, stagnation, and the iteration / restart budget.  A column that
  ends is deflated: its iterate is frozen and the others continue;
* a zero right-hand side, whose solution is zero;
* a step that can make no further progress, which is verified once with
  the true residual (``CONVERGED`` or ``BREAKDOWN``).

A control is charged once per inner iteration.  The Arnoldi cycle charges
the whole-solve control as it runs; the loop charges each column's own
control after every step.  A single-vector driver therefore passes its
control as the whole-solve control only.

Which product computes the explicit residual depends on the driver, not on
the active width: a single-vector solve uses one SpMV, a block solve one
SpMM, even when deflation leaves it a single column (:func:`multiply`).

:func:`finish_columns` builds the result of a loop-driven solve;
:func:`finish` emits the one terminal probe event of a single-vector solve,
runs the optional fp64 accuracy check and builds the
:class:`~repro.solvers.SolveResult`.  :func:`shifted_probe` lets a composed
solve — GMRES-FD's two phases, the chunks of
:func:`~repro.solvers.solve_many` — report as one solve.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import get_config
from ..linalg import kernels
from ..obs.probe import ProbeEvent
from ..precision import Precision
from ..preconditioners.base import IdentityPreconditioner, Preconditioner
from ..preconditioners.mixed import wrap_for_precision
from ..sparse.csr import CsrMatrix
from .result import ConvergenceHistory, MultiSolveResult, SolveResult, SolverStatus
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = [
    "Step",
    "Ending",
    "Columns",
    "resolve_budget",
    "as_preconditioner",
    "prepare_vector",
    "as_block",
    "initial_block",
    "resolve_controls",
    "multiply",
    "restart_loop",
    "finish",
    "finish_columns",
    "announce",
    "shifted_probe",
    "fp64_relative_residual",
]


class Step(NamedTuple):
    """What one step of :func:`restart_loop` did.

    ``implicit`` holds the absolute implicit residual norms of its inner
    iterations, one row per iteration and one column per active
    right-hand side (a flat sequence for a single vector).  ``final``
    marks the last step that can make progress: the loop then verifies the
    iterate once and stops.  ``targets`` are the per-column absolute
    targets the step stopped on, if it trusts its implicit estimates; a
    converged column then counts its iterations up to the first step whose
    estimate met its target.
    """

    iterations: int
    implicit: Union[Sequence[float], np.ndarray]
    final: bool = False
    targets: Optional[np.ndarray] = None


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


def prepare_vector(
    b: np.ndarray, x0: Optional[np.ndarray], n: int, precision: Precision
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate ``b`` and return it with a private copy of ``x0`` (or zeros).

    ``x0`` is checked as :func:`initial_block` checks one column: a
    length-``n`` vector or an ``(n, 1)`` block.
    """
    b_work = np.asarray(b, dtype=precision.dtype)
    if b_work.shape != (n,):
        raise ValueError(f"right-hand side must have length {n}")
    if x0 is None:
        return b_work, np.zeros(n, dtype=precision.dtype)
    return b_work, np.array(initial_block(x0, n, 1)[:, 0], dtype=precision.dtype)


def as_block(B: np.ndarray, n: int) -> np.ndarray:
    """Validate a right-hand-side block (a 1-D vector is one column)."""
    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if B.shape[0] != n:
        raise ValueError(f"right-hand-side block must have {n} rows")
    if B.shape[1] == 0:
        raise ValueError("right-hand-side block has no columns")
    return B


def initial_block(X0: np.ndarray, n: int, p: int) -> np.ndarray:
    """Validate an initial guess for ``p`` right-hand sides as an ``(n, p)``
    block; a length-``n`` vector is accepted when ``p = 1``."""
    X0 = np.asarray(X0)
    if p == 1 and X0.shape == (n,):
        return X0.reshape(n, 1)
    if X0.shape != (n, p):
        raise ValueError(
            f"initial guess has shape {X0.shape}; the right-hand sides need ({n}, {p})"
        )
    return X0


def resolve_controls(
    controls: Optional[Sequence[Optional[SolveControl]]], p: int
) -> Optional[List[Optional[SolveControl]]]:
    """Validate the per-column control list of a batched solve."""
    if controls is None:
        return None
    controls = list(controls)
    if len(controls) != p:
        raise ValueError(
            f"controls must have one entry per right-hand side "
            f"({len(controls)} given for {p} columns)"
        )
    return controls


class Columns:
    """The per-column state of one :func:`restart_loop` solve.

    Holds the right-hand sides and iterates in the working precision and,
    per original column, the statuses, iteration counts, histories and
    controls.  Deflation removes ended columns by shifting the survivors
    left, so the kernels always see contiguous leading columns: ``X``,
    ``B``, ``bnorms`` and ``rnorms`` are indexed by active slot, the rest
    by original column.  ``vector`` marks a single-vector solve (its
    explicit residual uses SpMV).
    """

    def __init__(
        self,
        B: np.ndarray,
        X0: Optional[np.ndarray],
        n: int,
        dtype,
        *,
        vector: bool = False,
        controls: Optional[Sequence[Optional[SolveControl]]] = None,
    ) -> None:
        if vector and np.shape(B) != (n,):
            raise ValueError(f"right-hand side must have length {n}")
        #: The caller's right-hand sides as an (n, p) block (fp64 check).
        self.rhs = as_block(B, n)
        p = self.rhs.shape[1]
        self.p = p
        self.vector = vector
        # Always a fresh copy: compact() shifts columns in place, and
        # np.asfortranarray would alias a caller block that is already
        # Fortran-ordered in the working dtype.
        self.B = np.array(self.rhs, dtype=dtype, order="F", copy=True)
        self.X = np.zeros((n, p), dtype=dtype, order="F")
        if X0 is not None:
            self.X[:] = initial_block(X0, n, p)
        self.final_X = np.zeros((n, p), dtype=dtype, order="F")
        self.bnorms = np.zeros(p)
        self.rnorms = np.zeros(p)
        self.active = list(range(p))
        self.statuses: List[Optional[SolverStatus]] = [None] * p
        self.iterations = np.zeros(p, dtype=np.int64)
        self.steps_alive = np.zeros(p, dtype=np.int64)
        self.hit_at = np.full(p, -1, dtype=np.int64)
        self.last_implicit = np.full(p, np.nan)
        self.histories = [ConvergenceHistory() for _ in range(p)]
        self.rel = np.full(p, np.inf)
        self.controls = resolve_controls(controls, p)
        #: (Block) steps and restarts of the whole solve.
        self.steps = 0
        self.restarts = 0

    @property
    def k(self) -> int:
        return len(self.active)

    def finalize(self, i: int, status: SolverStatus) -> None:
        """Record the terminal status of active slot ``i`` (no compaction)."""
        col = self.active[i]
        self.statuses[col] = status
        if status == SolverStatus.CONVERGED and self.hit_at[col] >= 0:
            self.iterations[col] = self.hit_at[col]
        else:
            self.iterations[col] = self.steps_alive[col]
        self.final_X[:, col] = self.X[:, i]

    def compact(self, extras=()) -> None:
        """Drop finalized columns; shift survivors into the leading slots.

        ``extras`` are companion ``(n, ≥k)`` blocks (e.g. the residual
        block just computed) whose leading columns track the active set
        and must be shifted identically.
        """
        keep = [i for i, col in enumerate(self.active) if self.statuses[col] is None]
        if len(keep) == self.k:
            return
        for block in (self.X, self.B, *extras):
            block[:, : len(keep)] = block[:, keep]
        self.bnorms[: len(keep)] = self.bnorms[keep]
        self.rnorms[: len(keep)] = self.rnorms[keep]
        self.active = [self.active[i] for i in keep]

    def book(self, taken: Step) -> None:
        """Book one step's iterations and implicit residuals on every active
        column, and charge each column's own control.

        With ``taken.targets`` a column also remembers the first step whose
        estimate met its target — trusted only if the estimate stayed below
        it through the end of the step (the explicit residual at the next
        boundary confirms it).
        """
        steps = taken.iterations
        implicit = np.reshape(taken.implicit, (-1, self.k))
        targets = taken.targets
        for i, col in enumerate(self.active):
            if self.controls is not None and self.controls[col] is not None:
                self.controls[col].charge(steps)
            base = int(self.steps_alive[col])
            hit = -1
            for step, implicit_abs in enumerate(implicit[:, i], start=1):
                self.histories[col].record_implicit(
                    base + step, implicit_abs / self.bnorms[i]
                )
                if targets is not None and hit < 0 and implicit_abs <= targets[i]:
                    hit = base + step
            self.last_implicit[col] = implicit[-1, i] if len(implicit) else np.nan
            if targets is not None:
                trusted = hit >= 0 and self.last_implicit[col] <= targets[i]
                self.hit_at[col] = hit if trusted else -1
            self.steps_alive[col] += steps


def multiply(
    A: CsrMatrix, X: np.ndarray, out: np.ndarray, *, vector: bool, **labelled
) -> np.ndarray:
    """``A X`` of an ``(n, k)`` block into ``out``: one SpMV for a
    single-vector solve (``k = 1``), one SpMM for a block solve."""
    if vector:
        return kernels.spmv(A, X[:, 0], out=out[:, 0], **labelled)[:, None]
    return kernels.spmm(A, X, out=out, **labelled)


def restart_loop(
    A: CsrMatrix,
    cols: Columns,
    step: Callable[[np.ndarray, np.ndarray, int], Step],
    *,
    tol: float,
    max_iterations: int,
    max_restarts: int,
    scratch: Tuple[np.ndarray, np.ndarray],
    solver: str,
    kind: str = "restart",
    label: Optional[str] = None,
    control: Optional[SolveControl] = None,
    probe=None,
    loss_of_accuracy: Optional[LossOfAccuracyTest] = None,
    stagnation: Optional[StagnationTest] = None,
) -> None:
    """Run restarts until every column of ``cols`` has ended.

    Each pass recomputes the true residual of every active column into
    ``scratch`` (``(n, ≥k)`` blocks, or length-``n`` vectors for a
    single-vector solve; booked under ``label`` when given, e.g. GMRES-IR's
    ``"Residual"``), records it and applies the stop checks, deflating the
    columns that end.  One ``kind`` probe event then reports the boundary:
    the worst (NaN-propagating maximum) relative residual of the columns
    that entered it, how many stay active and how many were deflated at it.
    Otherwise ``step(R, rnorms, remaining_iterations)`` advances the active
    columns from their residual block ``R`` and its norms, updating
    ``cols.X`` in place, and reports a :class:`Step`.  ``stagnation`` is a
    template: every column runs its own copy.  Must run inside the solve's
    :func:`~repro.perfmodel.timer.use_timer` block.
    """
    n = cols.X.shape[0]
    W, R = (buf.reshape(n, -1) for buf in scratch)
    labelled = {} if label is None else {"label": label}
    stagnating = (
        None if stagnation is None
        else [dataclasses.replace(stagnation) for _ in range(cols.p)]
    )

    def measure() -> None:
        k = cols.k
        products = multiply(A, cols.X[:, :k], W[:, :k], vector=cols.vector, **labelled)
        for i, col in enumerate(cols.active):
            r = kernels.copy(cols.B[:, i], out=R[:, i], **labelled)
            kernels.axpy(-1.0, products[:, i], r, **labelled)
            cols.rnorms[i] = kernels.norm2(r, **labelled)
            cols.rel[col] = cols.rnorms[i] / cols.bnorms[i]
            cols.histories[col].record_explicit(int(cols.steps_alive[col]), cols.rel[col])

    for c in range(cols.p):
        cols.bnorms[c] = kernels.norm2(cols.B[:, c])
        if cols.bnorms[c] == 0.0:
            # Zero right-hand side: the zero vector is the solution, and
            # the column ends before the first step.
            cols.X[:, c] = 0
            cols.rel[c] = 0.0
            cols.finalize(c, SolverStatus.CONVERGED)
    cols.compact()

    while cols.active:
        measure()
        entering = cols.k
        worst = float(np.max(cols.rel[cols.active]))
        demanded = None if control is None else control.poll()
        out_of_budget = cols.steps >= max_iterations or cols.restarts >= max_restarts
        stopped = 0  # columns ended by the whole-solve control or the budget
        for i, col in enumerate(cols.active):
            rel = cols.rel[col]
            own = cols.controls[col] if cols.controls is not None else None
            pending = cols.last_implicit[col]
            if rel <= tol:
                status = SolverStatus.CONVERGED
            elif not np.isfinite(rel):
                # A NaN/Inf residual means a working precision broke down
                # (overflow, or an injected fault); no amount of further
                # iteration recovers, and in a block it would poison the
                # shared basis, so classify instead of looping.
                status = SolverStatus.BREAKDOWN
            elif own is not None and (own_demand := own.poll()) is not None:
                status = own_demand
            elif demanded is not None:
                status = demanded
                stopped += 1
            elif (
                loss_of_accuracy is not None
                and np.isfinite(pending)
                and loss_of_accuracy.triggered(pending / cols.bnorms[i], rel)
            ):
                status = SolverStatus.LOSS_OF_ACCURACY
            elif stagnating is not None and stagnating[col].update(rel):
                status = SolverStatus.STAGNATION
            elif out_of_budget:
                status = SolverStatus.MAX_ITERATIONS
                stopped += 1
            else:
                continue
            cols.finalize(i, status)
        cols.compact(extras=(R,))
        if probe is not None:
            # A whole-solve stop is not deflation: its columns are reported
            # as the ones still active when the solve ended.
            probe(ProbeEvent(
                solver, kind, cols.steps, cols.restarts, worst,
                active=cols.k + stopped, deflated=entering - cols.k - stopped,
            ))
        if not cols.active:
            return

        k = cols.k
        taken = step(R[:, :k], cols.rnorms[:k], max_iterations - cols.steps)
        cols.book(taken)
        cols.steps += taken.iterations
        cols.restarts += 1
        if taken.final:
            # Nothing more the step can do: each true residual decides.
            measure()
            for i, col in enumerate(cols.active):
                cols.finalize(
                    i,
                    SolverStatus.CONVERGED if cols.rel[col] <= tol else SolverStatus.BREAKDOWN,
                )
            cols.active = []


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


def finish_columns(
    matrix: CsrMatrix,
    cols: Columns,
    *,
    timer,
    solver: str,
    precision: str,
    details: dict,
    fp64_check: bool,
    probe=None,
) -> Union[SolveResult, MultiSolveResult]:
    """Build (and announce) the result of a :func:`restart_loop` solve: a
    :class:`SolveResult` for a single-vector solve, a
    :class:`MultiSolveResult` for a block."""
    common = dict(timer=timer, solver=solver, precision=precision, details=details)
    if cols.vector:
        ending = Ending(
            cols.statuses[0], int(cols.iterations[0]), cols.restarts, float(cols.rel[0])
        )
        return finish(
            matrix, cols.rhs[:, 0], cols.final_X[:, 0], ending,
            history=cols.histories[0], fp64_check=fp64_check, probe=probe, **common,
        )
    rel_fp64 = cols.rel.copy()
    if fp64_check:
        for col in range(cols.p):
            rel_fp64[col] = fp64_relative_residual(
                matrix, cols.rhs[:, col], cols.final_X[:, col]
            )
    return announce(
        MultiSolveResult(
            X=cols.final_X,
            statuses=list(cols.statuses),
            iterations=cols.iterations.copy(),
            block_iterations=cols.steps,
            restarts=cols.restarts,
            relative_residuals=cols.rel.copy(),
            relative_residuals_fp64=rel_fp64,
            histories=cols.histories,
            block_size=cols.p,
            **common,
        ),
        probe,
    )


def announce(result: MultiSolveResult, probe) -> MultiSolveResult:
    """Emit the one terminal probe event of a batched solve."""
    if probe is not None:
        probe(ProbeEvent(
            solver=result.solver,
            kind="terminal",
            iteration=result.block_iterations,
            restarts=result.restarts,
            residual=float(np.max(result.relative_residuals)),
            active=0,
            deflated=0,
            extra={"statuses": dict(Counter(s.name for s in result.statuses))},
        ))
    return result


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
