"""Solver results and convergence histories.

Every solver returns a :class:`SolveResult` carrying the solution, the
status, iteration/restart counts, the per-kernel :class:`KernelTimer`
(modelled GPU seconds and wall seconds), and a
:class:`ConvergenceHistory` — the data behind the paper's convergence plots
(Figures 3 and 6) and timing tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence, runtime_checkable

import numpy as np

from ..perfmodel.timer import KernelTimer

__all__ = [
    "SolverStatus",
    "ConvergenceHistory",
    "ResultLike",
    "SolveResult",
    "MultiSolveResult",
    "merge_chunks",
]


class SolverStatus(str, enum.Enum):
    """Terminal state of a solver run."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    LOSS_OF_ACCURACY = "loss_of_accuracy"
    BREAKDOWN = "breakdown"
    STAGNATION = "stagnation"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class ConvergenceHistory:
    """Relative residual norms recorded during a solve.

    Two series are kept:

    * ``implicit`` — the cheap per-iteration estimate obtained from the
      Givens-rotated Hessenberg system (what GMRES monitors every iteration),
      recorded as ``(global_iteration, relative_norm)`` pairs;
    * ``explicit`` — the true residual ``||b - A x|| / ||b||`` recomputed at
      every restart / refinement step (and, for GMRES-IR, in fp64).

    The divergence of the two series is exactly the "loss of accuracy"
    phenomenon of Section V-F.
    """

    implicit_iterations: List[int] = field(default_factory=list)
    implicit_norms: List[float] = field(default_factory=list)
    explicit_iterations: List[int] = field(default_factory=list)
    explicit_norms: List[float] = field(default_factory=list)

    def record_implicit(self, iteration: int, relative_norm: float) -> None:
        self.implicit_iterations.append(int(iteration))
        self.implicit_norms.append(float(relative_norm))

    def record_explicit(self, iteration: int, relative_norm: float) -> None:
        self.explicit_iterations.append(int(iteration))
        self.explicit_norms.append(float(relative_norm))

    # -- convenience views ------------------------------------------------ #
    def implicit_series(self) -> np.ndarray:
        """``(k, 2)`` array of (iteration, relative norm) implicit samples."""
        return np.column_stack(
            [np.asarray(self.implicit_iterations, dtype=np.int64),
             np.asarray(self.implicit_norms, dtype=np.float64)]
        ) if self.implicit_iterations else np.empty((0, 2))

    def explicit_series(self) -> np.ndarray:
        """``(k, 2)`` array of (iteration, relative norm) explicit samples."""
        return np.column_stack(
            [np.asarray(self.explicit_iterations, dtype=np.int64),
             np.asarray(self.explicit_norms, dtype=np.float64)]
        ) if self.explicit_iterations else np.empty((0, 2))

    def best_explicit(self) -> float:
        """Smallest true relative residual seen (``inf`` if none recorded)."""
        return min(self.explicit_norms) if self.explicit_norms else float("inf")

    def merged_with(self, other: "ConvergenceHistory", iteration_offset: int = 0) -> "ConvergenceHistory":
        """Concatenate two histories, shifting the second one's iterations."""
        out = ConvergenceHistory(
            implicit_iterations=list(self.implicit_iterations),
            implicit_norms=list(self.implicit_norms),
            explicit_iterations=list(self.explicit_iterations),
            explicit_norms=list(self.explicit_norms),
        )
        out.implicit_iterations += [i + iteration_offset for i in other.implicit_iterations]
        out.implicit_norms += list(other.implicit_norms)
        out.explicit_iterations += [i + iteration_offset for i in other.explicit_iterations]
        out.explicit_norms += list(other.explicit_norms)
        return out


@runtime_checkable
class ResultLike(Protocol):
    """The one result surface every solve-shaped outcome satisfies.

    :class:`SolveResult` (one right-hand side), :class:`MultiSolveResult`
    (a batched block) and :class:`repro.serve.ServeResult` (one served
    request) all expose this protocol, so code consuming results — the
    serve layer, benchmarks, user callbacks — can be written once against
    it:

    * ``status`` — terminal :class:`SolverStatus` (for a batch: the
      aggregate — ``CONVERGED`` only if every column converged, otherwise
      the first non-converged column's status);
    * ``converged`` — ``status == CONVERGED`` (for a batch: all columns);
    * ``iterations`` — iteration count (per-column array for a batch);
    * ``residual_history`` — the :class:`ConvergenceHistory` (a list of
      them, one per column, for a batch);
    * ``summary()`` — one-paragraph human-readable description.

    ``isinstance(result, ResultLike)`` works at runtime (the protocol is
    ``runtime_checkable``).
    """

    @property
    def status(self) -> SolverStatus: ...

    @property
    def converged(self) -> bool: ...

    @property
    def iterations(self): ...

    @property
    def residual_history(self): ...

    def summary(self) -> str: ...


@dataclass
class SolveResult:
    """Outcome of a linear solve.

    Attributes
    ----------
    x:
        Approximate solution (in the precision the caller asked results in —
        fp64 for GMRES-IR and GMRES-FD, the working precision otherwise).
    status:
        Terminal :class:`SolverStatus`.
    iterations:
        Total inner (Arnoldi) iterations across all restarts.
    restarts:
        Number of restart cycles (for GMRES-IR: refinement steps).
    relative_residual:
        Final true relative residual ``||b - A x|| / ||b||`` in the working
        precision of the *outer* solver.
    relative_residual_fp64:
        The same quantity recomputed in fp64 — the accuracy criterion the
        paper cares about ("maintaining double precision accuracy").
    history:
        :class:`ConvergenceHistory` of the run.
    timer:
        :class:`KernelTimer` with the per-kernel modelled/wall time split.
    solver:
        Solver name (``"gmres"``, ``"gmres-ir"``, ``"gmres-fd"``, ``"cg"``).
    precision:
        Human-readable description of the precision configuration.
    details:
        Free-form extras (inner/outer iteration split, switch point, ...).
    """

    x: np.ndarray
    status: SolverStatus
    iterations: int
    restarts: int
    relative_residual: float
    relative_residual_fp64: float
    history: ConvergenceHistory
    timer: KernelTimer
    solver: str
    precision: str
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == SolverStatus.CONVERGED

    @property
    def residual_history(self) -> ConvergenceHistory:
        """:class:`ConvergenceHistory` of the run (:class:`ResultLike` name
        for the ``history`` field)."""
        return self.history

    @property
    def model_seconds(self) -> float:
        """Modelled GPU solve time (the paper's "solve time" analogue)."""
        return self.timer.total_model_seconds()

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock time actually spent in the metered kernels."""
        return self.timer.total_wall_seconds()

    def kernel_breakdown(self) -> Dict[str, float]:
        """Modelled seconds per kernel label (the bars of Figures 4/7/8)."""
        return self.timer.model_seconds_by_label()

    def summary(self) -> str:
        """One-paragraph human-readable description of the run."""
        lines = [
            f"{self.solver} [{self.precision}] — {self.status.value}",
            f"  iterations: {self.iterations} in {self.restarts} cycles",
            f"  relative residual: {self.relative_residual:.3e} "
            f"(fp64 check: {self.relative_residual_fp64:.3e})",
            f"  modelled GPU time: {self.model_seconds:.4f} s; "
            f"kernel wall time: {self.wall_seconds:.4f} s",
        ]
        return "\n".join(lines)


@dataclass
class MultiSolveResult:
    """Outcome of a batched multi-right-hand-side solve.

    The block solvers advance every right-hand side through one shared
    Krylov space, so iteration counts and statuses are *per column* while
    the kernel timer is shared (the whole point of batching is that the
    kernels are amortized and cannot be attributed to a single column).

    Attributes
    ----------
    X:
        Solution block, shape ``(n, n_rhs)``, columns in the caller's
        original order (deflation reorders work internally, not results).
    statuses:
        Terminal :class:`SolverStatus` per column.
    iterations:
        Per-column iteration counts: the number of block-Arnoldi steps the
        column participated in before its convergence was detected (for a
        column whose implicit estimate converged mid-cycle, the step at
        which it first dropped below the target, as later confirmed by the
        explicit residual).
    block_iterations:
        Total block-Arnoldi steps performed (shared across columns).
    restarts:
        Restart cycles (for block GMRES-IR: refinement steps).
    relative_residuals / relative_residuals_fp64:
        Final true relative residual per column (working precision / fp64
        recheck).
    histories:
        Per-column :class:`ConvergenceHistory`.
    timer:
        Shared :class:`KernelTimer` of the batched solve.
    block_size:
        Width of the (initial) block, i.e. ``n_rhs`` per sub-block.
    """

    X: np.ndarray
    statuses: List[SolverStatus]
    iterations: np.ndarray
    block_iterations: int
    restarts: int
    relative_residuals: np.ndarray
    relative_residuals_fp64: np.ndarray
    histories: List[ConvergenceHistory]
    timer: KernelTimer
    solver: str
    precision: str
    block_size: int
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def n_rhs(self) -> int:
        return self.X.shape[1]

    @property
    def status(self) -> SolverStatus:
        """Aggregate terminal status (:class:`ResultLike`): ``CONVERGED``
        only if every column converged, otherwise the first non-converged
        column's status (per-column detail stays in ``statuses``)."""
        for s in self.statuses:
            if s != SolverStatus.CONVERGED:
                return s
        return SolverStatus.CONVERGED

    @property
    def converged(self) -> bool:
        """Whether *every* column converged (:class:`ResultLike` name)."""
        return all(s == SolverStatus.CONVERGED for s in self.statuses)

    @property
    def residual_history(self) -> List[ConvergenceHistory]:
        """Per-column histories (:class:`ResultLike` name for ``histories``)."""
        return self.histories

    @property
    def model_seconds(self) -> float:
        """Modelled GPU solve time of the whole batch."""
        return self.timer.total_model_seconds()

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock time spent in the metered kernels (whole batch)."""
        return self.timer.total_wall_seconds()

    def column(self, c: int) -> SolveResult:
        """Per-column :class:`SolveResult` view (the timer stays shared)."""
        return SolveResult(
            x=self.X[:, c],
            status=self.statuses[c],
            iterations=int(self.iterations[c]),
            restarts=self.restarts,
            relative_residual=float(self.relative_residuals[c]),
            relative_residual_fp64=float(self.relative_residuals_fp64[c]),
            history=self.histories[c],
            timer=self.timer,
            solver=self.solver,
            precision=self.precision,
            details=dict(self.details, column=c),
        )

    def split(self) -> List[SolveResult]:
        """Demultiplex into one :class:`SolveResult` per right-hand side.

        The serve layer's fan-out: after a batched dispatch each client
        future is resolved with its own column result.  Solution vectors
        are *copied* (each client owns its result outright; the batch block
        can be reused), while histories and the shared timer are the same
        objects referenced per column.
        """
        results = []
        for c in range(self.n_rhs):
            res = self.column(c)
            res.x = np.array(res.x, copy=True)
            results.append(res)
        return results

    def summary(self) -> str:
        """Human-readable description of the batched run."""
        converged = sum(s == SolverStatus.CONVERGED for s in self.statuses)
        worst = float(np.max(self.relative_residuals)) if self.n_rhs else 0.0
        lines = [
            f"{self.solver} [{self.precision}] — "
            f"{converged}/{self.n_rhs} columns converged",
            f"  block iterations: {self.block_iterations} in {self.restarts} cycles "
            f"(block size {self.block_size})",
            f"  worst relative residual: {worst:.3e}",
            f"  modelled GPU time: {self.model_seconds:.4f} s; "
            f"kernel wall time: {self.wall_seconds:.4f} s",
        ]
        return "\n".join(lines)


def merge_chunks(
    results: Sequence[MultiSolveResult],
    *,
    timer: KernelTimer,
    solver: str,
    block_size: int,
) -> MultiSolveResult:
    """One result for a batch whose columns were solved chunk by chunk.

    Per-column fields are concatenated in chunk order and the block
    iteration and restart counts summed; ``details`` are the first
    chunk's plus ``block_size`` and ``n_blocks``.  ``timer`` becomes the
    result's timer as it is: a caller whose chunks booked into separate
    timers merges them into it first.
    """
    return MultiSolveResult(
        X=np.concatenate([r.X for r in results], axis=1),
        statuses=[s for r in results for s in r.statuses],
        iterations=np.concatenate([r.iterations for r in results]),
        block_iterations=sum(r.block_iterations for r in results),
        restarts=sum(r.restarts for r in results),
        relative_residuals=np.concatenate([r.relative_residuals for r in results]),
        relative_residuals_fp64=np.concatenate(
            [r.relative_residuals_fp64 for r in results]
        ),
        histories=[h for r in results for h in r.histories],
        timer=timer,
        solver=solver,
        precision=results[0].precision,
        block_size=block_size,
        details=dict(results[0].details, block_size=block_size, n_blocks=len(results)),
    )
