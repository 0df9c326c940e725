"""Batching policy: sequential-vs-block decision and block-width choice.

The scheduler asks the policy, every time it is about to dispatch, how wide
the batch should be given how many requests are waiting.  The ``"auto"``
mode answers from the analytic kernel cost model
(:meth:`repro.perfmodel.costs.KernelCostModel.block_iteration_speedup`):
blocking wins exactly when the per-iteration work is dominated by matrix
traversals (one SpMM streams the matrix once for ``k`` right-hand sides,
where ``k`` sequential solves stream it ``k`` times), which is the paper's
SpMM-amortization argument applied to the serving workload.  A polynomial
preconditioner of degree ``d`` multiplies the SpMVs per iteration by
``d + 1`` and therefore pushes the decision firmly toward blocking; a
plain unpreconditioned solve is orthogonalization-dominated and gains
little, which the model reflects.

The decision is *modelled* (the library's V100 performance model, like
every cost in :mod:`repro.perfmodel`), deterministic per operator, and
overridable: the ``policy=`` argument of
:class:`~repro.serve.session.OperatorSession` forces ``"block"`` or
``"sequential"`` unconditionally.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..perfmodel.costs import KernelCostModel
from ..precision import as_precision
from ..sparse.csr import CsrMatrix

__all__ = ["BatchingPolicy", "POLICY_MODES"]

#: Valid policy modes.
POLICY_MODES = ("auto", "block", "sequential")

#: Modelled per-RHS speedup a width must clear before "auto" prefers it
#: over a narrower dispatch (guards against batching on wash-level gains).
AUTO_THRESHOLD = 1.05


class BatchingPolicy:
    """Chooses the dispatch width for one operator.

    Parameters
    ----------
    matrix:
        The session's operator (its dimensions, nnz and bandwidth feed the
        cost model).
    cost_model:
        The :class:`KernelCostModel` of the session's execution context.
    max_block:
        Hard cap on the dispatch width (the scheduler's queue capacity per
        batch).
    mode:
        ``"auto"`` — consult the cost model; ``"block"`` — always dispatch
        every waiting request up to ``max_block``; ``"sequential"`` —
        always dispatch width 1.
    precision:
        Working precision of the session's solves (sets the value width
        the cost model prices).
    basis_columns:
        Representative per-column Krylov dimension used in the ortho terms
        (the session passes its restart length).
    spmvs_per_iteration:
        Operator applications per Krylov step: 1 for a plain solve, plus
        the preconditioner's :meth:`spmvs_per_apply`.
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        cost_model: KernelCostModel,
        *,
        max_block: int,
        mode: str = "auto",
        precision="double",
        basis_columns: int = 25,
        spmvs_per_iteration: int = 1,
    ) -> None:
        if mode not in POLICY_MODES:
            raise ValueError(
                f"unknown batching policy mode {mode!r}; choose from {POLICY_MODES}"
            )
        if max_block < 1:
            raise ValueError("max_block must be at least 1")
        self.mode = mode
        self.max_block = int(max_block)
        self._n_rows = matrix.n_rows
        self._n_cols = matrix.n_cols
        self._nnz = matrix.nnz
        self._bandwidth = matrix.bandwidth()
        self._value_bytes = as_precision(precision).bytes
        self._basis_columns = max(1, int(basis_columns))
        self._spmvs = max(1, int(spmvs_per_iteration))
        self._model = cost_model
        self._speedups: Dict[int, float] = {1: 1.0}

    # ------------------------------------------------------------------ #
    # cost-model consultation                                            #
    # ------------------------------------------------------------------ #
    def modelled_speedup(self, k: int) -> float:
        """Modelled per-RHS speedup of a width-``k`` block dispatch (cached)."""
        if k <= 0:
            raise ValueError("k must be positive")
        cached = self._speedups.get(k)
        if cached is None:
            cached = self._speedups[k] = self._model.block_iteration_speedup(
                self._n_rows,
                self._n_cols,
                self._nnz,
                k,
                self._value_bytes,
                basis_columns=self._basis_columns,
                spmvs_per_iteration=self._spmvs,
                matrix_bandwidth=self._bandwidth,
            )
        return cached

    def decision_table(self, max_width: Optional[int] = None) -> Dict[int, float]:
        """Modelled speedup for every width up to ``max_width`` (debugging /
        benchmark introspection)."""
        top = self.max_block if max_width is None else min(max_width, self.max_block)
        return {k: self.modelled_speedup(k) for k in range(1, top + 1)}

    # ------------------------------------------------------------------ #
    # the scheduler's question                                           #
    # ------------------------------------------------------------------ #
    def block_width(self, waiting: int) -> int:
        """Width to dispatch given ``waiting`` queued requests (>= 1).

        ``"auto"`` picks the width with the best modelled per-RHS speedup
        among the feasible ones, falling back to 1 when no width clears
        :data:`AUTO_THRESHOLD` — requests left in the queue simply form the
        next batch.
        """
        if waiting < 1:
            raise ValueError("block_width needs at least one waiting request")
        feasible = min(waiting, self.max_block)
        if self.mode == "sequential" or feasible == 1:
            return 1
        if self.mode == "block":
            return feasible
        best_width, best_speedup = 1, 1.0
        for k in range(2, feasible + 1):
            speedup = self.modelled_speedup(k)
            if speedup > best_speedup:
                best_width, best_speedup = k, speedup
        if best_speedup < AUTO_THRESHOLD:
            return 1
        return best_width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BatchingPolicy mode={self.mode!r} max_block={self.max_block} "
            f"spmvs_per_iteration={self._spmvs}>"
        )
