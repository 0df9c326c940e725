"""Preconditioner interface.

All preconditioners are *right* preconditioners: the solver iterates on
``A M z = b`` and recovers ``x = M z``, so the (unpreconditioned) residuals
of the preconditioned iteration match those of the original problem in
exact arithmetic — the property the paper relies on to compare convergence
curves across preconditioning choices.
"""

from __future__ import annotations

import abc

import numpy as np

from ..precision import Precision, as_precision
from ..sparse.csr import CsrMatrix

__all__ = ["Preconditioner", "IdentityPreconditioner"]


class Preconditioner(abc.ABC):
    """Base class: an operator ``M ≈ A^{-1}`` applied to vectors.

    Subclasses must set :attr:`precision` (the precision in which the
    operator was *computed* and is *applied*) and implement :meth:`apply`.
    ``apply`` requires its input to already be in that precision — the
    solvers, or :class:`~repro.preconditioners.mixed.PrecisionWrappedPreconditioner`,
    are responsible for casting (and paying for it).
    """

    def __init__(self, precision="double", name: str = "preconditioner") -> None:
        self.precision: Precision = as_precision(precision)
        self.name = name

    @abc.abstractmethod
    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """Return ``M v``.  ``vector`` must be in :attr:`precision`.

        ``out``, when given, is a caller-owned length-``n`` buffer in the
        preconditioner precision; the application is written into it and
        ``out`` is returned.  ``out`` must not alias ``vector``.
        ``apply`` leaves the preconditioner unchanged, so threads may
        share one instance: recurrence temporaries come from the calling
        thread's :func:`repro.scratch.scratch` pool, and a steady-state
        ``apply(v, out=buf)`` allocates nothing.
        """

    def apply_block(
        self, block: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Apply ``M`` to every column of ``block`` (n × k); returns the block.

        The batched entry point of the block solvers.  The default applies
        column by column (correct for every preconditioner); subclasses
        whose recurrences are expressible on whole blocks (e.g. the GMRES
        polynomial, whose application is a sequence of SpMVs) override it
        with batched ``spmm`` kernels so the matrix traversal is amortized
        across the block.  ``out`` must not alias ``block``.
        """
        block = np.asarray(block)
        if block.ndim != 2:
            raise ValueError("apply_block expects a 2-D block of column vectors")
        if out is None:
            out = np.empty(block.shape, dtype=self.precision.dtype, order="F")
        for c in range(block.shape[1]):
            self.apply(block[:, c], out=out[:, c])
        return out

    # -- optional hooks -------------------------------------------------- #
    @property
    def is_identity(self) -> bool:
        return False

    def spmvs_per_apply(self) -> int:
        """Number of SpMV calls one application performs (0 if none)."""
        return 0

    def setup_seconds(self) -> float:
        """Wall-clock seconds spent constructing the preconditioner.

        The paper excludes preconditioner construction from solve times but
        reports it separately ("0.5 seconds or less"), so it is tracked.
        """
        return getattr(self, "_setup_seconds", 0.0)

    def _check_precision(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector)
        if vector.dtype != self.precision.dtype:
            raise TypeError(
                f"{self.name}: expected a {self.precision.name}-precision vector, "
                f"got dtype {vector.dtype.name}; wrap the preconditioner with "
                "PrecisionWrappedPreconditioner to use it from another precision"
            )
        return vector

    @staticmethod
    def _matrix_in_precision(matrix: CsrMatrix, precision: Precision) -> CsrMatrix:
        """The system matrix converted to the preconditioner precision."""
        return matrix.astype(precision)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} precision={self.precision.name}>"


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (``M = I``); lets solvers avoid special-casing."""

    def __init__(self, precision="double") -> None:
        super().__init__(precision=precision, name="identity")

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        vector = self._check_precision(vector)
        if out is None:
            return vector
        out[:] = vector
        return out

    @property
    def is_identity(self) -> bool:
        return True
