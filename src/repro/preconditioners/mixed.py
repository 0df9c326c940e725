"""Mixed-precision preconditioner wrapping.

The paper's option (a) in Section III-D: run GMRES in fp64 but compute and
apply the preconditioner in fp32.  "Each time an fp32 preconditioner M is
applied to an fp64 vector x, we must cast x to fp32, multiply it by M in
fp32, and cast the result back to fp64."  The wrapper below performs (and
meters) exactly those two casts around the inner preconditioner — this is
the extra "Other" time visible in the middle bar of Figure 7.
"""

from __future__ import annotations

import numpy as np

from ..linalg import kernels
from ..precision import as_precision
from ..scratch import scratch
from .base import Preconditioner

__all__ = ["PrecisionWrappedPreconditioner", "wrap_for_precision"]


class PrecisionWrappedPreconditioner(Preconditioner):
    """Adapts a preconditioner to be callable from another working precision.

    Parameters
    ----------
    inner:
        The preconditioner, computed/applied in its own precision.
    outer_precision:
        The solver's working precision.  ``apply`` accepts vectors in this
        precision, casts down/up around the inner application, and the casts
        are metered (they land in the "Other" kernel bucket).
    """

    def __init__(self, inner: Preconditioner, outer_precision="double") -> None:
        outer = as_precision(outer_precision)
        super().__init__(precision=outer, name=f"{inner.name}@{outer.name}")
        self.inner = inner

    @property
    def is_identity(self) -> bool:
        return self.inner.is_identity

    def spmvs_per_apply(self) -> int:
        return self.inner.spmvs_per_apply()

    def setup_seconds(self) -> float:
        return self.inner.setup_seconds()

    def apply(self, vector: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        return self._cast_around(self.inner.apply, self._check_precision(vector), out)

    def apply_block(
        self, block: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Cast the whole block around the inner *batched* application.

        Delegating to ``inner.apply_block`` keeps the SpMM/BLAS-3 batching
        of block-capable preconditioners (the polynomial) through the
        precision boundary; the per-column casts are metered exactly like
        the vector path's.
        """
        block = self._check_precision(np.asarray(block))
        if block.ndim != 2:
            raise ValueError("apply_block expects a 2-D block of column vectors")
        return self._cast_around(self.inner.apply_block, block, out)

    def _cast_around(self, inner_apply, x, out) -> np.ndarray:
        """Cast ``x`` down, run ``inner_apply`` on it and cast the result up.

        A vector is cast in one metered call each way, a block in one per
        column.
        """
        if self.inner.precision.dtype == self.precision.dtype:
            return inner_apply(x, out=out)
        if x.ndim == 1:
            columns = [Ellipsis]
        else:
            columns = [np.s_[:, c] for c in range(x.shape[1])]
        inner = self.inner.precision
        down = scratch("mixed.down", inner.dtype, x.shape, order="F")
        applied = scratch("mixed.inner", inner.dtype, x.shape, order="F")
        for c in columns:
            kernels.cast(x[c], inner, out=down[c])
        applied = inner_apply(down, out=applied)
        if out is None:
            out = np.empty(x.shape, dtype=self.precision.dtype, order="F")
        for c in columns:
            kernels.cast(applied[c], self.precision, out=out[c])
        return out


def wrap_for_precision(preconditioner: Preconditioner, working_precision) -> Preconditioner:
    """Return a preconditioner usable from ``working_precision``.

    If the preconditioner already operates in that precision it is returned
    unchanged; otherwise it is wrapped in
    :class:`PrecisionWrappedPreconditioner` (casting on every application).
    """
    working = as_precision(working_precision)
    if preconditioner.precision.dtype == working.dtype:
        return preconditioner
    return PrecisionWrappedPreconditioner(preconditioner, outer_precision=working)
