"""Interface shared by all orthogonalization managers."""

from __future__ import annotations

import abc
from typing import Tuple, Union

import numpy as np

from ..linalg.multivector import MultiVector

__all__ = ["OrthogonalizationManager", "BREAKDOWN_TOLERANCE"]

#: Arnoldi norms (the Hessenberg subdiagonal) at or below this absolute
#: value are treated as exact linear dependence: a lucky breakdown of a
#: single-vector step, a collapsed column of a block step.
BREAKDOWN_TOLERANCE = 1e-30


class OrthogonalizationManager(abc.ABC):
    """Orthogonalizes the new Arnoldi vector(s) of a step against the basis.

    :meth:`orthogonalize` takes its path from the operand's ``ndim``:

    * a vector ``w`` (the managers ``cgs``, ``cgs2`` and ``mgs``) is
      orthogonalized *in place* against the ``j`` vectors stored in
      ``basis``; the call returns the projection coefficients plus the
      norm of the remainder — Hessenberg column entries ``h_{1..j, j}``
      and the subdiagonal ``h_{j+1, j}``.  ``w`` is not normalized; the
      solver does that so the scaling shows up under its own kernel label;
    * a block ``W`` (``bcgs``, ``bcgs2``) must be the ``k`` columns
      following the ones stored in ``basis``; they are orthonormalized in
      place and the call returns the Hessenberg panel plus its
      subdiagonal, the column norms (see
      :class:`~repro.ortho.block.BlockOrthogonalizationManager`).

    Managers own their Hessenberg-column scratch, so the steady-state
    iteration allocates nothing; the returned coefficients are a view into
    that scratch and are only valid until the next call — callers (the
    Givens workspace) copy them immediately.
    """

    #: short name used in reports and the ablation benchmark
    name: str = "ortho"

    #: ``ndim`` of the operands :meth:`orthogonalize` takes
    ndim: int = 1

    #: number of capacity-length scratch columns the manager needs
    _n_scratch_columns: int = 1

    def _column_scratch(self, basis: MultiVector) -> Tuple[np.ndarray, ...]:
        """Capacity-length scratch columns in the basis dtype.

        (Re)allocated only when the basis capacity or dtype changes — e.g.
        the same manager instance driving an fp32 inner and an fp64 outer
        solver — so the per-iteration path is allocation-free.
        """
        bufs = getattr(self, "_scratch_columns", None)
        if (
            bufs is None
            or bufs[0].shape[0] < basis.capacity
            or bufs[0].dtype != basis.dtype
        ):
            bufs = tuple(
                np.empty(basis.capacity, dtype=basis.dtype)
                for _ in range(self._n_scratch_columns)
            )
            self._scratch_columns = bufs
        return bufs

    @abc.abstractmethod
    def orthogonalize(
        self, basis: MultiVector, w: np.ndarray
    ) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
        """Orthogonalize ``w`` against ``basis`` in place.

        Returns
        -------
        (h, h_next):
            ``h`` — projection coefficients of length ``basis.count`` (the
            new Hessenberg column), ``h_next`` — 2-norm of the orthogonalized
            remainder (the subdiagonal entry).  A block manager returns its
            panel and the panel's subdiagonal instead.
        """
