"""Orthogonalization managers for the Arnoldi process.

The paper's GMRES uses two passes of classical Gram-Schmidt (CGS2), chosen
because each pass is just two tall-skinny GEMV calls — ideal for GPUs —
while the second pass restores the orthogonality a single CGS pass loses in
finite precision.  Modified Gram-Schmidt (MGS) and single-pass CGS are
provided for the ablation study (stability vs. kernel count).  The block
solvers orthogonalize ``k`` vectors at a time with the BLAS-3 block
variants (BCGS2, BCGS).

Every manager has one :meth:`~OrthogonalizationManager.orthogonalize`
step, and one registry, :func:`make_ortho_manager`, builds them all by
name: ``cgs``/``cgs1``, ``cgs2`` and ``mgs`` take a vector, ``bcgs`` and
``bcgs2`` a block (each manager's ``ndim``).
"""

from .base import BREAKDOWN_TOLERANCE, OrthogonalizationManager
from .block import (
    BlockClassicalGramSchmidt,
    BlockClassicalGramSchmidt2,
    BlockOrthogonalizationManager,
)
from .cgs import ClassicalGramSchmidt
from .cgs2 import ClassicalGramSchmidt2
from .mgs import ModifiedGramSchmidt

__all__ = [
    "BREAKDOWN_TOLERANCE",
    "OrthogonalizationManager",
    "ClassicalGramSchmidt",
    "ClassicalGramSchmidt2",
    "ModifiedGramSchmidt",
    "BlockOrthogonalizationManager",
    "BlockClassicalGramSchmidt",
    "BlockClassicalGramSchmidt2",
    "make_ortho_manager",
]

_REGISTRY = {
    "cgs": ClassicalGramSchmidt,
    "cgs1": ClassicalGramSchmidt,
    "cgs2": ClassicalGramSchmidt2,
    "mgs": ModifiedGramSchmidt,
    "bcgs": BlockClassicalGramSchmidt,
    "bcgs2": BlockClassicalGramSchmidt2,
}


def make_ortho_manager(name: str) -> OrthogonalizationManager:
    """Build an orthogonalization manager by name (see the module docstring)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown orthogonalization {name!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[key]()
