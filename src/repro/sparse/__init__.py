"""Sparse-matrix substrate (CSR storage, kernels, orderings, properties).

The paper's solvers run on CSR matrices through Kokkos Kernels; here the
same role is played by :class:`~repro.sparse.csr.CsrMatrix` plus the
kernel backends of :mod:`repro.backends`.  The module also
provides the reverse Cuthill–McKee reordering used before block-Jacobi
preconditioning in Table III, and structural property queries (bandwidth,
nonzeros per row, symmetry) that both the performance model and the
experiment harness rely on.
"""

from .csr import CsrMatrix
from .ops import coo_to_csr, extract_block_diagonal
from .ordering import reverse_cuthill_mckee, pseudo_peripheral_node, permute_symmetric
from .properties import (
    bandwidth,
    avg_nonzeros_per_row,
    max_nonzeros_per_row,
    is_structurally_symmetric,
    is_numerically_symmetric,
    diagonal_dominance_ratio,
)
from .convert import from_scipy, to_scipy, to_precision

__all__ = [
    "CsrMatrix",
    "coo_to_csr",
    "extract_block_diagonal",
    "reverse_cuthill_mckee",
    "pseudo_peripheral_node",
    "permute_symmetric",
    "bandwidth",
    "avg_nonzeros_per_row",
    "max_nonzeros_per_row",
    "is_structurally_symmetric",
    "is_numerically_symmetric",
    "diagonal_dominance_ratio",
    "from_scipy",
    "to_scipy",
    "to_precision",
]
