"""Shared infrastructure for the experiment drivers.

Every experiment in this package reproduces one table or figure of the
paper's evaluation (Section V).  They all share the same conventions, which
mirror the paper's experimental setup scaled to pure-Python problem sizes:

* right-hand side of all ones, zero initial guess, relative tolerance 1e-10;
* restarted GMRES with CGS2 orthogonalization;
* solve "times" are **modelled V100 seconds** accumulated by the kernel
  performance model (see :mod:`repro.perfmodel` for the substitution
  argument) — wall clock is also recorded for the benchmark harness;
* each problem runs on a **dimensionally scaled** V100
  (:meth:`~repro.perfmodel.device.DeviceSpec.scaled` with factor
  ``n_scaled / n_paper``) so that cache-reuse regimes and the ratio of fixed
  kernel overheads to streaming time match the paper-size problem;
* the default restart length is 25 rather than the paper's 50: the scaled
  problems need proportionally fewer iterations, and keeping the paper's
  "many cycles per solve" regime matters more for reproducing GMRES-IR
  behaviour than keeping the absolute restart length (Section V-E of the
  paper is precisely about this trade-off, and the restart-sweep
  experiments cover both regimes).

The :class:`ExperimentReport` produced by every driver carries the table
rows / figure series in plain data structures plus paper reference values,
so the benchmark harness and EXPERIMENTS.md generation just format them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..analysis.tables import format_kv, format_table
from ..config import get_config
from ..linalg.context import use_device
from ..perfmodel.device import DeviceSpec, get_device
from ..precision import as_precision
from ..sparse.csr import CsrMatrix
from ..solvers.result import SolveResult

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "scaled_device",
    "solve_on_scaled_device",
    "ones_rhs",
    "DEFAULT_RESTART",
]

#: Scaled default restart length used by the experiment drivers (paper: 50).
DEFAULT_RESTART = 25


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``quick`` selects smaller grids / fewer sweep points so the whole
    benchmark suite stays inside a few minutes; the full setting runs the
    defaults each experiment module documents.
    """

    restart: int = DEFAULT_RESTART
    tol: float = 1e-10
    device_name: str = "v100"
    quick: bool = False

    def pick(self, full, quick):
        """Return ``quick`` or ``full`` depending on the quick flag."""
        return quick if self.quick else full


@dataclass
class ExperimentReport:
    """Output of one experiment driver.

    Attributes
    ----------
    experiment:
        Identifier matching the paper ("Figure 1", "Table II", ...).
    title:
        One-line description.
    rows:
        Table rows (list of plain dicts) — for figures these are the plotted
        series in tabular form.
    columns:
        Column order for formatting.
    parameters:
        The workload parameters used (grid size, restart, degrees, ...).
    paper_reference:
        The corresponding numbers reported in the paper, for side-by-side
        comparison in EXPERIMENTS.md.
    notes:
        Free-form remarks (known mismatches, substitutions).
    """

    experiment: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    columns: Optional[List[str]] = None
    parameters: Dict[str, object] = field(default_factory=dict)
    paper_reference: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def format(self, *, float_format: str = ".4g") -> str:
        """Human-readable rendering (used by benchmarks and EXPERIMENTS.md)."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.parameters:
            parts.append(format_kv(self.parameters, title="parameters:"))
        parts.append(
            format_table(self.rows, self.columns, float_format=float_format)
        )
        if self.paper_reference:
            parts.append(format_kv(self.paper_reference, title="paper reference:"))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def row_values(self, column: str) -> List[object]:
        """Extract one column across all rows (for assertions in benchmarks)."""
        return [row.get(column) for row in self.rows]


def ones_rhs(matrix: CsrMatrix, precision="double") -> np.ndarray:
    """All-ones right-hand side in the requested precision (paper Section V)."""
    return np.ones(matrix.n_rows, dtype=as_precision(precision).dtype)


def scaled_device(
    n_rows: int, paper_n: int, device_name: Optional[str] = None
) -> DeviceSpec:
    """The dimensionally scaled device for a problem of ``n_rows`` unknowns.

    ``paper_n`` is the size of the corresponding problem in the paper; the
    device's capacity- and latency-like parameters are scaled by
    ``n_rows / paper_n`` (see :meth:`DeviceSpec.scaled`).
    """
    name = device_name or get_config().device_name
    base = get_device(name)
    factor = n_rows / float(paper_n)
    return base.scaled(factor)


def solve_on_scaled_device(
    solver: Callable[..., SolveResult],
    matrix: CsrMatrix,
    paper_n: int,
    *,
    device_name: Optional[str] = None,
    rhs: Optional[np.ndarray] = None,
    **solver_kwargs,
) -> SolveResult:
    """Run ``solver(matrix, b, **kwargs)`` under the scaled-device context."""
    b = rhs if rhs is not None else ones_rhs(matrix)
    device = scaled_device(matrix.n_rows, paper_n, device_name)
    with use_device(device):
        return solver(matrix, b, **solver_kwargs)
