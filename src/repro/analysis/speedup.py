"""Speedup tables: per-kernel and total fp64 → mixed-precision speedups.

Reproduces the layout of Table I and Figure 5 of the paper: for two solver
runs (typically GMRES double and GMRES-IR on the same problem) the total
time spent in each kernel bucket is compared, including the derived "Total
Orthogonalization" row.  As the paper notes, this compares the *total* time
each solver spends in a kernel, not per-call time — GMRES-IR usually
performs a few more calls because it takes extra iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..solvers.result import SolveResult
from .breakdown import breakdown_from_result

__all__ = ["SpeedupRow", "SpeedupTable", "speedup_table"]

#: Row order of Table I in the paper.
TABLE_I_ROWS = (
    "GEMV (Trans)",
    "Norm",
    "GEMV (No Trans)",
    "Total Orthogonalization",
    "SpMV",
    "Precond",
    "Other",
    "Total Time",
)


@dataclass
class SpeedupRow:
    """One kernel bucket compared across the two runs."""

    label: str
    baseline_seconds: float
    comparison_seconds: float

    @property
    def speedup(self) -> float:
        if self.comparison_seconds <= 0:
            return float("inf") if self.baseline_seconds > 0 else 1.0
        return self.baseline_seconds / self.comparison_seconds


@dataclass
class SpeedupTable:
    """Per-kernel speedups of ``comparison`` (e.g. GMRES-IR) over ``baseline``."""

    baseline_name: str
    comparison_name: str
    rows: List[SpeedupRow] = field(default_factory=list)

    def row(self, label: str) -> SpeedupRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row labelled {label!r}")

    @property
    def total_speedup(self) -> float:
        return self.row("Total Time").speedup

    def as_dict(self) -> Dict[str, float]:
        """Mapping label → speedup (the series plotted in Figure 5)."""
        return {r.label: r.speedup for r in self.rows}

    def format(self, *, time_unit: str = "s", scale: float = 1.0) -> str:
        """Text rendering in the layout of Table I."""
        header = (
            f"{'':24s} {self.baseline_name:>14s} {self.comparison_name:>14s} {'Speedup':>9s}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.label:24s} {r.baseline_seconds * scale:14.4f} "
                f"{r.comparison_seconds * scale:14.4f} {r.speedup:9.2f}"
            )
        lines.append(f"(times in {time_unit})")
        return "\n".join(lines)


def speedup_table(
    baseline: SolveResult,
    comparison: SolveResult,
    *,
    baseline_name: Optional[str] = None,
    comparison_name: Optional[str] = None,
) -> SpeedupTable:
    """Build the Table-I-style per-kernel speedup table for two solver runs."""
    base = breakdown_from_result(baseline, name=baseline_name)
    comp = breakdown_from_result(comparison, name=comparison_name)
    table = SpeedupTable(
        baseline_name=baseline_name or base.name,
        comparison_name=comparison_name or comp.name,
    )
    for label in TABLE_I_ROWS:
        b, c = base.row_seconds(label), comp.row_seconds(label)
        if b == 0.0 and c == 0.0 and not label.startswith("Total"):
            continue
        table.rows.append(SpeedupRow(label=label, baseline_seconds=b, comparison_seconds=c))
    return table
