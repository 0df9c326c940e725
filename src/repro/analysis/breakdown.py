"""Kernel-time breakdowns of solver runs.

This is the data behind Figures 4, 7 and 8 of the paper: total solve time
split into the kernel buckets "GEMV (Trans)", "Norm", "GEMV (No Trans)",
"SpMV", "Precond" and "Other", plus the derived "Total Orthogonalization"
row of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..perfmodel.timer import KernelTimer, ORTHO_LABELS
from ..solvers.result import SolveResult

__all__ = ["KernelBreakdown", "breakdown_from_result", "breakdown_from_timer", "BREAKDOWN_ORDER"]

#: Display order used by the paper's stacked bars.
BREAKDOWN_ORDER: tuple = ("GEMV (Trans)", "Norm", "GEMV (No Trans)", "SpMV", "Precond", "Other")


@dataclass
class KernelBreakdown:
    """Per-kernel modelled seconds of one solver run."""

    name: str
    seconds_by_label: Dict[str, float] = field(default_factory=dict)
    calls_by_label: Dict[str, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_label.values())

    @property
    def orthogonalization_seconds(self) -> float:
        """The paper's "Total Orthogonalization" = GEMV(T) + Norm + GEMV(N)."""
        return sum(self.seconds_by_label.get(label, 0.0) for label in ORTHO_LABELS)

    def seconds(self, label: str) -> float:
        return self.seconds_by_label.get(label, 0.0)

    def row_seconds(self, label: str) -> float:
        """Seconds of one Table I row, the two derived totals included."""
        if label == "Total Orthogonalization":
            return self.orthogonalization_seconds
        if label == "Total Time":
            return self.total_seconds
        return self.seconds(label)

    def fraction(self, label: str) -> float:
        """Share of the total time spent in one kernel bucket."""
        total = self.total_seconds
        return self.seconds(label) / total if total > 0 else 0.0

    def orthogonalization_fraction(self) -> float:
        total = self.total_seconds
        return self.orthogonalization_seconds / total if total > 0 else 0.0

    def as_rows(self) -> List[tuple]:
        """Rows ``(label, seconds, calls, fraction)`` in display order."""
        rows = []
        for label in BREAKDOWN_ORDER:
            if label in self.seconds_by_label:
                rows.append(
                    (
                        label,
                        self.seconds_by_label[label],
                        self.calls_by_label.get(label, 0),
                        self.fraction(label),
                    )
                )
        for label, secs in self.seconds_by_label.items():
            if label not in BREAKDOWN_ORDER:
                rows.append((label, secs, self.calls_by_label.get(label, 0), self.fraction(label)))
        return rows


def breakdown_from_timer(timer: KernelTimer, name: Optional[str] = None) -> KernelBreakdown:
    """Build a :class:`KernelBreakdown` from a timer's records."""
    return KernelBreakdown(
        name=name or timer.name,
        seconds_by_label=timer.model_seconds_by_label(),
        calls_by_label=timer.calls_by_label(),
    )


def breakdown_from_result(result: SolveResult, name: Optional[str] = None) -> KernelBreakdown:
    """Build a :class:`KernelBreakdown` from a solver result."""
    label = name or f"{result.solver} [{result.precision}]"
    return breakdown_from_timer(result.timer, name=label)
