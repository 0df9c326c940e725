"""Kernel timing accumulation.

Every instrumented kernel (see :mod:`repro.linalg.kernels`) reports each
call to the *active* :class:`KernelTimer`:

* the **modelled GPU seconds** from :class:`~repro.perfmodel.costs.KernelCostModel`
  (this is what the experiment harness reports as "solve time", standing in
  for the paper's measured V100 seconds),
* the **wall-clock seconds** of the NumPy execution on the host (useful for
  pytest-benchmark and for verifying that the pure-Python implementation is
  itself written efficiently), and
* byte and FLOP counts.

Timers aggregate per kernel *label*; the labels mirror the paper's figures
("SpMV", "GEMV (Trans)", "GEMV (No Trans)", "Norm", "Other", plus the cast
and refinement labels GMRES-IR adds).  Timers nest: the solvers push their
own timer while also allowing an enclosing experiment timer to observe the
same records, via :func:`use_timer`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .costs import CostEstimate

__all__ = [
    "KernelRecord",
    "KernelTimer",
    "active_timer",
    "push_timer",
    "pop_timer",
    "use_timer",
    "ORTHO_LABELS",
    "canonical_label",
]

#: Labels that the paper groups under "Total Orthogonalization" (Table I).
ORTHO_LABELS: Tuple[str, ...] = ("GEMV (Trans)", "Norm", "GEMV (No Trans)")

#: Canonical label spellings used across figures/tables.
_CANONICAL = {
    "spmv": "SpMV",
    "gemv_t": "GEMV (Trans)",
    "gemv (trans)": "GEMV (Trans)",
    "gemv_n": "GEMV (No Trans)",
    "gemv (no trans)": "GEMV (No Trans)",
    "norm": "Norm",
    "dot": "Norm",  # single-vector dot products are grouped with norms
    "axpy": "Other",
    "scal": "Other",
    "copy": "Other",
    "cast": "Other",
    "host": "Other",
    "other": "Other",
    "residual": "Other",
    "precond": "Precond",
}


def canonical_label(label: str) -> str:
    """Map an internal kernel name to the label used in the paper's figures."""
    return _CANONICAL.get(label.lower(), label)


@dataclass(slots=True)
class KernelRecord:
    """Accumulated statistics for one (label, precision) bucket."""

    label: str
    precision: str
    calls: int = 0
    model_seconds: float = 0.0
    wall_seconds: float = 0.0
    bytes: float = 0.0
    flops: float = 0.0

    def add(self, cost: CostEstimate, wall_seconds: float = 0.0) -> None:
        self.calls += 1
        self.model_seconds += cost.seconds
        self.wall_seconds += wall_seconds
        self.bytes += cost.bytes
        self.flops += cost.flops

    def merged_with(self, other: "KernelRecord") -> "KernelRecord":
        if other.label != self.label:
            raise ValueError("cannot merge records with different labels")
        return KernelRecord(
            label=self.label,
            precision=self.precision if self.precision == other.precision else "mixed",
            calls=self.calls + other.calls,
            model_seconds=self.model_seconds + other.model_seconds,
            wall_seconds=self.wall_seconds + other.wall_seconds,
            bytes=self.bytes + other.bytes,
            flops=self.flops + other.flops,
        )


class KernelTimer:
    """Accumulates kernel records, optionally mirroring into parent timers.

    Parameters
    ----------
    name:
        Identifier shown in reports (e.g. ``"GMRES double"`` / ``"GMRES-IR"``).
    """

    def __init__(self, name: str = "timer") -> None:
        self.name = name
        self._records: Dict[Tuple[str, str], KernelRecord] = {}
        # (raw label, precision) -> its canonical-label bucket, so the
        # label is canonicalized once per raw spelling, not once per call.
        self._buckets: Dict[Tuple[str, str], KernelRecord] = {}

    # ------------------------------------------------------------------ #
    # recording                                                          #
    # ------------------------------------------------------------------ #
    def record(
        self,
        label: str,
        precision: str,
        cost: CostEstimate,
        wall_seconds: float = 0.0,
    ) -> None:
        """Add one kernel call to the (label, precision) bucket."""
        rec = self._buckets.get((label, precision))
        if rec is None:
            rec = self._bucket(canonical_label(label), precision)
            self._buckets[(label, precision)] = rec
        rec.calls += 1
        rec.model_seconds += cost.seconds
        rec.wall_seconds += wall_seconds
        rec.bytes += cost.bytes
        rec.flops += cost.flops

    @contextmanager
    def wall_clock(self) -> Iterator[List[float]]:
        """Context manager measuring wall time; yields a 1-element list."""
        out = [0.0]
        start = time.perf_counter()
        try:
            yield out
        finally:
            out[0] = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # queries                                                            #
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[KernelRecord]:
        return list(self._records.values())

    def labels(self) -> List[str]:
        return sorted({label for (label, _p) in self._records})

    def total_model_seconds(self) -> float:
        return sum(r.model_seconds for r in self._records.values())

    def total_wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self._records.values())

    def total_bytes(self) -> float:
        return sum(r.bytes for r in self._records.values())

    def total_calls(self) -> int:
        return sum(r.calls for r in self._records.values())

    def model_seconds_by_label(self) -> Dict[str, float]:
        """Modelled seconds aggregated over precisions, keyed by label."""
        out: Dict[str, float] = {}
        for (label, _prec), rec in self._records.items():
            out[label] = out.get(label, 0.0) + rec.model_seconds
        return out

    def wall_seconds_by_label(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (label, _prec), rec in self._records.items():
            out[label] = out.get(label, 0.0) + rec.wall_seconds
        return out

    def calls_by_label(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (label, _prec), rec in self._records.items():
            out[label] = out.get(label, 0) + rec.calls
        return out

    def model_seconds_for(self, label: str, precision: Optional[str] = None) -> float:
        label = canonical_label(label)
        total = 0.0
        for (lab, prec), rec in self._records.items():
            if lab == label and (precision is None or prec == precision):
                total += rec.model_seconds
        return total

    def orthogonalization_seconds(self) -> float:
        """Time in the kernels the paper groups as orthogonalization."""
        return sum(self.model_seconds_for(lab) for lab in ORTHO_LABELS)

    def merge_from(self, other: "KernelTimer") -> None:
        """Fold another timer's records into this one."""
        for (label, prec), rec in other._records.items():
            mine = self._bucket(label, prec)
            mine.calls += rec.calls
            mine.model_seconds += rec.model_seconds
            mine.wall_seconds += rec.wall_seconds
            mine.bytes += rec.bytes
            mine.flops += rec.flops

    def _bucket(self, label: str, precision: str) -> KernelRecord:
        """The record of a canonical ``(label, precision)``, created empty."""
        rec = self._records.get((label, precision))
        if rec is None:
            rec = self._records[(label, precision)] = KernelRecord(label, precision)
        return rec

    def reset(self) -> None:
        self._records.clear()
        self._buckets.clear()

    def summary(self) -> str:
        """Human-readable per-label summary: modelled and host wall seconds."""
        lines = [
            f"KernelTimer({self.name!r}): total {self.total_model_seconds():.6f} "
            f"modelled s, {self.total_wall_seconds():.6f} host s"
        ]
        by_label = self.model_seconds_by_label()
        wall = self.wall_seconds_by_label()
        calls = self.calls_by_label()
        # Stable order: descending modelled time, label name breaking ties
        # (equal-cost labels otherwise land in dict-insertion order, which
        # varies with the kernel call sequence).
        for label in sorted(by_label, key=lambda lab: (-by_label[lab], lab)):
            lines.append(
                f"  {label:<18s} {by_label[label]:12.6f} model s "
                f"{wall[label]:12.6f} host s  ({calls[label]} calls)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelTimer {self.name!r} labels={self.labels()}>"


# ---------------------------------------------------------------------- #
# Active-timer stack.  Kernels record into *all* timers on the stack so   #
# that a solver-local timer and an experiment-wide timer both see the     #
# same calls.                                                             #
#                                                                         #
# The stack is *thread-local*: a timer pushed on one thread observes only #
# that thread's kernel calls.  This lets the serve-layer dispatcher meter #
# its batched solves without leaking records into experiment timers       #
# running concurrently on client threads (and vice versa).                #
# Single-threaded behaviour is unchanged.  The kernels read `_TLS.stack`  #
# directly: an empty stack sends them down the unmetered fast path.       #
# ---------------------------------------------------------------------- #
class _Stack(threading.local):
    def __init__(self) -> None:  # runs once per thread, on first access
        self.stack: List[KernelTimer] = []


_TLS = _Stack()


def active_timer() -> Optional[KernelTimer]:
    """The innermost active timer of this thread, or ``None``."""
    stack = _TLS.stack
    return stack[-1] if stack else None


def active_timers() -> List[KernelTimer]:
    """All timers currently on this thread's stack (outermost first)."""
    return list(_TLS.stack)


def push_timer(timer: KernelTimer) -> KernelTimer:
    _TLS.stack.append(timer)
    return timer


def pop_timer() -> KernelTimer:
    stack = _TLS.stack
    if not stack:
        raise RuntimeError("timer stack is empty")
    return stack.pop()


@contextmanager
def use_timer(timer: Optional[KernelTimer] = None, name: str = "timer") -> Iterator[KernelTimer]:
    """Context manager installing ``timer`` as the active timer.

    A fresh timer is created when none is supplied; either way, it is yielded
    so that callers can inspect it afterwards.
    """
    timer = timer or KernelTimer(name)
    push_timer(timer)
    try:
        yield timer
    finally:
        popped = pop_timer()
        if popped is not timer:  # pragma: no cover - defensive
            raise RuntimeError("timer stack corrupted")
