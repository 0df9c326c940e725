"""Solver convergence probes.

Every solver driver accepts an optional ``probe=`` callable and feeds it
:class:`ProbeEvent` records at its natural observation points — restart
boundaries for GMRES variants, refinement steps for the IR variants,
explicit-residual recomputes for CG — plus one terminal event carrying
the final :class:`~repro.solvers.status.SolverStatus`.  The hook rides
the cadence the solvers already have for ``SolveControl`` polling and
explicit-residual checks, so enabling it adds no extra kernel work.

The serve layer turns probes into span events (:func:`span_probe`), but
the hook is public: pass any callable to ``gmres(..., probe=...)`` to
watch convergence live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = ["ProbeEvent", "PROBE_KINDS", "span_probe"]

#: Event kinds, in the order a solve emits them.
#: ``restart``    — GMRES/Block-GMRES restart boundary (explicit residual);
#: ``refinement`` — GMRES-IR/Block-GMRES-IR outer refinement boundary;
#: ``residual``   — CG explicit-residual recompute;
#: ``terminal``   — exactly one per solve, carrying the final status.
PROBE_KINDS = ("restart", "refinement", "residual", "terminal")


@dataclass(frozen=True)
class ProbeEvent:
    """One observation from inside a running solver.

    ``residual`` is the relative residual at the boundary (for block
    solvers: the worst — maximum, NaN if any is NaN — relative residual
    over the columns that were active entering the boundary).
    ``active``/``deflated`` count how many columns remain active after the
    boundary and how many ended *at* it by their own outcome (converged,
    breakdown, their own control, loss of accuracy, stagnation).  Columns
    stopped by the whole-solve control or the budget count as active.  So
    a single-vector GMRES-family solve reports ``active=1, deflated=0`` at
    every boundary except the one where it converges or breaks down, which
    reports ``active=0, deflated=1``.
    ``status`` is ``None`` except on ``terminal`` events, where it is the
    final :class:`~repro.solvers.status.SolverStatus` (for block solvers
    the terminal status arrives in ``extra["statuses"]`` per column
    instead, since columns can end for different reasons).
    """

    solver: str
    kind: str
    iteration: int
    restarts: int
    residual: float
    active: int = 1
    deflated: int = 0
    status: Optional[object] = None
    extra: Dict[str, object] = field(default_factory=dict)


def span_probe(span) -> Callable[[ProbeEvent], None]:
    """Adapt a :class:`~repro.obs.trace.Span` into a ``probe=`` callable.

    Each probe event becomes a point event on the span, named
    ``"<solver>:<kind>"`` — visible as instant markers on the solve
    track in the exported Chrome trace.
    """

    def _probe(event: ProbeEvent) -> None:
        attrs: Dict[str, object] = {
            "iteration": event.iteration,
            "restarts": event.restarts,
            "residual": event.residual,
        }
        if event.active != 1 or event.deflated:
            attrs["active"] = event.active
            attrs["deflated"] = event.deflated
        if event.status is not None:
            attrs["status"] = getattr(event.status, "name", str(event.status))
        if event.extra:
            attrs.update(event.extra)
        span.event(f"{event.solver}:{event.kind}", **attrs)

    return _probe
