"""Offline trace analyzer: ``python -m repro.obs.report``.

Ingests the Chrome trace-event JSON written by
:func:`repro.obs.export_chrome_trace` (plus, optionally, a Prometheus
text snapshot from ``prometheus_text()``) and renders what an engineer
asks of a trace first:

* the request ledger — how many traces, with which terminal outcomes,
  how many were tail-sampled or detector-flagged;
* the critical-path breakdown — where wall time went, stage by stage
  (queue vs dispatch vs solve vs demux);
* per-tenant latency percentiles;
* the slowest and failed requests, with their span trees' timings;
* top anomalies folded in from the metrics snapshot.

``--check`` validates the span ledger instead of rendering: unique span
ids, resolvable parents, children nested inside their parents, a
terminal outcome on every request root, resolvable instant-event
references.  CI runs it against the committed ``TRACE_obs.json`` so a
malformed or unbalanced trace export fails the build.

Usage::

    python -m repro.obs.report trace.json
    python -m repro.obs.report trace.json --metrics metrics.txt --out report.txt
    python -m repro.obs.report trace.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .slo import nearest_rank

__all__ = ["load_trace", "check_trace", "render_report", "main"]

#: Nesting slack in microseconds: exported timestamps are rounded to
#: 3 decimals, so a child may poke out of its parent by a rounding step.
NEST_EPSILON_US = 0.01

#: Request stages, in pipeline order (children of a ``request`` root).
REQUEST_STAGES = ("submit", "queued", "dispatch")

#: Batch stages, in pipeline order (children of a ``batch`` span).
BATCH_STAGES = ("batch_assembly", "solve", "retry", "demux")


@dataclass
class TraceSpan:
    """One complete (``ph == "X"``) event, flattened for analysis."""

    name: str
    span_id: int
    trace_id: int
    parent_id: Optional[int]
    start_us: float
    dur_us: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us


def load_trace(path: str) -> Tuple[List[TraceSpan], List[dict], List[str]]:
    """Parse a Chrome trace file into spans + instants + problems.

    Structural problems (missing ids, non-X/i/M phases, bad JSON types)
    are collected, not raised — ``--check`` wants all of them at once.
    """
    with open(path) as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    problems: List[str] = []
    spans: List[TraceSpan] = []
    instants: List[dict] = []
    if not isinstance(events, list) or not events:
        return spans, instants, ["traceEvents is missing or empty"]
    for i, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase == "i":
            instants.append(event)
            continue
        if phase != "X":
            problems.append(f"event {i}: unexpected phase {phase!r}")
            continue
        args = event.get("args", {})
        span_id = args.get("span_id")
        trace_id = args.get("trace_id")
        if not isinstance(span_id, int) or not isinstance(trace_id, int):
            problems.append(
                f"event {i} ({event.get('name')!r}): missing span_id/trace_id"
            )
            continue
        spans.append(
            TraceSpan(
                name=str(event.get("name", "")),
                span_id=span_id,
                trace_id=trace_id,
                parent_id=args.get("parent_id"),
                start_us=float(event.get("ts", 0.0)),
                dur_us=float(event.get("dur", 0.0)),
                args=dict(args),
            )
        )
    return spans, instants, problems


def check_trace(spans: List[TraceSpan], instants: List[dict]) -> List[str]:
    """Validate the span ledger; returns a list of problems (empty = OK)."""
    problems: List[str] = []
    by_id: Dict[int, TraceSpan] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span_id {span.span_id} ({span.name!r})")
        by_id[span.span_id] = span
    for span in spans:
        if span.dur_us < 0:
            problems.append(f"span {span.span_id} ({span.name!r}): negative duration")
        if span.parent_id is None:
            if span.trace_id != span.span_id:
                problems.append(
                    f"root span {span.span_id} ({span.name!r}): "
                    f"trace_id {span.trace_id} != span_id"
                )
            if span.name == "request" and "outcome" not in span.args:
                problems.append(
                    f"request root {span.span_id}: no terminal outcome"
                )
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name!r}): "
                f"unresolved parent_id {span.parent_id}"
            )
            continue
        if parent.trace_id != span.trace_id:
            problems.append(
                f"span {span.span_id} ({span.name!r}): trace_id "
                f"{span.trace_id} != parent's {parent.trace_id}"
            )
        if (
            span.start_us < parent.start_us - NEST_EPSILON_US
            or span.end_us > parent.end_us + NEST_EPSILON_US
        ):
            problems.append(
                f"span {span.span_id} ({span.name!r}): interval "
                f"[{span.start_us}, {span.end_us}] escapes parent "
                f"{parent.span_id} [{parent.start_us}, {parent.end_us}]"
            )
    for i, instant in enumerate(instants):
        ref = instant.get("args", {}).get("span_id")
        if ref is not None and ref not in by_id:
            problems.append(
                f"instant event {i} ({instant.get('name')!r}): "
                f"unresolved span_id {ref}"
            )
    return problems


def _ms(us: float) -> str:
    return f"{us / 1e3:.3f} ms"


def _stage_table(rows: List[Tuple[str, List[float]]]) -> List[str]:
    lines = [
        f"  {'stage':<16} {'count':>6} {'mean':>12} {'p95':>12} {'max':>12}"
    ]
    for stage, durations in rows:
        if not durations:
            continue
        lines.append(
            f"  {stage:<16} {len(durations):>6} "
            f"{_ms(sum(durations) / len(durations)):>12} "
            f"{_ms(nearest_rank(sorted(durations), 0.95)):>12} "
            f"{_ms(max(durations)):>12}"
        )
    return lines


def _metrics_highlights(path: str) -> List[str]:
    """Pull the SLO/alert/health lines out of a Prometheus text snapshot."""
    interesting = (
        "repro_alerts_total",
        "repro_alerts_active",
        "repro_slo_breached",
        "repro_slo_burn_rate",
        "repro_slo_error_budget_remaining_ratio",
        "repro_health_state",
    )
    lines: List[str] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith(interesting):
                lines.append(f"  {line}")
    return lines or ["  (no SLO/alert series in the snapshot)"]


def render_report(
    spans: List[TraceSpan],
    instants: List[dict],
    *,
    metrics_path: Optional[str] = None,
) -> str:
    """Render the human-readable analysis."""
    roots = [s for s in spans if s.parent_id is None and s.name == "request"]
    children: Dict[int, List[TraceSpan]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    lines: List[str] = []
    lines.append("repro.obs.report — offline trace analysis")
    lines.append("=" * 60)
    lines.append(
        f"spans: {len(spans)}   instant events: {len(instants)}   "
        f"request traces: {len(roots)}"
    )

    # -- request ledger ------------------------------------------------- #
    outcomes: Dict[str, int] = {}
    sampled: Dict[str, int] = {}
    flagged = 0
    for root in roots:
        outcome = str(root.args.get("outcome", "?"))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        mode = str(root.args.get("sampled", "full"))
        sampled[mode] = sampled.get(mode, 0) + 1
        if "keep_reason" in root.args:
            flagged += 1
    lines.append("")
    lines.append("Request outcomes")
    for outcome, count in sorted(outcomes.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {outcome:<16} {count:>6}")
    if sampled and sampled != {"full": len(roots)}:
        modes = ", ".join(f"{k}={v}" for k, v in sorted(sampled.items()))
        lines.append(f"  sampling: {modes}; detector-flagged: {flagged}")

    # -- critical path -------------------------------------------------- #
    lines.append("")
    lines.append("Critical path (request stages)")
    stage_rows = [
        (stage, [
            c.dur_us
            for root in roots
            for c in children.get(root.span_id, [])
            if c.name == stage
        ])
        for stage in REQUEST_STAGES
    ]
    lines.extend(_stage_table(stage_rows))
    batches = [s for s in spans if s.parent_id is None and s.name == "batch"]
    if batches:
        lines.append("")
        lines.append(f"Dispatch breakdown ({len(batches)} batches)")
        batch_rows = [
            (stage, [
                c.dur_us
                for batch in batches
                for c in children.get(batch.span_id, [])
                if c.name == stage
            ])
            for stage in BATCH_STAGES
        ]
        lines.extend(_stage_table(batch_rows))
        widths = [int(b.args.get("width", 1)) for b in batches]
        lines.append(
            f"  mean batch width: {sum(widths) / len(widths):.2f}   "
            f"max: {max(widths)}"
        )

    # -- per-tenant latency ---------------------------------------------- #
    by_tenant: Dict[str, List[float]] = {}
    for root in roots:
        tenant = str(root.args.get("tenant", root.args.get("session", "-")))
        by_tenant.setdefault(tenant, []).append(root.dur_us)
    if by_tenant:
        lines.append("")
        lines.append("Per-tenant request latency")
        lines.append(
            f"  {'tenant':<24} {'count':>6} {'p50':>12} {'p95':>12} {'max':>12}"
        )
        for tenant, durations in sorted(by_tenant.items()):
            lines.append(
                f"  {tenant:<24} {len(durations):>6} "
                f"{_ms(nearest_rank(sorted(durations), 0.50)):>12} "
                f"{_ms(nearest_rank(sorted(durations), 0.95)):>12} "
                f"{_ms(max(durations)):>12}"
            )

    # -- worst offenders -------------------------------------------------- #
    lines.append("")
    lines.append("Slowest requests")
    for root in sorted(roots, key=lambda s: -s.dur_us)[:5]:
        outcome = root.args.get("outcome", "?")
        tenant = root.args.get("tenant", root.args.get("session", "-"))
        lines.append(
            f"  trace {root.trace_id:<8} {_ms(root.dur_us):>12}  "
            f"outcome={outcome} tenant={tenant}"
        )
    errors = [
        root
        for root in roots
        if str(root.args.get("outcome")) not in ("converged", "cancelled")
    ]
    if errors:
        lines.append("")
        lines.append(f"Non-converged requests ({len(errors)})")
        for root in sorted(errors, key=lambda s: -s.dur_us)[:5]:
            detail = root.args.get("error", root.args.get("keep_reason", ""))
            lines.append(
                f"  trace {root.trace_id:<8} {_ms(root.dur_us):>12}  "
                f"outcome={root.args.get('outcome')} {detail}"
            )

    # -- metrics fold-in --------------------------------------------------- #
    if metrics_path is not None:
        lines.append("")
        lines.append("Metrics snapshot highlights")
        lines.extend(_metrics_highlights(metrics_path))

    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Offline analyzer for repro.obs Chrome trace exports.",
    )
    parser.add_argument("trace", help="Chrome trace JSON (export_chrome_trace output)")
    parser.add_argument(
        "--metrics", help="Prometheus text snapshot to fold into the report"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the span ledger instead of rendering (exit 1 on problems)",
    )
    parser.add_argument("--out", help="also write the rendered report to this file")
    args = parser.parse_args(argv)

    spans, instants, problems = load_trace(args.trace)
    problems.extend(check_trace(spans, instants))
    if args.check:
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            print(f"{args.trace}: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(
            f"{args.trace}: OK ({len(spans)} spans, "
            f"{len(instants)} instant events, span ledger balanced)"
        )
        return 0
    if problems:
        for problem in problems:
            print(f"WARNING: {problem}", file=sys.stderr)
    report = render_report(spans, instants, metrics_path=args.metrics)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
