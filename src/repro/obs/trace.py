"""Span-based request tracing for the serve stack.

A :class:`Tracer` hands out :class:`Span` objects — named intervals with
microsecond timestamps, a parent link, free-form attributes and point
events — and keeps the finished ones in a bounded in-memory buffer.  The
design goals, in order:

1. **Cheap when off.**  Tracing is opt-in (a tracer passed as ``obs=``
   to a session or farm, or :func:`enable_tracing` for the process).
   When it is off, the serve hot paths carry a single
   ``tracer is None`` check and allocate nothing.
2. **Thread-safe.**  Spans are started and finished from client threads,
   session and farm worker threads concurrently; all mutation of the
   shared buffer happens under one lock, and ``Span.finish`` is
   idempotent so racing closers are harmless.
3. **Viewable.**  :func:`export_chrome_trace` emits the Chrome
   trace-event JSON format, so a chaos-run timeline opens directly in
   ``chrome://tracing`` or https://ui.perfetto.dev.

:class:`RequestTrace` is the small state machine the serve layer drives:
one root ``request`` span per submitted right-hand side with
non-overlapping stage children (``submit`` → ``queued`` → ``dispatch``),
closed exactly once with a terminal outcome however the request ends
(served, deadline, cancel, abandon, error).

A tracer may carry a :class:`Sampler` for always-on production tracing:
head sampling decides *up front* which requests get a full span tree
(deterministic stride, so the configured rate is honored exactly), and
unsampled requests record only four stage timestamps — no spans, no
probe events — until their terminal outcome is known.  Tail rules then
retain the interesting ones anyway (failures, blown deadlines,
detector-flagged requests, the slowest decile), synthesizing their span
tree after the fact from the recorded timestamps.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "Sampler",
    "RequestTrace",
    "enable_tracing",
    "disable_tracing",
    "default_tracer",
    "export_chrome_trace",
]

#: Default bound on the finished-span buffer (oldest spans are dropped).
DEFAULT_TRACE_CAPACITY = 65536


class Span:
    """One named interval in a trace.

    Timestamps are microseconds relative to the owning tracer's origin
    (``time.perf_counter`` based — monotonic, not wall-clock).  A span is
    mutated only by the thread(s) holding a reference to it; ``finish``
    is idempotent and may race safely.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "thread_id",
        "thread_name",
        "start_us",
        "end_us",
        "attrs",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, object],
    ) -> None:
        thread = threading.current_thread()
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self.start_us = tracer._now_us()
        self.end_us: Optional[float] = None
        self.attrs = attrs
        self.events: List[Tuple[str, float, Dict[str, object]]] = []

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        end = self.end_us if self.end_us is not None else self._tracer._now_us()
        return max(0.0, end - self.start_us)

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span (last write wins)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event inside the span.

        Events are appended without locking: each span's events come from
        the single thread currently driving that span (the solver probe
        hook), so the list is effectively thread-confined until finish.
        """
        self.events.append((name, self._tracer._now_us(), attrs))

    def finish(self, **attrs: object) -> None:
        """Close the span; subsequent calls are no-ops."""
        if attrs:
            self.attrs.update(attrs)
        self._tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = repr(exc)
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, {state})"
        )


class Sampler:
    """Adaptive trace-sampling policy: head stride + tail keep rules.

    *Head* sampling picks the fraction ``head_rate`` of requests that get
    a full, live span tree.  The decision uses a deterministic stride
    (keep when ``floor(n * rate)`` increments), so the realized rate
    matches the configured one exactly — no coin-flip variance.

    *Tail* rules run when a request's terminal outcome is known and keep
    its trace regardless of the head decision when the request

    * ended with anything other than ``converged`` / ``cancelled``
      (failures, breakdowns, blown deadlines, rejections, abandons),
    * was flagged by an anomaly detector
      (:meth:`RequestTrace.mark_keep`), or
    * landed in the slowest ``slow_fraction`` of the recent duration
      window (the "slowest decile" with the defaults).

    Thread-safe; one instance is shared by all requests of a tracer.
    """

    #: Terminal outcomes that say nothing interesting about the request.
    DROP_OUTCOMES = ("converged", "cancelled")

    def __init__(
        self,
        *,
        head_rate: float = 0.1,
        tail_keep: bool = True,
        slow_fraction: float = 0.1,
        slow_window: int = 512,
        min_slow_samples: int = 32,
    ) -> None:
        if not 0.0 <= head_rate <= 1.0:
            raise ValueError(f"head_rate must be in [0, 1], got {head_rate}")
        if not 0.0 < slow_fraction < 1.0:
            raise ValueError(f"slow_fraction must be in (0, 1), got {slow_fraction}")
        self.head_rate = float(head_rate)
        self.tail_enabled = bool(tail_keep)
        self.slow_fraction = float(slow_fraction)
        self._min_slow_samples = max(2, int(min_slow_samples))
        self._lock = threading.Lock()
        self._count = 0
        self._head_kept = 0
        self._durations: Deque[float] = deque(maxlen=max(16, int(slow_window)))
        self._threshold_us = float("inf")
        self._since_refresh = 0

    # -- head ----------------------------------------------------------- #
    def head_sample(self) -> bool:
        """Decide (at request creation) whether to trace this request live."""
        with self._lock:
            before = math.floor(self._count * self.head_rate)
            self._count += 1
            keep = math.floor(self._count * self.head_rate) > before
            if keep:
                self._head_kept += 1
            return keep

    # -- tail ----------------------------------------------------------- #
    def observe(self, duration_us: float) -> None:
        """Feed one finished request's duration into the slow-decile window."""
        with self._lock:
            self._durations.append(float(duration_us))
            self._since_refresh += 1
            ready = len(self._durations) >= self._min_slow_samples
            if ready and (
                self._since_refresh >= 32 or self._threshold_us == float("inf")
            ):
                ordered = sorted(self._durations)
                index = min(
                    len(ordered) - 1,
                    max(0, int(len(ordered) * (1.0 - self.slow_fraction))),
                )
                self._threshold_us = ordered[index]
                self._since_refresh = 0

    def is_slow(self, duration_us: float) -> bool:
        """Whether ``duration_us`` lands in the current slowest fraction."""
        with self._lock:
            return duration_us >= self._threshold_us

    def tail_keep(self, outcome: str, duration_us: float, flagged: bool) -> bool:
        """The tail decision for a head-unsampled request."""
        if not self.tail_enabled:
            return False
        if flagged or outcome not in self.DROP_OUTCOMES:
            return True
        return self.is_slow(duration_us)

    # -- stats ---------------------------------------------------------- #
    @property
    def requests_seen(self) -> int:
        with self._lock:
            return self._count

    @property
    def head_sampled(self) -> int:
        with self._lock:
            return self._head_kept


class Tracer:
    """Thread-safe span factory with a bounded finished-span buffer."""

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        sampler: Optional[Sampler] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._next_id = 1
        self._capacity = int(capacity)
        self._spans: List[Span] = []
        self._open = 0
        self._dropped = 0
        #: Optional :class:`Sampler`; ``None`` keeps every request trace.
        self.sampler = sampler
        self._sampled_out = 0

    # -- clock --------------------------------------------------------- #
    def _now_us(self) -> float:
        return (time.perf_counter() - self._origin) * 1e6

    # -- span lifecycle ------------------------------------------------ #
    def start_span(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """Open a span.  ``parent=None`` starts a new trace (root span)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._open += 1
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = span_id, None
        return Span(self, name, trace_id, span_id, parent_id, attrs)

    def _finish(self, span: Span, *, end_us: Optional[float] = None) -> None:
        end = self._now_us() if end_us is None else float(end_us)
        with self._lock:
            if span.end_us is not None:
                return  # idempotent: first closer wins
            span.end_us = end
            self._open -= 1
            if len(self._spans) >= self._capacity:
                overflow = len(self._spans) - self._capacity + 1
                del self._spans[:overflow]
                self._dropped += overflow
            self._spans.append(span)

    def _emit_finished(
        self,
        name: str,
        *,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        start_us: float,
        end_us: float,
        attrs: Dict[str, object],
    ) -> Span:
        """Append an already-timed span (tail-kept trace synthesis)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._open += 1
        span = Span(
            self,
            name,
            span_id if trace_id is None else trace_id,
            span_id,
            parent_id,
            dict(attrs),
        )
        span.start_us = float(start_us)
        self._finish(span, end_us=max(float(start_us), float(end_us)))
        return span

    def _note_sampled_out(self) -> None:
        with self._lock:
            self._sampled_out += 1

    # -- inspection ---------------------------------------------------- #
    def finished_spans(self) -> List[Span]:
        """Snapshot of the finished-span buffer (oldest first)."""
        with self._lock:
            return list(self._spans)

    @property
    def open_spans(self) -> int:
        """Number of spans started but not yet finished (leak detector)."""
        with self._lock:
            return self._open

    @property
    def dropped_spans(self) -> int:
        """Finished spans evicted because the buffer was full."""
        with self._lock:
            return self._dropped

    @property
    def sampled_out_traces(self) -> int:
        """Request traces discarded by the sampler (head miss, no tail keep).

        With a sampler installed the ledger invariant becomes: kept
        ``request`` roots + ``sampled_out_traces`` == submitted requests.
        """
        with self._lock:
            return self._sampled_out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def spans_by_trace(self) -> Dict[int, List[Span]]:
        """Finished spans grouped by ``trace_id`` (insertion order kept)."""
        groups: Dict[int, List[Span]] = {}
        for span in self.finished_spans():
            groups.setdefault(span.trace_id, []).append(span)
        return groups


class RequestTrace:
    """Per-request span state machine driven by the serve layer.

    One root ``request`` span plus a chain of non-overlapping stage
    children: ``submit`` (created open), then ``queued`` after admission,
    then ``dispatch`` once a worker pops the request into a batch.
    :meth:`finish` closes whatever stage is open plus the root, exactly
    once, stamping the terminal ``outcome`` — so every request yields one
    complete, properly-nested span tree no matter which path ends it.

    When the tracer carries a :class:`Sampler` and the head decision
    misses, the trace runs *deferred*: no spans are created, only the
    stage transition timestamps are recorded.  At :meth:`finish` the tail
    rules decide; a kept trace's span tree is synthesized from the
    timestamps (root attr ``sampled="tail"``), a dropped one costs four
    clock reads and is counted in ``Tracer.sampled_out_traces``.
    """

    __slots__ = ("tracer", "root", "_stage", "_done", "sampled", "_attrs", "_marks", "_flagged")

    def __init__(self, tracer: Tracer, **attrs: object) -> None:
        self.tracer = tracer
        self._done = False
        self._flagged = False
        sampler = tracer.sampler
        self.sampled = sampler is None or sampler.head_sample()
        if self.sampled:
            if sampler is not None:
                attrs = dict(attrs, sampled="head")
            self.root: Optional[Span] = tracer.start_span("request", **attrs)
            self._stage: Optional[Span] = tracer.start_span("submit", parent=self.root)
            self._attrs: Optional[Dict[str, object]] = None
            self._marks: Optional[List[Tuple[str, float]]] = None
        else:
            self.root = None
            self._stage = None
            self._attrs = dict(attrs)
            self._marks = [("submit", tracer._now_us())]

    def _advance(self, next_stage: Optional[str], **attrs: object) -> None:
        stage = self._stage
        if stage is not None:
            stage.finish(**attrs)
        self._stage = (
            self.tracer.start_span(next_stage, parent=self.root)
            if next_stage is not None
            else None
        )

    def submitted(self) -> None:
        """Admission done: close ``submit``, open ``queued``."""
        if self._done:
            return
        if self.sampled:
            self._advance("queued")
        else:
            self._marks.append(("queued", self.tracer._now_us()))

    def dequeued(self, **attrs: object) -> None:
        """Popped into a batch: close ``queued``, open ``dispatch``.

        ``attrs`` describe the dispatch (batch span id, block width) and
        are attached to the new ``dispatch`` span (for a deferred trace,
        to the synthesized root).
        """
        if self._done:
            return
        if self.sampled:
            self._advance("dispatch")
            if attrs and self._stage is not None:
                self._stage.set(**attrs)
        else:
            self._marks.append(("dispatch", self.tracer._now_us()))
            for key, value in attrs.items():
                if value is not None:
                    self._attrs[key] = value

    def event(self, name: str, **attrs: object) -> None:
        if self.root is not None:
            self.root.event(name, **attrs)

    def mark_keep(self, reason: str = "alert") -> None:
        """Force tail retention of this trace (an anomaly detector fired).

        Must be called before :meth:`finish` to affect a deferred trace's
        retention; on a head-sampled trace it just stamps the reason.
        """
        self._flagged = True
        if self.sampled:
            self.root.set(keep_reason=reason)
        else:
            self._attrs.setdefault("keep_reason", reason)

    def finish(self, outcome: str, **attrs: object) -> None:
        """Terminal transition; idempotent (first outcome wins)."""
        if self._done:
            return
        self._done = True
        tracer = self.tracer
        sampler = tracer.sampler
        if self.sampled:
            self._advance(None)
            self.root.finish(outcome=outcome, **attrs)
            if sampler is not None:
                sampler.observe(self.root.duration_us)
            return
        end = tracer._now_us()
        start = self._marks[0][1]
        duration = max(0.0, end - start)
        sampler.observe(duration)
        if not sampler.tail_keep(outcome, duration, self._flagged):
            tracer._note_sampled_out()
            return
        # Tail-kept: synthesize the span tree from the stage timestamps.
        root_attrs = dict(self._attrs)
        root_attrs.update(attrs)
        root_attrs["outcome"] = outcome
        root_attrs["sampled"] = "tail"
        root = tracer._emit_finished(
            "request", start_us=start, end_us=end, attrs=root_attrs
        )
        for i, (name, stage_start) in enumerate(self._marks):
            stage_end = self._marks[i + 1][1] if i + 1 < len(self._marks) else end
            tracer._emit_finished(
                name,
                trace_id=root.trace_id,
                parent_id=root.span_id,
                start_us=stage_start,
                end_us=stage_end,
                attrs={},
            )
        self.root = root


# ---------------------------------------------------------------------- #
# process-default tracer                                                 #
# ---------------------------------------------------------------------- #
_DEFAULT_TRACER: Optional[Tracer] = None


def enable_tracing(
    *, capacity: int = DEFAULT_TRACE_CAPACITY, sampler: Optional[Sampler] = None
) -> Tracer:
    """Install (and return) a fresh process-default tracer.

    Sessions and farms built without ``obs=`` trace with it until
    :func:`disable_tracing`.  ``sampler`` turns on adaptive sampling,
    e.g. ``enable_tracing(sampler=Sampler(head_rate=0.1))``; the default
    ``None`` traces every request.
    """
    global _DEFAULT_TRACER
    tracer = _DEFAULT_TRACER = Tracer(capacity=capacity, sampler=sampler)
    return tracer


def disable_tracing() -> None:
    """Drop the process-default tracer."""
    global _DEFAULT_TRACER
    _DEFAULT_TRACER = None


def default_tracer() -> Optional[Tracer]:
    """The tracer :func:`enable_tracing` installed, or ``None``."""
    return _DEFAULT_TRACER


# ---------------------------------------------------------------------- #
# Chrome trace-event export                                              #
# ---------------------------------------------------------------------- #
def export_chrome_trace(
    path=None,
    *,
    tracer: Optional[Tracer] = None,
) -> Dict[str, object]:
    """Render finished spans as Chrome trace-event JSON.

    Returns the payload dict; when ``path`` is given the JSON is also
    written there.  Open the file in ``chrome://tracing`` or
    https://ui.perfetto.dev.  Spans become complete (``"ph": "X"``)
    events on their originating thread's track; span events become
    thread-scoped instant (``"ph": "i"``) events.
    """
    tracer = tracer if tracer is not None else default_tracer()
    if tracer is None:
        raise RuntimeError(
            "tracing is not enabled: pass tracer= or call "
            "repro.obs.enable_tracing()"
        )
    events: List[Dict[str, object]] = []
    thread_names: Dict[int, str] = {}
    for span in tracer.finished_spans():
        thread_names.setdefault(span.thread_id, span.thread_name)
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": span.thread_id,
                "ts": round(span.start_us, 3),
                "dur": round(max(0.0, (span.end_us or span.start_us) - span.start_us), 3),
                "args": args,
            }
        )
        for name, ts, attrs in span.events:
            events.append(
                {
                    "name": name,
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": span.thread_id,
                    "ts": round(ts, 3),
                    "args": dict(attrs, span_id=span.span_id),
                }
            )
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
        )
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "dropped_spans": tracer.dropped_spans},
    }
    if path is not None:
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
    return payload
