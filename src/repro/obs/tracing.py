"""Phase timers (spans) and hop-level packet traces.

Two complementary views of where work goes:

* **Spans** time named phases (``build_scheme.preferred_trees``,
  ``evaluate.route_pairs``, ...).  :func:`span` is a context manager that
  records a :class:`SpanRecord` with its dotted path, so nesting is
  preserved; each completed span also feeds a ``span.<path>`` histogram in
  the metrics registry.  When telemetry is disabled the context manager
  yields immediately and records nothing.

* **Packet traces** capture the hop-by-hop forwarding simulation of
  :meth:`repro.routing.model.RoutingScheme.route`: one :class:`HopEvent`
  per local routing-function evaluation, carrying the node, the decision
  (forward port or deliver), the header as seen at that node, and the
  header's encoded bit size when the scheme accounts it.  Capture is
  explicitly scoped with :func:`capture_traces` so ordinary runs never pay
  for event buffering::

      with obs.capture_traces(limit=8) as capture:
          scheme.route(s, t)
      for trace in capture.traces:
          ...

The module is deliberately not thread-aware beyond the metric registry's
lock: the reproduction's simulations are single-threaded, and keeping the
fast path to one module-attribute read matters more here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import metrics as _metrics

# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanRecord:
    """One completed timed phase."""

    name: str
    path: str                  # dotted ancestry, e.g. "build_scheme.landmarks"
    parent: Optional[str]      # parent path, None for a root span
    duration_s: float
    tags: Tuple[Tuple[str, str], ...] = ()


_span_stack: List[str] = []
_spans: List[SpanRecord] = []


@contextmanager
def span(name: str, **tags: str):
    """Time a phase; a no-op yielding ``None`` while telemetry is disabled."""
    if not _metrics.enabled():
        yield None
        return
    parent = _span_stack[-1] if _span_stack else None
    path = f"{parent}.{name}" if parent else name
    _span_stack.append(path)
    _events.emit("phase_entered", phase=path)
    start = time.perf_counter()
    try:
        yield path
    finally:
        duration = time.perf_counter() - start
        _span_stack.pop()
        record = SpanRecord(
            name=name, path=path, parent=parent, duration_s=duration,
            tags=tuple(sorted(tags.items())),
        )
        _spans.append(record)
        _metrics.metrics().histogram("span.seconds", span=path).observe(duration)
        _events.emit("phase_exited", phase=path, duration_s=duration)


def spans() -> List[SpanRecord]:
    """All spans recorded since the last :func:`clear_spans` (outermost last)."""
    return list(_spans)


def clear_spans() -> None:
    _spans.clear()


def extend_spans(records: List[SpanRecord]) -> None:
    """Append already-completed span records (e.g. shipped from a worker).

    The parallel evaluation engine uses this to fold each shard worker's
    span log into the parent process's log, so a profile over a parallel
    run still sees every phase.
    """
    _spans.extend(records)


# ---------------------------------------------------------------------------
# packet traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HopEvent:
    """One local routing-function evaluation during a traced route."""

    index: int                  # 0-based hop index along the route
    node: object                # where the packet currently sits
    action: str                 # "forward" or "deliver"
    port: Optional[int]         # local out-port (None on deliver)
    next_node: object           # far end of the port (None on deliver)
    header: object              # header as seen at this node
    header_bits: Optional[int]  # encoded header size, when accounted


@dataclass
class PacketTrace:
    """The full event log of one hop-by-hop forwarding simulation."""

    scheme: str
    source: object
    target: object
    events: List[HopEvent] = field(default_factory=list)
    delivered: Optional[bool] = None
    reason: str = ""

    @property
    def path(self) -> Tuple:
        """The node sequence the packet visited (matches ``RouteResult.path``)."""
        return tuple(event.node for event in self.events)

    @property
    def hops(self) -> int:
        """Edges traversed: one per *forward* event.

        ``len(events) - 1`` would be wrong for undelivered traces — there
        the last event is a forward (the packet moved and then the hop
        limit hit or the next decision failed), not a deliver, so the
        count would miss the final traversed edge.  Counting forwards
        matches ``RouteResult.hops == len(path) - 1`` in every state:
        delivered, failed, unfinished, and the zero/one-event self-loop.
        """
        return sum(1 for event in self.events if event.action == "forward")

    def add(self, node, action: str, port: Optional[int], next_node,
            header, header_bits: Optional[int]) -> None:
        self.events.append(HopEvent(
            index=len(self.events), node=node, action=action, port=port,
            next_node=next_node, header=header, header_bits=header_bits,
        ))

    def finish(self, delivered: bool, reason: str = "") -> None:
        self.delivered = delivered
        self.reason = reason


class TraceCapture:
    """Collects :class:`PacketTrace` objects up to an optional limit."""

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.traces: List[PacketTrace] = []
        self.dropped = 0

    def begin(self, scheme_name: str, source, target) -> Optional[PacketTrace]:
        """A fresh trace to record into, or None once the limit is reached."""
        if self.limit is not None and len(self.traces) >= self.limit:
            self.dropped += 1
            return None
        trace = PacketTrace(scheme=scheme_name, source=source, target=target)
        self.traces.append(trace)
        return trace

    def merge(self, other: "TraceCapture") -> None:
        """Fold another capture's traces in, respecting this capture's limit.

        Traces beyond the limit count as dropped, as do any the other
        capture already dropped — merging shard captures in shard order is
        therefore equivalent to one serial capture over the same pairs.
        """
        for trace in other.traces:
            if self.limit is not None and len(self.traces) >= self.limit:
                self.dropped += 1
            else:
                self.traces.append(trace)
        self.dropped += other.dropped


_capture: Optional[TraceCapture] = None


def active_capture() -> Optional[TraceCapture]:
    """The capture the route driver should record into (None = don't trace)."""
    return _capture


@contextmanager
def capture_traces(limit: Optional[int] = None):
    """Scope within which every ``RoutingScheme.route`` call is traced."""
    global _capture
    previous = _capture
    _capture = TraceCapture(limit=limit)
    try:
        yield _capture
    finally:
        _capture = previous
