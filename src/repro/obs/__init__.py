"""Observability layer: metrics, phase timers, run events, packet traces.

The subsystem is dark by default — a module-level no-op registry absorbs
all instrumentation until :func:`enable` is called (or the process starts
with ``REPRO_TELEMETRY=1``), so the simulation and accounting code paths
it watches stay bit-identical and effectively free when unobserved.  That
one switch turns on metrics, phase spans and the run-event stream
together.

Typical use::

    import repro.obs as obs

    obs.enable()
    with obs.capture_traces(limit=4) as capture:
        result = repro.run_experiment(graph, algebra,
                                      options=repro.EvaluationOptions(rng=7))
    obs.export.write_json("telemetry.json", obs.telemetry_snapshot())

See ``docs/OBSERVABILITY.md`` for the event schema and metric names.
"""

from repro.obs import events
from repro.obs import export
from repro.obs import progress
from repro.obs.events import (
    EventLog,
    RunEvent,
    build_manifest,
    clear_events,
    detect_stragglers,
    event_from_dict,
    event_to_dict,
    events as run_events,
    read_run,
    write_run,
)
from repro.obs.export import (
    CodecError,
    OpaqueValue,
    decode_value,
    encode_value,
    hop_event_from_dict,
    hop_event_to_dict,
    report_to_dict,
    span_to_dict,
    telemetry_snapshot,
    to_json,
    trace_from_dict,
    trace_to_dict,
    write_benchmark_summary,
    write_json,
    write_jsonl,
)
from repro.obs.metrics import (
    ENV_VAR,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable,
    enable,
    enabled,
    env_enabled,
    metrics,
    registry,
    reset,
)
from repro.obs.tracing import (
    HopEvent,
    PacketTrace,
    SpanRecord,
    TraceCapture,
    active_capture,
    capture_traces,
    clear_spans,
    extend_spans,
    span,
    spans,
)

__all__ = [
    "EventLog",
    "RunEvent",
    "build_manifest",
    "clear_events",
    "detect_stragglers",
    "event_from_dict",
    "event_to_dict",
    "events",
    "progress",
    "read_run",
    "run_events",
    "write_run",
    "ENV_VAR",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "disable",
    "enable",
    "enabled",
    "env_enabled",
    "metrics",
    "registry",
    "reset",
    "HopEvent",
    "PacketTrace",
    "SpanRecord",
    "TraceCapture",
    "active_capture",
    "capture_traces",
    "clear_spans",
    "extend_spans",
    "span",
    "spans",
    "export",
    "CodecError",
    "OpaqueValue",
    "decode_value",
    "encode_value",
    "hop_event_from_dict",
    "hop_event_to_dict",
    "report_to_dict",
    "span_to_dict",
    "telemetry_snapshot",
    "to_json",
    "trace_from_dict",
    "trace_to_dict",
    "write_benchmark_summary",
    "write_json",
    "write_jsonl",
]


def reset_all() -> None:
    """Drop metrics, spans and run events (enabled flags are left untouched)."""
    reset()
    clear_spans()
    clear_events()
