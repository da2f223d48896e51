"""Unified telemetry: metrics registry, trace spans, run timelines.

One layer, three pillars: the analytical model has no runtime to
observe, but the simulator and the live cluster thread one
:class:`Telemetry` object through their certifier, replicas and load
balancer so both emit the **same metric-name schema**
(:data:`~repro.telemetry.schema.SHARED_SCHEMA`) — certifier queue
depth, per-replica replication lag (versions and seconds), channel
backlog, routing counts, writeset apply latency.  Per-transaction trace
spans (route → execute → certify → propagate → apply) are sampled
deterministically and export as JSONL or Chrome traces; run-level
timeline snapshots feed the ``repro metrics`` ASCII dashboard.

Telemetry is opt-in per run: instrumented components hold a protocol
recorder (:mod:`~repro.telemetry.recorder`) whose default is a null sink,
so call sites are unguarded, a disabled run records nothing, and its
results are byte-identical to a build without this package.
"""

from . import schema
from .causal import (
    CausalEdge,
    CausalTrace,
    CriticalPathReport,
    ReplicationHop,
    causal_chrome_trace,
    causal_traces,
    critical_path,
    edge_schema,
    render_critical_path,
    staleness_summary,
    write_causal_chrome_trace,
)
from .core import (
    Telemetry,
    TelemetryConfig,
    TelemetryResult,
    active_config,
)
from .events import TelemetryEvent, render_events
from .export import (
    chrome_trace,
    load_spans_jsonl,
    prometheus_text,
    span_to_dict,
    validate_span_dict,
    write_chrome_trace,
    write_spans_jsonl,
)
from .perf import (
    CapacitySnapshot,
    ComponentSignal,
    DriftPoint,
    EffectiveCapacity,
    Ewma,
    GrayEvent,
    PerfReport,
    WindowedQuantile,
)
from .recorder import NULL_RECORDER, ProtocolRecorder
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
)
from .spans import Span, Tracer
from .timeline import TimelineSnapshot, render_dashboard, render_timeline

__all__ = [
    "CapacitySnapshot",
    "CausalEdge",
    "CausalTrace",
    "ComponentSignal",
    "Counter",
    "CriticalPathReport",
    "DriftPoint",
    "EffectiveCapacity",
    "Ewma",
    "Gauge",
    "GrayEvent",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "NULL_RECORDER",
    "PerfReport",
    "ProtocolRecorder",
    "ReplicationHop",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryEvent",
    "TelemetryResult",
    "TimelineSnapshot",
    "Tracer",
    "WindowedQuantile",
    "active_config",
    "causal_chrome_trace",
    "causal_traces",
    "chrome_trace",
    "critical_path",
    "edge_schema",
    "load_spans_jsonl",
    "prometheus_text",
    "render_critical_path",
    "render_dashboard",
    "render_events",
    "render_timeline",
    "schema",
    "span_to_dict",
    "staleness_summary",
    "validate_span_dict",
    "write_causal_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
