"""Tracing and profiling for the PEFP simulation.

Three pieces, all opt-in and zero-cost when off:

- :mod:`repro.observability.tracer` — span tracer threaded through the
  query lifecycle (Pre-BFS, cache lookups, PCIe, per-batch kernel work),
  recording wall *and* modelled time, exported as JSONL;
- :mod:`repro.observability.chrome` — ``chrome://tracing`` /  Perfetto
  ``trace_event`` export of a recorded trace, laid out on the modelled
  clock;
- :mod:`repro.observability.prometheus` — text exposition (and a tiny
  HTTP endpoint) for :class:`repro.service.metrics.MetricsRegistry`;
- :mod:`repro.observability.analysis` — latency attribution over a
  finished trace or a batch report: per-query waterfalls, critical-path
  extraction, tail and regression attribution (``repro analyze``);
- :mod:`repro.observability.timeline` — windowed-telemetry export:
  timeline JSONL (full sketch fidelity) and OpenMetrics-with-timestamps,
  plus derived per-window throughput/utilization/in-flight metrics
  (``repro monitor``);
- :mod:`repro.observability.slo` — declarative latency/availability
  SLOs evaluated as multi-window burn rates over a timeline, raising
  alert spans into the tracer and gauges into the registry.

Device-side profiling counters live with the FPGA model in
:mod:`repro.fpga.profile`; the batch service folds them into registry
sample series.  See ``docs/OBSERVABILITY.md`` for the span taxonomy and the
reconciliation invariants the test suite enforces.
"""

from repro.fpga.profile import split_batch_cycles
from repro.observability.analysis import (
    DEVICE_SEGMENTS,
    SERVICE_SEGMENTS,
    BatchAttribution,
    CriticalPath,
    EngineTimeline,
    QueryWaterfall,
    RegressionAttribution,
    SegmentDelta,
    TailAttribution,
    analyze_report,
    analyze_trace,
    attribute_regression,
    diff_segment_seconds,
)
from repro.observability.chrome import (
    chrome_trace,
    query_durations_seconds,
    write_chrome_trace,
)
from repro.observability.prometheus import (
    MetricsHTTPServer,
    render_prometheus,
)
from repro.observability.slo import (
    DEFAULT_POLICIES,
    BurnPolicy,
    SLO,
    SLOAlert,
    SLOEvaluation,
    SLOResult,
    default_slos,
    evaluate_slos,
    load_slo_specs,
    publish_evaluation,
)
from repro.observability.timeline import (
    derive_window_metrics,
    read_timeline_jsonl,
    render_openmetrics,
    write_timeline_jsonl,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    read_jsonl,
)

__all__ = [
    "BatchAttribution",
    "BurnPolicy",
    "CriticalPath",
    "DEFAULT_POLICIES",
    "DEVICE_SEGMENTS",
    "EngineTimeline",
    "MetricsHTTPServer",
    "NULL_TRACER",
    "NullTracer",
    "QueryWaterfall",
    "RegressionAttribution",
    "SERVICE_SEGMENTS",
    "SLO",
    "SLOAlert",
    "SLOEvaluation",
    "SLOResult",
    "SegmentDelta",
    "Span",
    "SpanRecord",
    "TailAttribution",
    "Tracer",
    "analyze_report",
    "analyze_trace",
    "attribute_regression",
    "chrome_trace",
    "default_slos",
    "derive_window_metrics",
    "diff_segment_seconds",
    "evaluate_slos",
    "load_slo_specs",
    "publish_evaluation",
    "query_durations_seconds",
    "read_jsonl",
    "read_timeline_jsonl",
    "render_openmetrics",
    "render_prometheus",
    "split_batch_cycles",
    "write_chrome_trace",
]
