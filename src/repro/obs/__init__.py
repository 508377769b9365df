"""repro.obs — the observability core shared by every layer.

Two pieces are used together by :class:`~repro.substrate.Substrate`:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` that reads each
  layer's own stats into one snapshot;
* :mod:`repro.obs.events` — an :class:`EventBus` carrying structured
  engine events (flushes, compactions, file lifecycle, cache
  invalidations, trim runs, buffer freezes).

The rest read from them:

* :mod:`repro.obs.trace` — the one JSONL artifact format: an event's
  record shape (:func:`~repro.obs.trace.event_record`), the one writer
  (:func:`write_jsonl`) and the one reader (:func:`read_jsonl`, which
  checks every record, span stages to the bit), plus the
  :class:`TraceRecorder` that logs a run's event stream;
* :mod:`repro.obs.diagnose` — dip diagnosis, attributing hit-ratio dips
  to the causal events in their windows;
* :mod:`repro.obs.tracing` — one read-span record (the pricer's stage
  list), sampled by count in the closed loop (:class:`SpanProfiler`,
  with a zero-cost disabled path) and inside tail/uniform exemplar span
  trees in serve, plus deterministic trace ids and an anomaly-triggered
  flight recorder that dumps its ring through :func:`write_jsonl`;
* :mod:`repro.obs.expo` — OpenMetrics-style text exposition of registry
  snapshots.
"""

from repro.obs.diagnose import (
    DipDiagnosis,
    DipReport,
    diagnose_dips,
    diagnose_shard_dips,
    find_dips,
    format_dip_report,
)
from repro.obs.events import (
    BufferFrozen,
    BufferUnfrozen,
    CacheInvalidated,
    CompactionEnd,
    CompactionStart,
    Event,
    EventBus,
    EventTally,
    FileCreated,
    FileDiscarded,
    FlushDone,
    ReadSpan,
    RequestShed,
    TrimRun,
    WriteDeferred,
)
from repro.obs.metrics import MetricsRegistry, Reservoir
from repro.obs.expo import (
    render_openmetrics,
    render_openmetrics_many,
    sanitize_metric_name,
)
from repro.obs.trace import (
    TraceRecorder,
    read_jsonl,
    reconciliation_error_s,
    stage_sum_s,
    validate_exemplar,
    write_jsonl,
)
from repro.obs.tracing import (
    NULL_PROFILER,
    TRACE_MODES,
    FlightPolicy,
    FlightRecorder,
    RequestTracer,
    SpanProfiler,
    exemplar_summary,
    make_trace_id,
    span_tree,
)

__all__ = [
    "NULL_PROFILER",
    "TRACE_MODES",
    "BufferFrozen",
    "BufferUnfrozen",
    "CacheInvalidated",
    "CompactionEnd",
    "CompactionStart",
    "DipDiagnosis",
    "DipReport",
    "Event",
    "EventBus",
    "EventTally",
    "FileCreated",
    "FileDiscarded",
    "FlightPolicy",
    "FlightRecorder",
    "FlushDone",
    "MetricsRegistry",
    "ReadSpan",
    "RequestShed",
    "RequestTracer",
    "Reservoir",
    "SpanProfiler",
    "TraceRecorder",
    "TrimRun",
    "WriteDeferred",
    "diagnose_dips",
    "diagnose_shard_dips",
    "exemplar_summary",
    "find_dips",
    "format_dip_report",
    "make_trace_id",
    "read_jsonl",
    "reconciliation_error_s",
    "render_openmetrics",
    "render_openmetrics_many",
    "sanitize_metric_name",
    "span_tree",
    "stage_sum_s",
    "validate_exemplar",
    "write_jsonl",
]
