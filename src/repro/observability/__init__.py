"""Zero-dependency instrumentation for the simulation pipeline.

The paper characterizes voltage noise by *instrumenting* a production
processor; this package gives the reproduction the same courtesy.  Three
coupled facilities, all off by default:

* **tracing** — hierarchical wall-time spans
  (``campaign.batch`` → ``run.simulate`` → ``chip.run`` →
  ``pdn.simulate``) whose structure is deterministic; parallel workers'
  spans are merged into one tree in chunk order;
* **metrics** — a closed catalog of counters/gauges/histograms (cycles
  simulated, droop/overshoot events by depth bucket, cache traffic,
  per-worker run counts, expected rollback recoveries) with JSON and
  Prometheus-text exporters, split into deterministic *content* and
  execution-specific *runtime* sections;
* **profiling** — per-stage timing tables and top-N hottest chunks,
  derived from the trace.

Entry points: ``repro-experiments ... --trace t.json --metrics m.json
--profile-stages`` (environment: ``REPRO_TRACE`` / ``REPRO_METRICS``),
or programmatically::

    from repro import observability

    with observability.capture() as session:
        campaign.measure_specs(specs)
    session.metrics_payload()["counters"]   # deterministic content
    session.trace_payload()                 # the span tree

While disabled, every call site costs one attribute read; no span
objects are allocated (``tests/observability/test_determinism.py``
asserts this).  See ``docs/observability.md`` for the span model,
metric catalog, exporter formats, and overhead measurements.
"""

from __future__ import annotations

from repro.observability.clock import monotonic_seconds
from repro.observability.metrics import (
    CATALOG,
    DEPTH_BUCKET_BOUNDS,
    MetricSpec,
    MetricsRegistry,
    depth_bucket,
)
from repro.observability.profiling import (
    HotSpan,
    StageRow,
    format_hottest,
    format_stage_table,
    hottest_spans,
    stage_table,
)
from repro.observability.session import (
    ObservabilitySession,
    active_session,
    capture,
    enabled,
    increment,
    observe,
    set_gauge,
    span,
    start,
    stop,
)
from repro.observability.spans import (
    NULL_SPAN,
    ActiveSpan,
    NullSpan,
    SpanRecord,
    Tracer,
)

__all__ = [
    "CATALOG",
    "DEPTH_BUCKET_BOUNDS",
    "NULL_SPAN",
    "ActiveSpan",
    "HotSpan",
    "MetricSpec",
    "MetricsRegistry",
    "NullSpan",
    "ObservabilitySession",
    "SpanRecord",
    "StageRow",
    "Tracer",
    "active_session",
    "capture",
    "depth_bucket",
    "enabled",
    "format_hottest",
    "format_stage_table",
    "hottest_spans",
    "increment",
    "monotonic_seconds",
    "observe",
    "set_gauge",
    "span",
    "stage_table",
    "start",
    "stop",
]
