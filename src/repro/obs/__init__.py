"""``repro.obs`` — structured tracing, metrics, export and SLOs.

Observability for the briefing service, one layer *below*
``repro.runtime`` in the stack: pure standard library, no imports from any
other ``repro`` package, so every layer above (runtime, html, core, cli) can
thread a tracer and a metrics registry through without cycles.

Five parts:

* :mod:`~repro.obs.trace` — a :class:`Tracer` producing nested
  :class:`Span`\\ s (monotonic start/duration, parent ids, attributes,
  status) through a context-manager API with an injectable clock;
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments with
  mergeable :class:`MetricsSnapshot`\\ s;
* :mod:`~repro.obs.export` — JSON-lines span export and Prometheus text
  rendering, both pure functions over file-like objects;
* :mod:`~repro.obs.slo` — rolling-window SLO objectives with burn rates
  (:class:`SLOTracker`) and a bounded structured :class:`EventJournal` of
  discrete serving state changes, plus :func:`percentile`, the one exact
  percentile over raw samples;
* :mod:`~repro.obs.status` — :func:`render_status`, the pure text renderer
  behind ``repro top`` and ``serve-many --status-interval``.

For distributed serving, :class:`TraceContext` is the picklable
``(trace_id, span_id)`` handle that carries a request's trace across thread
and process boundaries, :class:`SpanRecord` reconstitutes spans shipped as
dicts over a pipe, and :func:`snapshot_delta` produces the mergeable
``MetricsSnapshot`` deltas that workers piggyback on batch replies.

Everything defaults to the shared no-op singletons (:data:`NOOP_TRACER`,
:data:`NOOP_REGISTRY`): when observability is off the hot path takes one
``enabled`` check and allocates nothing.
"""

from .export import (
    parse_prometheus_text,
    render_prometheus,
    write_prometheus,
    write_spans_jsonl,
    write_trace_jsonl,
)
from .metrics import (
    DEFAULT_BUCKETS,
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    NoopMetricsRegistry,
    snapshot_delta,
)
from .slo import OUTCOMES, EventJournal, SLOTracker, percentile
from .status import render_status
from .trace import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceContext",
    "NoopTracer",
    "NOOP_TRACER",
    "NOOP_SPAN",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NoopMetricsRegistry",
    "NOOP_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "snapshot_delta",
    "SLOTracker",
    "EventJournal",
    "OUTCOMES",
    "percentile",
    "render_status",
    "write_spans_jsonl",
    "write_trace_jsonl",
    "write_prometheus",
    "render_prometheus",
    "parse_prometheus_text",
]
