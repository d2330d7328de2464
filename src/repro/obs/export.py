"""Exporters: span JSON-lines and Prometheus text, pure functions over files.

Neither exporter opens files or touches clocks: they take finished data (a
span iterable / a :class:`~repro.obs.metrics.MetricsSnapshot`) and any
file-like object with ``write``.  That keeps them trivially testable with
``io.StringIO`` and lets the CLI decide paths and lifetimes.

Trace format — one JSON object per line.  Spans carry
``{"kind": "span", ...Span.to_dict()}``; events recorded outside any span
(a degradation recorded outside a batch span, say) become ``{"kind": "event", ...}``
lines, so nothing observed is dropped.

Metrics format — the Prometheus text exposition format (``# HELP`` /
``# TYPE`` headers, ``name{label="v"} value`` samples, histograms as
cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``), parseable
back with :func:`parse_prometheus_text` for round-trip tests and CI smoke
checks.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, TextIO

__all__ = [
    "write_spans_jsonl",
    "write_trace_jsonl",
    "render_prometheus",
    "write_prometheus",
    "parse_prometheus_text",
]


def write_spans_jsonl(spans: Iterable, fileobj: TextIO) -> int:
    """Write each finished span as one JSON line; returns lines written."""
    written = 0
    for span in spans:
        fileobj.write(json.dumps({"kind": "span", **span.to_dict()}, sort_keys=True))
        fileobj.write("\n")
        written += 1
    return written


def write_trace_jsonl(tracer, fileobj: TextIO) -> int:
    """Write a tracer's spans *and* orphan events; returns lines written."""
    written = write_spans_jsonl(tracer.spans, fileobj)
    for time_stamp, name, attributes in tracer.orphan_events:
        record = {"kind": "event", "time": time_stamp, "name": name, "attributes": attributes}
        fileobj.write(json.dumps(record, sort_keys=True))
        fileobj.write("\n")
        written += 1
    return written


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"' for key, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def render_prometheus(snapshot) -> str:
    """Render a :class:`MetricsSnapshot` in Prometheus text format."""
    lines = []
    for name, metric in sorted(snapshot.metrics.items()):
        if metric["help"]:
            lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
        lines.append(f"# TYPE {name} {metric['type']}")
        if metric["type"] == "histogram":
            bounds = metric["buckets"]
            for key, state in sorted(metric["series"].items()):
                cumulative = 0
                for bound, count in zip(bounds, state["counts"]):
                    cumulative += count
                    labels = _format_labels(tuple(key) + (("le", _format_value(bound)),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _format_labels(tuple(key) + (("le", "+Inf"),))
                lines.append(f"{name}_bucket{labels} {state['count']}")
                lines.append(f"{name}_sum{_format_labels(key)} {_format_value(state['sum'])}")
                lines.append(f"{name}_count{_format_labels(key)} {state['count']}")
        else:
            for key, value in sorted(metric["series"].items()):
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(snapshot, fileobj: TextIO) -> None:
    fileobj.write(render_prometheus(snapshot))


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{'name{labels}': value}``.

    A deliberately small inverse of :func:`render_prometheus` (it assumes
    well-formed single-line samples) used by round-trip tests and the CI
    observability smoke step; raises ``ValueError`` on a malformed sample.
    """
    samples: Dict[str, float] = {}
    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"line {line_number}: no sample value in {raw!r}")
        try:
            samples[series] = math.inf if value == "+Inf" else float(value)
        except ValueError as exc:
            raise ValueError(f"line {line_number}: bad value {value!r}") from exc
    return samples
