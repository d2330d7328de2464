"""The live serving status view: a pure formatter over plain status dicts.

``ConcurrentBriefingPipeline.status()`` assembles one JSON-safe dict per
frame (queue depth, per-worker liveness and throughput,
cache hit rates, SLO burn, recent journal events); :func:`render_status`
turns it into the fixed-width text block that ``repro top`` and
``serve-many --status-interval`` print.  Splitting collection from rendering
keeps this module free of any ``repro`` import (the ``obs`` layering rule)
and makes the renderer trivially testable on hand-built dicts — every field
is optional and missing data renders as a gap, never a crash.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["render_status"]


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def _fmt(value: Any, spec: str = "") -> str:
    if value is None:
        return "-"
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


def render_status(status: Dict[str, Any]) -> str:
    """Render one status frame as a multi-line text block."""
    lines: List[str] = []
    transport = status.get("transport", "?")
    workers = status.get("workers") or []
    alive = sum(1 for w in workers if w.get("alive"))
    lines.append(
        f"serving [{transport}] · workers {alive}/{len(workers)} alive · "
        f"queue {_fmt(status.get('queue_depth'))} · "
        f"in-flight {_fmt(status.get('in_flight'))}"
    )

    requests = status.get("requests")
    if requests:
        hits = requests.get("cache_hits", 0)
        misses = requests.get("cache_misses", 0)
        lines.append(
            f"requests: {_fmt(hits + misses)} served · cache hit {_rate(hits, misses)} · "
            f"shed {_fmt(requests.get('requests_shed'))} · "
            f"expired {_fmt(requests.get('deadline_expirations'))} · "
            f"rejected {_fmt(requests.get('queue_rejections'))}"
        )
        lines.append(
            f"recovery: {_fmt(requests.get('worker_restarts'))} restarts · "
            f"{_fmt(requests.get('batches_requeued'))} requeues · "
            f"{_fmt(requests.get('poison_quarantined'))} quarantined"
        )

    slo = status.get("slo")
    if slo:
        parts = []
        for objective, entry in (slo.get("objectives") or {}).items():
            burn = entry.get("burn_rate")
            flag = "!" if isinstance(burn, (int, float)) and burn > 1.0 else ""
            parts.append(f"{objective} burn {_fmt(burn, '.2f')}{flag}")
        lines.append(
            f"slo[{_fmt(slo.get('requests'))} req/"
            f"{_fmt(slo.get('window_seconds'), '.0f')}s]: " + " · ".join(parts)
        )

    if workers:
        lines.append("worker  gen  alive  heartbeat  batches")
        for worker in workers:
            lines.append(
                f"{_fmt(worker.get('index')):>6}"
                f"  {_fmt(worker.get('generation')):>3}"
                f"  {('yes' if worker.get('alive') else 'NO'):>5}"
                f"  {_fmt(worker.get('heartbeat_age_s'), '.2f'):>8}s"
                f"  {_fmt(worker.get('batches')):>7}"
            )

    events = status.get("events") or []
    if events:
        lines.append(f"recent events ({len(events)}):")
        for event in events:
            attributes = event.get("attributes") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
            lines.append(f"  - {event.get('kind', '?')} {detail}".rstrip())

    return "\n".join(lines)
