"""Runtime health counters threaded through the briefing and serving layers.

A single :class:`RuntimeStats` instance is shared by whichever layers the
caller wires together (``ChaosModel`` / ``ChaosWorker`` → briefing pipeline →
serving worker pool), so one object tells the whole serving story: injected
faults, model failures, degradations, cache traffic, shed and expired
requests, worker restarts.  Pure data — no clocks, no globals, trivially
mergeable across shards.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["RuntimeStats"]


@dataclass
class RuntimeStats:
    """Counter block for the fault-tolerant briefing runtime."""

    #: faults injected by the chaos layer (all kinds).
    faults_injected: int = 0
    #: injected latency spikes.
    latency_spikes: int = 0
    #: model stages that raised during briefing.
    model_failures: int = 0
    #: degradation ladder steps taken by the pipeline.
    degradations: int = 0
    #: briefs (or rendered pages) served straight from the serving cache.
    cache_hits: int = 0
    #: cache lookups that missed and fell through to real work.
    cache_misses: int = 0
    #: requests rejected by the bounded admission queue (backpressure).
    queue_rejections: int = 0
    #: micro-batches handed to a serving worker by the request scheduler.
    batches_dispatched: int = 0
    #: requests dropped because their absolute deadline expired (in the
    #: queue, at the worker's budget check, or mid-pipeline).
    deadline_expirations: int = 0
    #: requests shed at admission because their content is quarantined poison.
    requests_shed: int = 0
    #: dead/wedged serving workers resurrected by the supervisor.
    worker_restarts: int = 0
    #: batches a dead worker held that were re-queued for another worker.
    batches_requeued: int = 0
    #: poison requests quarantined after repeatedly killing workers.
    poison_quarantined: int = 0

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a named counter (typos raise ``AttributeError``)."""
        setattr(self, name, getattr(self, name) + amount)

    def merge(self, other: "RuntimeStats") -> "RuntimeStats":
        """Element-wise sum — combine stats from independent shards."""
        merged = RuntimeStats()
        for field in fields(RuntimeStats):
            setattr(merged, field.name, getattr(self, field.name) + getattr(other, field.name))
        return merged

    def as_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(RuntimeStats)}

