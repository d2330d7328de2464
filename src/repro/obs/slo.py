"""Serving SLO accounting: rolling objective windows, burn rates, journal.

An :class:`SLOTracker` watches the request stream through one narrow feed —
``record(outcome, latency_s)`` — and keeps a bounded rolling window of
``(time, outcome, latency)`` samples.  From that window it derives the three
serving objectives:

``latency_p99``
    99th-percentile latency of *served* requests (ok or error; shed and
    expired requests never reached a worker, so they carry no service
    latency) against a target in seconds.
``error_rate``
    Fraction of requests that finished degraded (including deadline
    expirations) against an error budget.
``shed_rate``
    Fraction of requests rejected at admission (queue rejection, poison)
    against a shed budget.

Each objective reports a **burn rate** — observed value over budget, the
standard multi-window SLO idiom: ``1.0`` means burning the budget exactly as
fast as allowed, ``>1`` is a page, ``0`` is a quiet window.
:meth:`SLOTracker.export_to` mirrors values into ``serving_slo_*`` gauges on
any :class:`~repro.obs.metrics.MetricsRegistry`, so the numbers reach the
Prometheus text endpoint alongside everything else.

:class:`EventJournal` is the companion structured log: a bounded, thread-safe
list of ``{"time", "kind", "attributes"}`` dicts recording the *discrete*
state changes — worker restarts, requeued batches, poison quarantines —
that the continuous metrics can only hint at.  ``write_jsonl`` serialises it
one JSON object per line.

:func:`percentile` is the package's one exact percentile over raw samples
(the same linear interpolation as ``numpy.percentile``'s default), used
by the tracker.

Like the rest of ``repro.obs`` this module is stdlib-only and imports no
other ``repro`` package; the serving layer feeds it through plain callables.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, TextIO, Tuple

__all__ = ["SLOTracker", "EventJournal", "OUTCOMES", "percentile"]

#: Request outcomes the tracker understands.  ``ok`` — complete brief;
#: ``error`` — degraded brief (parse/render/model/serve failure);
#: ``expired`` — deadline ran out; ``shed`` — rejected at admission.
OUTCOMES = ("ok", "error", "expired", "shed")

_SERVED = ("ok", "error")  # outcomes that carry a service latency
_ERRORS = ("error", "expired")  # outcomes that burn the error budget


class SLOTracker:
    """Rolling-window objective tracking with burn rates.

    ``window_seconds`` bounds the lookback; ``max_samples`` bounds memory
    under pathological request rates (oldest samples fall off first, which
    only ever *shrinks* the window).  ``clock`` is injectable for
    deterministic tests and defaults to :func:`time.monotonic`.
    """

    def __init__(
        self,
        *,
        latency_target_ms: float = 500.0,
        error_budget: float = 0.05,
        shed_budget: float = 0.10,
        window_seconds: float = 60.0,
        max_samples: int = 4096,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if latency_target_ms <= 0:
            raise ValueError(f"latency_target_ms must be positive, got {latency_target_ms}")
        if not 0 < error_budget <= 1 or not 0 < shed_budget <= 1:
            raise ValueError("error/shed budgets must be in (0, 1]")
        self.latency_target_s = latency_target_ms / 1000.0
        self.error_budget = error_budget
        self.shed_budget = shed_budget
        self.window_seconds = window_seconds
        self._clock = clock if clock is not None else time.monotonic
        self._samples: Deque[Tuple[float, str, Optional[float]]] = deque(maxlen=max_samples)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def record(self, outcome: str, latency_s: Optional[float] = None) -> None:
        """Record one finished request.  Unknown outcomes count as errors."""
        if outcome not in OUTCOMES:
            outcome = "error"
        with self._lock:
            self._samples.append((self._clock(), outcome, latency_s))

    def _window(self) -> List[Tuple[float, str, Optional[float]]]:
        horizon = self._clock() - self.window_seconds
        with self._lock:
            while self._samples and self._samples[0][0] < horizon:
                self._samples.popleft()
            return list(self._samples)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Current objective values, budgets, and burn rates as plain data."""
        samples = self._window()
        total = len(samples)
        p99 = percentile(
            (s[2] for s in samples if s[1] in _SERVED and s[2] is not None), 99.0
        )
        errors = sum(1 for s in samples if s[1] in _ERRORS)
        sheds = sum(1 for s in samples if s[1] == "shed")
        error_rate = errors / total if total else 0.0
        shed_rate = sheds / total if total else 0.0
        outcomes = {name: sum(1 for s in samples if s[1] == name) for name in OUTCOMES}
        return {
            "window_seconds": self.window_seconds,
            "requests": total,
            "outcomes": outcomes,
            "objectives": {
                "latency_p99": {
                    "value": p99,
                    "target": self.latency_target_s,
                    "burn_rate": p99 / self.latency_target_s,
                },
                "error_rate": {
                    "value": error_rate,
                    "target": self.error_budget,
                    "burn_rate": error_rate / self.error_budget,
                },
                "shed_rate": {
                    "value": shed_rate,
                    "target": self.shed_budget,
                    "burn_rate": shed_rate / self.shed_budget,
                },
            },
        }

    def export_to(self, registry) -> Dict[str, Any]:
        """Mirror the current snapshot into ``serving_slo_*`` gauges.

        Idempotent re-sync (gauges are set, not incremented) — call it right
        before ``registry.snapshot()`` and the SLO numbers ride the same
        Prometheus text render as every other serving metric.  Returns the
        snapshot so callers can reuse it.
        """
        snap = self.snapshot()
        value_gauge = registry.gauge(
            "serving_slo_value", help="current objective value in the rolling window"
        )
        target_gauge = registry.gauge(
            "serving_slo_target", help="objective target (budget) in effect"
        )
        burn_gauge = registry.gauge(
            "serving_slo_burn_rate", help="objective value over budget; >1 is a page"
        )
        for objective, entry in snap["objectives"].items():
            value_gauge.set(entry["value"], objective=objective)
            target_gauge.set(entry["target"], objective=objective)
            burn_gauge.set(entry["burn_rate"], objective=objective)
        registry.gauge(
            "serving_slo_window_requests", help="requests inside the SLO window"
        ).set(snap["requests"])
        return snap


def percentile(values: Iterable[float], q: float) -> float:
    """Exact ``q``-th percentile (0–100) of ``values``, linearly interpolated.

    Matches ``numpy.percentile``'s default method; an empty input reads 0.0.
    """
    sorted_values = sorted(values)
    if not sorted_values:
        return 0.0
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = rank - lower
    return sorted_values[lower] + fraction * (sorted_values[upper] - sorted_values[lower])


class EventJournal:
    """Bounded, thread-safe journal of discrete serving state changes.

    Events are plain dicts (JSON-safe by construction: attribute values are
    stringified unless already a number/bool/None), newest-last, oldest
    evicted beyond ``capacity``.  ``clock`` defaults to wall time —
    journals are for humans correlating incidents, not for measuring spans.
    """

    def __init__(
        self, capacity: int = 1024, clock: Optional[Callable[[], float]] = None
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        self._clock = clock if clock is not None else time.time
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, kind: str, **attributes: Any) -> Dict[str, Any]:
        event = {
            "time": self._clock(),
            "kind": kind,
            "attributes": {key: _json_safe(value) for key, value in attributes.items()},
        }
        with self._lock:
            self._events.append(event)
        return event

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def tail(self, n: int = 10) -> List[Dict[str, Any]]:
        with self._lock:
            if n <= 0:
                return []
            return list(self._events)[-n:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def write_jsonl(self, fileobj: TextIO) -> int:
        """One JSON object per line, oldest first; returns lines written."""
        written = 0
        for event in self.events:
            fileobj.write(json.dumps(event, sort_keys=True))
            fileobj.write("\n")
            written += 1
        return written


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)
