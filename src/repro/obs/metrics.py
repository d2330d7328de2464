"""Labelled metrics: counters, gauges, log-bucket histograms, snapshots.

A :class:`MetricsRegistry` hands out named instruments::

    registry = MetricsRegistry()
    registry.counter("serving_requests_total").inc(outcome="cache_hit")
    registry.histogram("briefing_stage_seconds").observe(0.012, stage="parse")
    text = render_prometheus(registry.snapshot())        # repro.obs.export

Instruments are *labelled*: every ``inc`` / ``set`` / ``observe`` takes
keyword labels and each distinct label combination is an independent series
(``briefing_stage_seconds{stage="parse"}``).  Histograms use fixed
log-scale buckets (default four per decade, 100 µs – 100 s — latency-shaped)
and estimate percentiles by linear interpolation inside the covering bucket.

:meth:`MetricsRegistry.snapshot` freezes the whole registry into a
:class:`MetricsSnapshot` — plain data, mergeable with
:meth:`MetricsSnapshot.merge` (element-wise sums, so merging is associative
and shard-order independent).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NoopMetricsRegistry",
    "NOOP_REGISTRY",
    "DEFAULT_BUCKETS",
    "snapshot_delta",
]

#: Log-scale histogram bucket upper bounds: four per decade, 1e-4 .. 1e2.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(10.0 ** (k / 4.0) for k in range(-16, 9))

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared naming/series plumbing for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _snapshot_series(self) -> dict:
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonically increasing count, one value per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _snapshot_series(self) -> dict:
        return dict(self._values)


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, cache size, loss)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def _snapshot_series(self) -> dict:
        return dict(self._values)


class Histogram(_Instrument):
    """Fixed-bucket distribution with interpolated percentile estimates.

    ``buckets`` are ascending *upper* bounds; one implicit overflow bucket
    catches everything beyond the last bound.  Percentiles are estimated by
    locating the bucket containing the target rank and interpolating linearly
    between its edges — exact enough for dashboards, and merge-safe because
    the state is just per-bucket counts plus a running sum.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {self.name} has duplicate bucket bounds")
        self.buckets = bounds
        self._series: Dict[LabelKey, dict] = {}

    def _state(self, key: LabelKey) -> dict:
        state = self._series.get(key)
        if state is None:
            state = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
            self._series[key] = state
        return state

    def observe(self, value: float, **labels: Any) -> None:
        state = self._state(_label_key(labels))
        state["counts"][bisect_left(self.buckets, value)] += 1
        state["sum"] += value
        state["count"] += 1

    def count(self, **labels: Any) -> int:
        state = self._series.get(_label_key(labels))
        return state["count"] if state else 0

    def sum(self, **labels: Any) -> float:
        state = self._series.get(_label_key(labels))
        return state["sum"] if state else 0.0

    def percentile(self, q: float, **labels: Any) -> float:
        """Estimated ``q``-th percentile (0–100) for one label combination."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        state = self._series.get(_label_key(labels))
        if state is None or state["count"] == 0:
            return 0.0
        return _estimate_percentile(self.buckets, state["counts"], state["count"], q)

    def _snapshot_series(self) -> dict:
        return {
            key: {"counts": list(s["counts"]), "sum": s["sum"], "count": s["count"]}
            for key, s in self._series.items()
        }


def _estimate_percentile(
    buckets: Tuple[float, ...], counts: List[int], total: int, q: float
) -> float:
    rank = (q / 100.0) * total
    cumulative = 0.0
    for index, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if bucket_count and cumulative >= rank:
            lower = 0.0 if index == 0 else buckets[index - 1]
            # The overflow bucket has no upper edge; clamp to the top bound.
            upper = buckets[index] if index < len(buckets) else buckets[-1]
            fraction = (rank - previous) / bucket_count
            return lower + max(0.0, min(1.0, fraction)) * (upper - lower)
    return buckets[-1]  # pragma: no cover - rank beyond all counts


class MetricsSnapshot:
    """Frozen registry state: plain data, associatively mergeable.

    ``metrics`` maps instrument name to ``{"type", "help", "series"}`` (plus
    ``"buckets"`` for histograms); series keys are sorted label tuples.
    """

    def __init__(self, metrics: Optional[Dict[str, dict]] = None) -> None:
        self.metrics: Dict[str, dict] = metrics if metrics is not None else {}

    @property
    def names(self) -> List[str]:
        return sorted(self.metrics)

    def value(self, name: str, **labels: Any):
        """Series value: a float (counter/gauge) or a histogram state dict."""
        metric = self.metrics.get(name)
        if metric is None:
            return None
        return metric["series"].get(_label_key(labels))

    def labels(self, name: str) -> List[LabelKey]:
        metric = self.metrics.get(name, {"series": {}})
        return sorted(metric["series"])

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Element-wise combine (sums), suitable for cross-shard roll-ups."""
        merged = {name: _copy_metric(metric) for name, metric in self.metrics.items()}
        for name, metric in other.metrics.items():
            if name not in merged:
                merged[name] = _copy_metric(metric)
                continue
            target = merged[name]
            if target["type"] != metric["type"]:
                raise ValueError(
                    f"cannot merge {name}: {target['type']} vs {metric['type']}"
                )
            if target.get("buckets") != metric.get("buckets"):
                raise ValueError(f"cannot merge {name}: bucket bounds differ")
            for key, value in metric["series"].items():
                if key not in target["series"]:
                    target["series"][key] = _copy_series_value(value)
                elif isinstance(value, dict):
                    state = target["series"][key]
                    state["counts"] = [
                        a + b for a, b in zip(state["counts"], value["counts"])
                    ]
                    state["sum"] += value["sum"]
                    state["count"] += value["count"]
                else:
                    target["series"][key] += value
        return MetricsSnapshot(merged)

    def with_labels(self, **labels: Any) -> "MetricsSnapshot":
        """A copy with extra labels folded into every series key.

        This is how a parent pool stamps provenance (``worker=0,
        transport="process", generation=2``) onto a worker-local snapshot at
        merge time — the worker records metrics label-free and never needs to
        know where it runs.  Labels already present on a series win, so
        re-labelling is idempotent and never clobbers recorded dimensions.
        """
        if not labels:
            return MetricsSnapshot(
                {name: _copy_metric(metric) for name, metric in self.metrics.items()}
            )
        extra = {k: str(v) for k, v in labels.items()}
        out: Dict[str, dict] = {}
        for name, metric in self.metrics.items():
            copied = _copy_metric(metric)
            series: Dict[LabelKey, Any] = {}
            for key, value in copied["series"].items():
                combined = dict(extra)
                combined.update(dict(key))  # existing labels win
                new_key = tuple(sorted(combined.items()))
                if new_key in series:
                    _merge_series_value(series, new_key, value)
                else:
                    series[new_key] = value
            copied["series"] = series
            out[name] = copied
        return MetricsSnapshot(out)

    def aggregate(
        self, ignoring: Iterable[str] = ("worker", "transport", "generation")
    ) -> "MetricsSnapshot":
        """A copy with the given label keys stripped and collided series summed.

        The inverse view of :meth:`with_labels`: per-worker series collapse
        back into transport-agnostic totals, which is what cross-transport
        equivalence checks (and tests that predate worker labelling) compare.
        """
        drop = set(ignoring)
        out: Dict[str, dict] = {}
        for name, metric in self.metrics.items():
            copied = _copy_metric(metric)
            series: Dict[LabelKey, Any] = {}
            for key, value in copied["series"].items():
                new_key = tuple((k, v) for k, v in key if k not in drop)
                if new_key in series:
                    _merge_series_value(series, new_key, value)
                else:
                    series[new_key] = value
            copied["series"] = series
            out[name] = copied
        return MetricsSnapshot(out)

    def total(self, name: str) -> float:
        """Sum over every label combination: counter/gauge values, or the
        observation ``count`` for a histogram.  ``0.0`` for unknown names."""
        metric = self.metrics.get(name)
        if metric is None:
            return 0.0
        total = 0.0
        for value in metric["series"].values():
            total += value["count"] if isinstance(value, dict) else value
        return total

    def as_dict(self) -> dict:
        """JSON-safe form (label tuples become ``{key: value}`` dicts)."""
        out: Dict[str, dict] = {}
        for name, metric in sorted(self.metrics.items()):
            entry: Dict[str, Any] = {"type": metric["type"], "help": metric["help"]}
            if "buckets" in metric:
                entry["buckets"] = list(metric["buckets"])
            entry["series"] = [
                {"labels": dict(key), "value": _copy_series_value(value)}
                for key, value in sorted(metric["series"].items())
            ]
            out[name] = entry
        return out


def _copy_metric(metric: dict) -> dict:
    copied = {
        "type": metric["type"],
        "help": metric["help"],
        "series": {k: _copy_series_value(v) for k, v in metric["series"].items()},
    }
    if "buckets" in metric:
        copied["buckets"] = tuple(metric["buckets"])
    return copied


def _copy_series_value(value):
    if isinstance(value, dict):
        return {"counts": list(value["counts"]), "sum": value["sum"], "count": value["count"]}
    return value


def _merge_series_value(series: Dict[LabelKey, Any], key: LabelKey, value) -> None:
    if isinstance(value, dict):
        state = series[key]
        state["counts"] = [a + b for a, b in zip(state["counts"], value["counts"])]
        state["sum"] += value["sum"]
        state["count"] += value["count"]
    else:
        series[key] += value


def snapshot_delta(current: MetricsSnapshot, previous: MetricsSnapshot) -> MetricsSnapshot:
    """Element-wise ``current - previous``, the shipping unit for telemetry.

    Child workers snapshot their registry on every batch reply and ship only
    the delta since the last send; the parent folds deltas in with
    :meth:`MetricsSnapshot.merge`.  Because merge sums element-wise, the sum
    of all deltas reconstructs the worker's full snapshot regardless of
    arrival interleaving — counters and histogram states recompose exactly,
    and a gauge's delta chain telescopes back to its latest value.
    """
    out: Dict[str, dict] = {}
    for name, metric in current.metrics.items():
        prev_metric = previous.metrics.get(name)
        copied = _copy_metric(metric)
        if prev_metric is not None:
            for key, prev_value in prev_metric["series"].items():
                value = copied["series"].get(key)
                if value is None:
                    continue
                if isinstance(value, dict):
                    value["counts"] = [
                        a - b for a, b in zip(value["counts"], prev_value["counts"])
                    ]
                    value["sum"] -= prev_value["sum"]
                    value["count"] -= prev_value["count"]
                else:
                    copied["series"][key] = value - prev_value
        out[name] = copied
    return MetricsSnapshot(out)


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, name: str, kind: type, **kwargs) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {kind.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Iterable[float]] = None
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)  # type: ignore[return-value]

    @property
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> MetricsSnapshot:
        metrics: Dict[str, dict] = {}
        for name, instrument in self._instruments.items():
            entry: Dict[str, Any] = {
                "type": instrument.kind,
                "help": instrument.help,
                "series": instrument._snapshot_series(),
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = instrument.buckets
            metrics[name] = entry
        return MetricsSnapshot(metrics)


class _NoopInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    name = ""
    help = ""
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        return None

    def set(self, value: float, **labels: Any) -> None:
        return None

    def observe(self, value: float, **labels: Any) -> None:
        return None

    def value(self, **labels: Any) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def percentile(self, q: float, **labels: Any) -> float:
        return 0.0


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopMetricsRegistry:
    """Registry stand-in: every instrument is the shared no-op singleton."""

    enabled = False
    names: Tuple[()] = ()

    def counter(self, name: str, help: str = "") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=None) -> _NoopInstrument:
        return _NOOP_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


NOOP_REGISTRY = NoopMetricsRegistry()
