"""Metrics registry: instruments, histogram math, snapshot merge, no-op registry."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NOOP_REGISTRY,
    MetricsRegistry,
)


def test_counter_labeled_series_are_independent():
    registry = MetricsRegistry()
    counter = registry.counter("fetch_retries_total")
    counter.inc(host="a.example")
    counter.inc(2, host="b.example")
    counter.inc(host="a.example")
    assert counter.value(host="a.example") == 2
    assert counter.value(host="b.example") == 2
    assert counter.value(host="c.example") == 0


def test_counter_rejects_decrease():
    counter = MetricsRegistry().counter("c")
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)


def test_gauge_sets_and_incs():
    gauge = MetricsRegistry().gauge("train_loss")
    gauge.set(1.5, split="train")
    gauge.set(0.9, split="train")
    gauge.inc(0.1, split="train")
    assert gauge.value(split="train") == pytest.approx(1.0)


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError, match="already registered as counter"):
        registry.gauge("x")


# ----------------------------------------------------------------------
# Histogram bucket boundaries and percentile estimates
# ----------------------------------------------------------------------
def test_default_buckets_are_log_scale_latency_shaped():
    assert len(DEFAULT_BUCKETS) == 25
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(1e2)
    ratios = [b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
    assert all(r == pytest.approx(10 ** 0.25) for r in ratios)


def test_histogram_bucket_boundary_goes_to_lower_bucket():
    histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
    histogram.observe(1.0)  # exactly on a bound -> that bucket (le semantics)
    histogram.observe(1.5)
    histogram.observe(4.0)
    histogram.observe(100.0)  # overflow bucket
    state = histogram._snapshot_series()[()]
    assert state["counts"] == [1, 1, 1, 1]
    assert state["count"] == 4
    assert state["sum"] == pytest.approx(106.5)


def test_histogram_percentile_interpolates_within_bucket():
    histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    # rank(50) = 2 of 4 -> halfway through the (1, 2] bucket -> 1.5
    assert histogram.percentile(50) == pytest.approx(1.5)
    # rank(100) = 4 -> top of the (2, 4] bucket -> 4.0
    assert histogram.percentile(100) == pytest.approx(4.0)
    assert 0.0 <= histogram.percentile(0) <= 1.0


def test_histogram_percentile_empty_and_bounds():
    histogram = MetricsRegistry().histogram("h")
    assert histogram.percentile(50) == 0.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_overflow_percentile_clamps_to_top_bound():
    histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
    histogram.observe(50.0)
    assert histogram.percentile(99) == pytest.approx(2.0)


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="at least one bucket"):
        registry.histogram("empty", buckets=())
    with pytest.raises(ValueError, match="duplicate"):
        registry.histogram("dup", buckets=(1.0, 1.0))


# ----------------------------------------------------------------------
# Snapshot merge
# ----------------------------------------------------------------------
def _shard(hosts):
    registry = MetricsRegistry()
    counter = registry.counter("fetch_retries_total", help="retries")
    histogram = registry.histogram("latency", buckets=(1.0, 2.0))
    for host, retries, latency in hosts:
        counter.inc(retries, host=host)
        histogram.observe(latency, host=host)
    return registry.snapshot()


def test_labeled_counter_merge_sums_matching_series():
    a = _shard([("a.example", 2, 0.5)])
    b = _shard([("a.example", 3, 1.5), ("b.example", 1, 0.1)])
    merged = a.merge(b)
    assert merged.value("fetch_retries_total", host="a.example") == 5
    assert merged.value("fetch_retries_total", host="b.example") == 1
    state = merged.value("latency", host="a.example")
    assert state["count"] == 2
    assert state["counts"] == [1, 1, 0]


def test_snapshot_merge_is_associative():
    a = _shard([("a.example", 1, 0.5)])
    b = _shard([("a.example", 2, 1.5)])
    c = _shard([("b.example", 4, 3.0)])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.as_dict() == right.as_dict()


def test_snapshot_merge_rejects_mismatches():
    registry_a = MetricsRegistry()
    registry_a.counter("m")
    registry_b = MetricsRegistry()
    registry_b.gauge("m")
    with pytest.raises(ValueError, match="cannot merge"):
        registry_a.snapshot().merge(registry_b.snapshot())

    registry_c = MetricsRegistry()
    registry_c.histogram("h", buckets=(1.0,))
    registry_d = MetricsRegistry()
    registry_d.histogram("h", buckets=(2.0,))
    with pytest.raises(ValueError, match="bucket bounds differ"):
        registry_c.snapshot().merge(registry_d.snapshot())


def test_merge_does_not_mutate_operands():
    a = _shard([("a.example", 1, 0.5)])
    b = _shard([("a.example", 2, 0.5)])
    before = a.as_dict()
    a.merge(b)
    assert a.as_dict() == before


# ----------------------------------------------------------------------
# No-op registry
# ----------------------------------------------------------------------
def test_noop_registry_is_inert_singletons():
    counter = NOOP_REGISTRY.counter("a")
    histogram = NOOP_REGISTRY.histogram("b")
    assert counter is NOOP_REGISTRY.gauge("c")  # one shared instrument
    counter.inc(5, host="x")
    histogram.observe(1.0)
    assert counter.value(host="x") == 0.0
    assert histogram.percentile(99) == 0.0
    assert NOOP_REGISTRY.snapshot().metrics == {}
    assert not NOOP_REGISTRY.enabled
