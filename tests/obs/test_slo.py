"""SLO accounting: rolling windows, burn rates, export, the event journal."""

import io
import json
import threading

import pytest

import numpy as np

from repro.obs import OUTCOMES, EventJournal, MetricsRegistry, SLOTracker, percentile


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


def test_outcomes_and_rates():
    clock = FakeClock()
    slo = SLOTracker(error_budget=0.1, shed_budget=0.2, clock=clock)
    slo.record("ok", latency_s=0.1)
    slo.record("ok", latency_s=0.2)
    slo.record("error", latency_s=0.3)
    slo.record("expired")
    slo.record("shed")
    snap = slo.snapshot()
    assert snap["requests"] == 5
    assert snap["outcomes"] == {"ok": 2, "error": 1, "expired": 1, "shed": 1}
    # error + expired burn the error budget; shed only the shed budget.
    assert snap["objectives"]["error_rate"]["value"] == pytest.approx(0.4)
    assert snap["objectives"]["error_rate"]["burn_rate"] == pytest.approx(4.0)
    assert snap["objectives"]["shed_rate"]["value"] == pytest.approx(0.2)
    assert snap["objectives"]["shed_rate"]["burn_rate"] == pytest.approx(1.0)


def test_latency_percentile_only_counts_served_requests():
    slo = SLOTracker(latency_target_ms=100.0, clock=FakeClock())
    for latency in (0.01, 0.02, 0.03):
        slo.record("ok", latency_s=latency)
    slo.record("shed")  # no latency: never reached a worker
    slo.record("expired")
    p99 = slo.snapshot()["objectives"]["latency_p99"]
    assert 0.02 < p99["value"] <= 0.03
    assert p99["burn_rate"] == pytest.approx(p99["value"] / 0.1)


@pytest.mark.parametrize("size", [1, 2, 7, 100])
def test_percentile_matches_numpy_default_method(size):
    values = np.random.default_rng(size).exponential(size=size)
    shuffled = list(values)  # percentile sorts internally
    for q in (0, 1, 25, 50, 90, 95, 99, 99.9, 100):
        assert percentile(shuffled, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_of_no_samples_reads_zero():
    """``np.percentile`` raises on no samples; an idle window reads 0.0."""
    assert percentile([], 50) == 0.0
    assert percentile(iter(()), 99) == 0.0


def test_unknown_outcome_counts_as_error():
    slo = SLOTracker(clock=FakeClock())
    slo.record("mystery")
    assert slo.snapshot()["outcomes"]["error"] == 1


def test_window_prunes_old_samples():
    clock = FakeClock()
    slo = SLOTracker(window_seconds=60.0, clock=clock)
    slo.record("error")
    clock.now += 61.0
    slo.record("ok", latency_s=0.01)
    snap = slo.snapshot()
    assert snap["requests"] == 1
    assert snap["outcomes"]["error"] == 0


def test_max_samples_bounds_memory():
    slo = SLOTracker(max_samples=8, clock=FakeClock())
    for _ in range(100):
        slo.record("ok", latency_s=0.01)
    assert slo.snapshot()["requests"] == 8


def test_export_to_registry_gauges():
    slo = SLOTracker(error_budget=0.5, clock=FakeClock())
    slo.record("error")
    registry = MetricsRegistry()
    snap = slo.export_to(registry)
    exported = registry.snapshot()
    assert exported.value("serving_slo_burn_rate", objective="error_rate") == pytest.approx(2.0)
    assert exported.value("serving_slo_target", objective="error_rate") == pytest.approx(0.5)
    assert exported.value("serving_slo_window_requests") == 1
    # Re-export is an idempotent re-sync, not an accumulation.
    slo.export_to(registry)
    assert registry.snapshot().value("serving_slo_window_requests") == 1
    assert set(snap["objectives"]) == {"latency_p99", "error_rate", "shed_rate"}


def test_tracker_validates_budgets():
    with pytest.raises(ValueError):
        SLOTracker(latency_target_ms=0)
    with pytest.raises(ValueError):
        SLOTracker(error_budget=0.0)
    with pytest.raises(ValueError):
        SLOTracker(shed_budget=1.5)


def test_outcomes_tuple_is_stable():
    assert OUTCOMES == ("ok", "error", "expired", "shed")


# ----------------------------------------------------------------------
def test_journal_records_and_bounds():
    journal = EventJournal(capacity=3, clock=FakeClock())
    for i in range(5):
        journal.record("batch_requeued", old=i, new=i + 1)
    assert len(journal) == 3
    assert [e["attributes"]["old"] for e in journal.events] == [2, 3, 4]
    assert journal.tail(2)[-1]["attributes"]["new"] == 5
    assert journal.tail(0) == []


def test_journal_stringifies_unsafe_attributes():
    journal = EventJournal(clock=FakeClock())
    event = journal.record("worker_restart", worker=1, reason=ValueError("boom"))
    assert event["attributes"]["worker"] == 1
    assert "boom" in event["attributes"]["reason"]
    assert isinstance(event["attributes"]["reason"], str)


def test_journal_write_jsonl_round_trips():
    journal = EventJournal(clock=FakeClock())
    journal.record("serving_started", transport="thread", workers=2)
    journal.record("poison_quarantine", doc_id="bad", attempts=3)
    buffer = io.StringIO()
    assert journal.write_jsonl(buffer) == 2
    lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [line["kind"] for line in lines] == ["serving_started", "poison_quarantine"]
    assert lines[1]["attributes"] == {"doc_id": "bad", "attempts": 3}


def test_journal_is_thread_safe():
    journal = EventJournal(capacity=10_000)
    def spam():
        for i in range(500):
            journal.record("event", i=i)
    threads = [threading.Thread(target=spam) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(journal) == 2000
