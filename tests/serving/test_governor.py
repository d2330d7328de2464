"""Front-door shedding: every request shed at admission is counted by reason."""

from repro.core import ConcurrentBriefingPipeline, serving
from repro.runtime import DeadlineExceeded, QueueFull

from .test_deadlines import PAGE_A
from .test_supervisor import POISON_PAGE, PoisonModel


def test_shed_requests_are_counted_by_reason(serving_model):
    """serving_shed_total carries the reason a request was shed: content the
    supervisor quarantined is shed with reason=poison on every resubmit."""
    server = ConcurrentBriefingPipeline(
        PoisonModel(serving_model), num_workers=1, beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervisor_poll_ms=5.0, observe=True,
    )
    try:
        quarantined = server.submit(POISON_PAGE, doc_id="poison").result(timeout=30)
        assert quarantined.degradations[0].fallback == "quarantined"
        for attempt in range(2):
            shed = server.submit(POISON_PAGE, doc_id=f"retry-{attempt}").result(timeout=30)
            assert not shed.complete
            assert shed.degradations[0].stage == "admission"
        assert server.submit(PAGE_A, doc_id="healthy").result(timeout=30).complete
    finally:
        server.shutdown(timeout=30)
    assert server.merged_stats().requests_shed == 2
    snapshot = server.metrics_snapshot()
    assert snapshot.value("serving_shed_total", reason="poison") == 2.0
    assert snapshot.value("serving_requests_total", outcome="shed") == 2.0


def test_poison_and_shutdown_sheds_are_permanent(serving_model, monkeypatch):
    """The retry contract: a poison shed or a shutdown gives up for good
    (``transient`` False), while backpressure and deadlines stay retryable."""
    raised = []

    class RecordedOverloaded(serving.Overloaded):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            raised.append(self)

    monkeypatch.setattr(serving, "Overloaded", RecordedOverloaded)
    server = ConcurrentBriefingPipeline(
        PoisonModel(serving_model), num_workers=1, beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervisor_poll_ms=5.0,
    )
    try:
        server.submit(POISON_PAGE, doc_id="poison").result(timeout=30)
        server.submit(POISON_PAGE, doc_id="retry").result(timeout=30)
    finally:
        server.shutdown(timeout=30)
    # Quarantine, the front-door shed of the resubmit, the shutdown sweep.
    assert [error.reason for error in raised] == ["poison", "poison", "shutdown"]
    assert not any(error.transient for error in raised)
    assert QueueFull("queue full").transient
    assert DeadlineExceeded("expired").transient
