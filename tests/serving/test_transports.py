"""Both worker transports honour the same serving contracts.

Deadlines, governor shedding, backpressure, supervisor restart and poison
quarantine were built against the thread transport; this suite runs the same
scenarios parametrized over ``thread`` and ``process`` so the pipe/process
implementation can never silently diverge.  Worker death maps naturally:
for threads the worker thread dies, for processes the worker *process* dies
(an injected :class:`WorkerDeath` terminates it) — the supervisor sees the
identical held-batch signature either way.
"""

import time

import pytest

from repro.core import ConcurrentBriefingPipeline, ServingGovernor
from repro.runtime import ChaosWorker, WorkerDeath

from .test_deadlines import PAGE_A, PAGE_B, assert_deadline_brief
from .test_supervisor import GOOD_PAGES, POISON_MARKER, POISON_PAGE


@pytest.fixture(params=["thread", "process"])
def transport(request):
    return request.param


class PicklablePoisonModel:
    """PoisonModel that survives pickling into a worker process.

    The explicit ``__getstate__``/``__setstate__`` pair matters: a bare
    ``__getattr__`` delegator recurses forever during unpickling on
    Python < 3.11, where pickle probes for state methods before
    ``__init__`` has populated ``__dict__``.
    """

    def __init__(self, model):
        self._model = model

    def predict_batch(self, documents, beam_size=4, batch_size=8):
        for document in documents:
            for sentence in document.sentences:
                if any(POISON_MARKER in token for token in sentence):
                    raise WorkerDeath("poison page in batch")
        return self._model.predict_batch(
            documents, beam_size=beam_size, batch_size=batch_size
        )

    def __getstate__(self):
        return {"_model": self._model}

    def __setstate__(self, state):
        self.__dict__.update(state)

    def __getattr__(self, name):
        if name.startswith("__") or "_model" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self._model, name)


def test_stream_outputs_and_conservation(harness, transport):
    """The full page stream is bit-identical to sequential on both transports,
    and the bounded admission queue never rejects it."""
    briefs, stats = harness.run_concurrent(2, transport=transport)
    harness.assert_identical(briefs, f"transport={transport}")
    harness.assert_conserved(stats)
    assert stats.queue_rejections == 0


def test_dead_on_arrival_never_reaches_a_worker(serving_model, transport):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport=transport, beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervise=False,
    )
    try:
        brief = server.submit(PAGE_A, doc_id="a", deadline_ms=0.0).result(timeout=30)
        assert_deadline_brief(brief)
        merged = server.merged_stats()
        assert merged.deadline_expirations == 1
        assert merged.batches_dispatched == 0
    finally:
        server.shutdown(timeout=30)


def test_deadline_expires_while_queued(serving_model, transport):
    """A stalled worker holds the lone slot; the queued request's budget runs
    out and it resolves to a typed DeadlineExceeded brief on both transports
    (the process transport sweeps it parent-side before dispatch)."""
    chaos = ChaosWorker(stall_rate=1.0, stall_seconds=0.25, sleep=time.sleep)
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport=transport, beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervise=False, chaos=chaos,
    )
    try:
        future_a = server.submit(PAGE_A, doc_id="a")
        future_b = server.submit(PAGE_B, doc_id="b", deadline_ms=100.0)
        assert future_a.result(timeout=30).complete
        assert_deadline_brief(future_b.result(timeout=30))
    finally:
        server.shutdown(timeout=30)
    assert server.merged_stats().deadline_expirations == 1


def test_governor_sheds_low_priority_on_both_transports(serving_model, transport):
    governor = ServingGovernor(max_queue=100)
    governor.observe_queue(95)  # force cache_only; submit's own observation
    # of the empty queue steps it down exactly one level, to shedding.
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport=transport, beam_size=2,
        max_wait_ms=0.0, governor=governor, supervise=False,
    )
    try:
        brief = server.submit(PAGE_A, doc_id="low", priority=0).result(timeout=30)
        assert not brief.complete
        assert brief.degradations[0].stage == "admission"
        assert server.merged_stats().requests_shed == 1
    finally:
        server.shutdown(timeout=30)


def test_worker_death_restarts_and_requeues(serving_model, transport):
    """An injected death mid-batch (thread death / process death) is detected,
    the worker resurrected with a fresh generation, and every future — the
    batch's, a coalesced follower's, an unrelated page's — still resolves."""
    chaos = ChaosWorker(death_rate=1.0, seed=3, max_deaths=1)
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport=transport, beam_size=2,
        max_batch=4, max_wait_ms=0.0, chaos=chaos, supervisor_poll_ms=5.0,
        start=False,
    )
    leader = server.submit(PAGE_A, doc_id="leader")
    follower = server.submit(PAGE_A, doc_id="follower")  # coalesces onto leader
    other = server.submit(PAGE_B, doc_id="other")
    server.pool.start()
    server.supervisor.start()
    try:
        assert leader.result(timeout=60).complete
        assert follower.result(timeout=60).complete
        assert other.result(timeout=60).complete
    finally:
        server.shutdown(timeout=60)
    assert chaos.deaths == 1
    merged = server.merged_stats()
    assert merged.worker_restarts == 1
    assert merged.batches_requeued == 1
    assert merged.poison_quarantined == 0


def test_poison_bisection_and_front_door_shed(serving_model, transport):
    """A page that kills whatever worker serves it is bisected down, rides
    alone, gets quarantined, and later submits of the same content are shed
    at admission — identically on both transports."""
    server = ConcurrentBriefingPipeline(
        PicklablePoisonModel(serving_model), num_workers=1, transport=transport,
        beam_size=2, max_batch=4, max_wait_ms=0.0, supervisor_poll_ms=5.0,
        start=False,
    )
    goods = [server.submit(page, doc_id=f"good-{i}") for i, page in enumerate(GOOD_PAGES)]
    poisoned = server.submit(POISON_PAGE, doc_id="poison")
    server.pool.start()
    server.supervisor.start()
    try:
        for future in goods:
            assert future.result(timeout=60).complete
        brief = poisoned.result(timeout=60)
        assert not brief.complete
        assert brief.degradations[0].stage == "serve"
        assert brief.degradations[0].fallback == "quarantined"

        reshed = server.submit(POISON_PAGE, doc_id="retry").result(timeout=60)
        assert not reshed.complete
        assert reshed.degradations[0].stage == "admission"
    finally:
        server.shutdown(timeout=60)
    merged = server.merged_stats()
    assert merged.poison_quarantined == 1
    assert merged.worker_restarts >= 2  # at least the two bisection deaths
    assert merged.requests_shed >= 1


def test_backpressure_rejects_typed_and_resolves_everything(serving_model, transport):
    """A full admission queue rejects with a typed admission brief; nothing
    raises and nothing hangs, whichever transport holds the queue."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport=transport, beam_size=2,
        max_batch=1, max_wait_ms=0.0, max_queue=1, governor=False,
        supervise=False, start=False,
    )
    pages = [
        f"<html><body><p>backpressure page {i}</p><p>the price is {i}</p></body></html>"
        for i in range(6)
    ]
    futures = [server.submit(page, doc_id=f"bp-{i}") for i, page in enumerate(pages)]
    server.pool.start()
    try:
        briefs = [future.result(timeout=30) for future in futures]
    finally:
        server.shutdown(timeout=30)
    merged = server.merged_stats()
    assert merged.queue_rejections >= 1
    assert any(brief.complete for brief in briefs)
    for brief in briefs:
        if not brief.complete:
            assert brief.degradations[0].stage == "admission"
