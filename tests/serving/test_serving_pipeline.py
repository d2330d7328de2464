"""ConcurrentBriefingPipeline behaviour: backpressure, drains, observability."""

import threading

from repro.core import ConcurrentBriefingPipeline

PAGE_A = "<html><body><p>first backpressure page</p><p>the price is 1</p></body></html>"
PAGE_B = "<html><body><p>second backpressure page</p><p>the price is 2</p></body></html>"
PAGE_C = "<html><body><p>third backpressure page</p><p>the price is 3</p></body></html>"
PAGE_D = "<html><body><p>fourth backpressure page</p><p>the price is 4</p></body></html>"


class GatedModel:
    """Delegating wrapper whose first prediction blocks until released."""

    def __init__(self, model):
        self._model = model
        self.started = threading.Event()
        self.release = threading.Event()

    def predict_batch(self, documents, beam_size=4, batch_size=8):
        self.started.set()
        assert self.release.wait(timeout=30), "gate never released"
        return self._model.predict_batch(documents, beam_size=beam_size, batch_size=batch_size)

    def __getattr__(self, name):
        return getattr(self._model, name)


def test_queue_full_degrades_instead_of_raising(serving_model):
    """A rejected request resolves to a degraded brief — the caller never sees
    an exception, matching the never-raises contract of the serving stack."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_batch=1, max_queue=1
    )
    try:
        future_a = server.submit(PAGE_A, doc_id="a")
        assert gated.started.wait(timeout=30)  # the worker now holds page A
        future_b = server.submit(PAGE_B, doc_id="b")  # fills the queue
        future_c = server.submit(PAGE_C, doc_id="c")  # bounces off it

        rejected = future_c.result(timeout=30)
        assert not rejected.complete
        assert rejected.degradations[0].stage == "admission"
        assert rejected.degradations[0].fallback == "rejected"
    finally:
        gated.release.set()
        server.shutdown(timeout=30)

    assert future_a.result(timeout=30).complete
    assert future_b.result(timeout=30).complete
    merged = server.merged_stats()
    assert merged.queue_rejections == 1
    assert merged.requests_shed == 0
    assert merged.cache_hits + merged.cache_misses == 2  # the two served pages


def test_cache_hit_is_served_while_the_queue_is_full(serving_model):
    """A full queue bounces a cold page, yet a page already in the front
    cache still comes back complete: hits never touch the queue."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_batch=1, max_queue=1
    )
    try:
        gated.release.set()  # let the warm-up through, then close the gate
        assert server.submit(PAGE_A, doc_id="warm").result(timeout=30).complete
        gated.started.clear()
        gated.release.clear()

        blocker = server.submit(PAGE_B, doc_id="blocker")
        assert gated.started.wait(timeout=30)  # the worker now holds page B
        queued = server.submit(PAGE_C, doc_id="queued")  # fills the queue
        cold = server.submit(PAGE_D, doc_id="cold").result(timeout=30)
        assert not cold.complete
        assert cold.degradations[0].stage == "admission"
        assert cold.degradations[0].fallback == "rejected"
        assert server.submit(PAGE_A, doc_id="hot").result(timeout=30).complete
    finally:
        gated.release.set()
        server.shutdown(timeout=30)

    assert blocker.result(timeout=30).complete
    assert queued.result(timeout=30).complete
    merged = server.merged_stats()
    assert merged.queue_rejections == 1
    assert merged.requests_shed == 0


def test_shutdown_drains_admitted_work(serving_model):
    """Close while requests are still queued: every admitted future resolves."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_batch=1, max_queue=16
    )
    futures = [
        server.submit(html, doc_id=doc_id)
        for doc_id, html in (("a", PAGE_A), ("b", PAGE_B), ("c", PAGE_C))
    ]
    assert gated.started.wait(timeout=30)  # one in flight, two queued
    server.scheduler.close()  # stop admission while the queue is non-empty
    assert server.scheduler.closed
    gated.release.set()
    server.shutdown(timeout=30)

    briefs = [future.result(timeout=30) for future in futures]
    assert all(brief.complete for brief in briefs)
    merged = server.merged_stats()
    assert merged.cache_hits + merged.cache_misses == 3


def test_submit_after_shutdown_degrades(serving_model):
    server = ConcurrentBriefingPipeline(serving_model, num_workers=1, beam_size=2)
    server.shutdown(timeout=30)
    brief = server.submit(PAGE_A, doc_id="late").result(timeout=30)
    assert not brief.complete
    assert brief.degradations[0].stage == "admission"
    assert server.merged_stats().queue_rejections == 1


def test_front_door_cache_hit_skips_the_queue(serving_model):
    server = ConcurrentBriefingPipeline(serving_model, num_workers=1, beam_size=2)
    try:
        first = server.brief_html(PAGE_A, doc_id="a")
        second = server.brief_html(PAGE_A, doc_id="a-again")
    finally:
        server.shutdown(timeout=30)
    assert first.topic == second.topic
    merged = server.merged_stats()
    assert (merged.cache_hits, merged.cache_misses) == (1, 1)


def test_context_manager_shuts_down(serving_model):
    with ConcurrentBriefingPipeline(serving_model, num_workers=2, beam_size=2) as server:
        briefs = server.brief_many([PAGE_A, PAGE_B])
    assert all(brief.complete for brief in briefs)
    assert server.scheduler.closed


def test_observability_merges_across_workers(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, beam_size=2, observe=True
    )
    try:
        server.brief_many([PAGE_A, PAGE_B, PAGE_C, PAGE_A])
    finally:
        server.shutdown(timeout=30)

    snapshot = server.metrics_snapshot()
    assert "serving_requests_total" in snapshot.names
    assert "briefing_stage_seconds" in snapshot.names
    admitted = snapshot.value("serving_requests_total", outcome="admitted") or 0
    coalesced = snapshot.value("serving_requests_total", outcome="coalesced") or 0
    cache_hits = snapshot.value("serving_requests_total", outcome="cache_hit") or 0
    assert admitted + coalesced + cache_hits == 4  # every request has an outcome

    spans = server.trace_spans()
    assert spans, "worker tracers produced no spans"
    assert all("worker" in span.attributes for span in spans)
    # Admission spans come from the front door; the rest from the workers.
    worker_ids = {span.attributes["worker"] for span in spans} - {"frontend"}
    assert worker_ids <= {0, 1}


def test_brief_many_accepts_bare_html_strings(serving_model):
    server = ConcurrentBriefingPipeline(serving_model, num_workers=1, beam_size=2)
    try:
        briefs = server.brief_many([PAGE_A, ("doc-b", PAGE_B)])
    finally:
        server.shutdown(timeout=30)
    assert len(briefs) == 2
    assert all(brief.complete for brief in briefs)
