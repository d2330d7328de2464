"""Worker-count and transport invariance: concurrent briefs match sequential."""

from repro.core import ConcurrentBriefingPipeline


def test_batched_matches_sequential(harness):
    harness.assert_identical(harness.run_batched(), "batched")


def test_one_worker_matches_sequential(harness):
    briefs, stats = harness.run_concurrent(1)
    harness.assert_identical(briefs, "workers=1")
    harness.assert_conserved(stats)


def test_two_workers_match_sequential(harness):
    briefs, stats = harness.run_concurrent(2)
    harness.assert_identical(briefs, "workers=2")
    harness.assert_conserved(stats)


def test_eight_workers_match_sequential(harness):
    briefs, stats = harness.run_concurrent(8)
    harness.assert_identical(briefs, "workers=8")
    harness.assert_conserved(stats)


def test_duplicates_are_served_without_extra_model_work(harness):
    """The stream repeats content; repeats must surface as hits, not misses."""
    unique = len({html for _, html in harness.pages})
    briefs, stats = harness.run_concurrent(2)
    assert stats.cache_misses == unique
    assert stats.cache_hits == len(harness.pages) - unique
    assert stats.queue_rejections == 0
    assert stats.batches_dispatched >= 1


def test_max_batch_does_not_change_outputs(harness):
    """Micro-batch geometry is a throughput knob, never a correctness one."""
    for max_batch in (1, 3, 64):
        briefs, stats = harness.run_concurrent(2, max_batch=max_batch)
        harness.assert_identical(briefs, f"max_batch={max_batch}")
        harness.assert_conserved(stats)


def test_process_transport_matches_sequential(harness):
    """Cross-transport invariance: briefs computed in worker *processes*
    (weights restored from a snapshot, deadlines re-anchored over a pipe)
    are bit-identical to the sequential ground truth, and the conservation
    invariant holds across the process boundary."""
    briefs, stats = harness.run_concurrent(2, transport="process")
    harness.assert_identical(briefs, "transport=process")
    harness.assert_conserved(stats)


def test_transports_agree_under_float32(serving_model, page_stream):
    """Both transports serve one float32 copy of the model — the thread
    workers share it, the snapshot ships it — so a process run reproduces a
    thread run exactly."""
    pages = page_stream[:16]
    by_transport = {}
    for transport in ("thread", "process"):
        server = ConcurrentBriefingPipeline(
            serving_model, num_workers=2, transport=transport, beam_size=2,
            max_batch=8, max_queue=64,
        )
        try:
            by_transport[transport] = server.brief_many(pages)
        finally:
            server.shutdown(timeout=60)
        stats = server.merged_stats()
        assert stats.cache_hits + stats.cache_misses == len(pages)
    for (doc_id, _), thread_brief, process_brief in zip(
        pages, by_transport["thread"], by_transport["process"]
    ):
        assert process_brief.topic == thread_brief.topic, doc_id
        assert process_brief.attributes == thread_brief.attributes, doc_id
        assert process_brief.informative_sentences == (
            thread_brief.informative_sentences
        ), doc_id
        assert process_brief.degradations == thread_brief.degradations, doc_id
