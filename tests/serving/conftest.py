"""Fixtures for the concurrent-serving suite: shared model, page stream, harness."""

import numpy as np
import pytest

from repro import nn
from repro.core import BatchedBriefingPipeline, BriefingPipeline, ConcurrentBriefingPipeline
from repro.data import synthesize_serving_corpus
from repro.models import BertSumEncoder, make_joint_model


@pytest.fixture(scope="session")
def serving_model(small_corpus, small_vocab):
    rng = np.random.default_rng(0)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    return make_joint_model("Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 6, rng)


@pytest.fixture(scope="session")
def page_stream():
    """The 64-page request stream (with duplicates) every serving path replays."""
    return synthesize_serving_corpus(64, seed=11)


class DeterminismHarness:
    """Replays one page stream through every serving path and compares outputs.

    The sequential :class:`BriefingPipeline` run is the ground truth; the
    harness asserts that the batched and concurrent paths produce briefs
    bit-identical to it (topic tokens, attributes, informative sentence
    indices, degradations), and that every concurrent run conserves
    ``cache_hits + cache_misses == len(pages)`` — each request is accounted
    for exactly once, whichever thread served it.
    """

    def __init__(self, model, pages, beam_size=2):
        self.model = model
        self.pages = pages
        self.beam_size = beam_size
        self._expected = None

    @property
    def expected(self):
        """Sequential ground-truth briefs, computed once per session."""
        if self._expected is None:
            pipeline = BriefingPipeline(self.model, beam_size=self.beam_size)
            self._expected = [
                pipeline.brief_html(html, doc_id=doc_id) for doc_id, html in self.pages
            ]
        return self._expected

    def run_batched(self, batch_size=8):
        """The stream through single-threaded ``brief_many``; returns briefs."""
        pipeline = BatchedBriefingPipeline(
            self.model, beam_size=self.beam_size, batch_size=batch_size
        )
        return pipeline.brief_many(self.pages)

    def run_concurrent(self, workers, max_batch=8, **kwargs):
        """The stream through a fresh N-worker server; ``(briefs, merged_stats)``."""
        server = ConcurrentBriefingPipeline(
            self.model,
            num_workers=workers,
            beam_size=self.beam_size,
            max_batch=max_batch,
            max_queue=max(2 * len(self.pages), 64),
            **kwargs,
        )
        try:
            briefs = server.brief_many(self.pages)
        finally:
            server.shutdown(timeout=30)
        return briefs, server.merged_stats()

    def assert_identical(self, briefs, label):
        assert len(briefs) == len(self.expected), f"{label}: wrong brief count"
        for (doc_id, _), want, got in zip(self.pages, self.expected, briefs):
            assert got.topic == want.topic, f"{label}:{doc_id} topic diverged"
            assert got.attributes == want.attributes, f"{label}:{doc_id} attributes diverged"
            assert got.informative_sentences == want.informative_sentences, (
                f"{label}:{doc_id} informative sentences diverged"
            )
            assert got.degradations == want.degradations, f"{label}:{doc_id} degraded"

    def assert_conserved(self, stats):
        total = stats.cache_hits + stats.cache_misses
        assert total == len(self.pages), (
            f"cache accounting leaked: {stats.cache_hits} hits + "
            f"{stats.cache_misses} misses != {len(self.pages)} requests"
        )


@pytest.fixture(scope="session")
def harness(serving_model, page_stream):
    return DeterminismHarness(serving_model, page_stream)
