"""Batched serving pipeline: cache semantics, equivalence, fault behaviour."""

import random

import numpy as np
import pytest

from repro import nn
from repro.core import BatchedBriefingPipeline, BriefCache, BriefingPipeline, document_from_raw_html
from repro.data import synthesize_serving_corpus
from repro.models import BertSumEncoder, make_joint_model, truncate_document
from repro.runtime import RuntimeStats


@pytest.fixture(scope="module")
def model(small_corpus, small_vocab):
    rng = np.random.default_rng(0)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    return make_joint_model("Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 6, rng)


PAGES = [
    "<html><body><p>welcome to our books pages</p><p>the price is 42</p></body></html>",
    "<html><body><p>premium guide to online shopping</p><p>brand acme ships today</p></body></html>",
    "<html><body><p>classic edition for shoes</p><p>availability in stock</p></body></html>",
]
EMPTY_PAGE = "<html><body><script>x=1</script></body></html>"


# ----------------------------------------------------------------------
# BriefCache unit behaviour
# ----------------------------------------------------------------------
def test_cache_eviction_is_lru_order():
    cache = BriefCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a → b is now least recent
    cache.put("c", 3)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2


def test_cache_put_refreshes_recency():
    cache = BriefCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh via put → b evicts next
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert cache.get("b") is None


def test_cache_hash_collisions_never_serve_wrong_content():
    cache = BriefCache(4, hash_fn=lambda content: "same-bucket")
    cache.put("page one", "brief one")
    assert cache.get("page two") is None  # same hash, different content → miss
    cache.put("page two", "brief two")
    # Last writer owns the bucket; the displaced entry misses, never cross-serves.
    assert cache.get("page two") == "brief two"
    assert cache.get("page one") is None


def test_cache_zero_capacity_disables():
    cache = BriefCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0
    with pytest.raises(ValueError):
        BriefCache(-1)


def test_cache_counts_hits_and_misses():
    cache = BriefCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.get("a")
    assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# brief_many: equivalence and RuntimeStats counters
# ----------------------------------------------------------------------
def test_brief_many_matches_sequential(model):
    sequential = BriefingPipeline(model, beam_size=2)
    expected = [sequential.brief_html(html, doc_id=f"p{i}") for i, html in enumerate(PAGES)]
    batched = BatchedBriefingPipeline(model, beam_size=2).brief_many(PAGES)
    for left, right in zip(expected, batched):
        assert left.topic == right.topic
        assert left.attributes == right.attributes
        assert left.informative_sentences == right.informative_sentences
        assert left.degradations == right.degradations


def test_over_long_pages_are_clipped_like_the_experiments(small_vocab):
    """A page longer than the encoder's ``max_len`` is briefed on its clipped
    document (whole sentences, one [CLS] each), not degraded to an empty brief."""
    rng = np.random.default_rng(0)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=64
    )
    short = make_joint_model("Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 6, rng)
    pages = synthesize_serving_corpus(8, seed=7, duplicate_fraction=0.0)
    documents = [document_from_raw_html(html, doc_id) for doc_id, html in pages]
    assert sum(d.num_tokens + d.num_sentences > 64 for d in documents) >= 6
    clipped = [truncate_document(d, 64, sentence_overhead=1) for d in documents]
    assert all(d.num_tokens + d.num_sentences <= 64 for d in clipped)

    sequential = BriefingPipeline(short, beam_size=2)
    expected = [sequential.brief_document(document) for document in clipped]
    served = {
        "sequential": [sequential.brief_html(html, doc_id=doc_id) for doc_id, html in pages],
        "batched": BatchedBriefingPipeline(short, beam_size=2).brief_many(pages),
    }
    for label, briefs in served.items():
        for want, got in zip(expected, briefs):
            assert got.degradations == [], label
            assert got.topic == want.topic, label
            assert got.attributes == want.attributes, label
            assert got.informative_sentences == want.informative_sentences, label


def test_brief_many_counters_in_runtime_stats(model):
    stats = RuntimeStats()
    pipeline = BatchedBriefingPipeline(model, beam_size=2, stats=stats)
    pipeline.brief_many(PAGES)
    assert stats.cache_hits == 0
    assert stats.cache_misses == len(PAGES)
    pipeline.brief_many(PAGES)
    assert stats.cache_hits == len(PAGES)
    assert stats.cache_misses == len(PAGES)
    # Counters merge like the rest of RuntimeStats.
    merged = stats.merge(RuntimeStats(cache_hits=1))
    assert merged.cache_hits == stats.cache_hits + 1
    assert "cache_hits" in stats.as_dict()


def test_duplicate_pages_coalesce_in_flight(model):
    stats = RuntimeStats()
    pipeline = BatchedBriefingPipeline(model, beam_size=2, stats=stats)
    briefs = pipeline.brief_many([PAGES[0], PAGES[0], PAGES[0]])
    assert stats.cache_misses == 1
    assert stats.cache_hits == 2
    assert briefs[0].topic == briefs[1].topic == briefs[2].topic


def test_cached_briefs_are_defensive_copies(model):
    pipeline = BatchedBriefingPipeline(model, beam_size=2)
    first = pipeline.brief_many([PAGES[0]])[0]
    first.attributes.append("tampered")
    second = pipeline.brief_many([PAGES[0]])[0]
    assert "tampered" not in second.attributes


def test_unparseable_pages_degrade_and_never_cache(model):
    stats = RuntimeStats()
    pipeline = BatchedBriefingPipeline(model, beam_size=2, stats=stats)
    briefs = pipeline.brief_many([EMPTY_PAGE, PAGES[0]])
    assert not briefs[0].complete
    assert briefs[0].topic == [] and briefs[0].attributes == []
    assert briefs[1].complete
    # Re-request: the degraded page misses again, the complete one hits.
    pipeline.brief_many([EMPTY_PAGE, PAGES[0]])
    assert stats.cache_hits == 1
    assert stats.cache_misses == 3
    assert EMPTY_PAGE not in pipeline.brief_cache


def test_chaos_corrupted_pages_never_cached(model):
    """Truncated pages that degrade are not cached; complete briefs are."""
    # Seeded cut points: the 8 truncations yield both broken and intact pages.
    rng = random.Random(5)
    corrupted = [PAGES[0][: rng.randrange(len(PAGES[0]) + 1)] for _ in range(8)]
    pipeline = BatchedBriefingPipeline(model, beam_size=2)
    briefs = pipeline.brief_many(corrupted)
    degraded = [b for b in briefs if not b.complete]
    assert degraded, "expected at least one truncation to break the page"
    for html, brief in zip(corrupted, briefs):
        assert (html in pipeline.brief_cache) == brief.complete


def test_model_failure_falls_back_to_sequential_ladder(model):
    class _FailingBatchModel:
        def __init__(self, inner):
            self._inner = inner

        def predict_batch(self, *args, **kwargs):
            raise RuntimeError("injected batch failure")

        def __getattr__(self, name):
            return getattr(self._inner, name)

    stats = RuntimeStats()
    pipeline = BatchedBriefingPipeline(_FailingBatchModel(model), beam_size=2, stats=stats)
    briefs = pipeline.brief_many(PAGES)
    assert stats.model_failures == 1
    expected = [BriefingPipeline(model, beam_size=2).brief_html(h) for h in PAGES]
    for left, right in zip(expected, briefs):
        assert left.topic == right.topic
        assert left.attributes == right.attributes


def test_float32_serving_same_briefs(model):
    """Serving briefs with a float32 copy; the float64 model is the spec."""
    baseline = BriefingPipeline(model, beam_size=2)
    pipeline = BatchedBriefingPipeline(model, beam_size=2)
    assert all(p.data.dtype == np.float32 for p in pipeline.model.parameters())
    assert all(p.data.dtype == np.float64 for p in model.parameters())
    low_precision = pipeline.brief_many(PAGES)
    for left, right in zip([baseline.brief_html(h) for h in PAGES], low_precision):
        assert left.topic == right.topic
        assert left.attributes == right.attributes
        assert left.informative_sentences == right.informative_sentences
