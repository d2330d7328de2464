"""Cross-precision gate on a trained model: float32 serving == float64 spec.

``test_float32_parity.py`` sweeps random weights.  Trained weights are where
float32 rounding could flip a decision (sharper softmaxes, larger logits), so
this gate trains a small Joint-WB for a few seconds and briefs pages it never
saw through the serving pipeline, which casts a float32 copy, and through the
sequential float64 :class:`BriefingPipeline`, the executable spec.  Serving
decodes with the batched beam host pruned to the top two hypotheses; the spec
runs the unpruned scalar ``beam_search``, so the paper's width 200 checks the
pruning on trained, peaked weights.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import BatchedBriefingPipeline, BriefingPipeline, TrainConfig, Trainer
from repro.data import SyntheticWebsite, Vocabulary, build_jasmine_corpus, build_taxonomy
from repro.models import BertSumEncoder, make_joint_model

NUM_TOPICS = 3
# Pages between briefed pages, per beam width.  The scalar spec steps one
# hypothesis per call, about 0.7 s a page at width 200, so that width briefs
# 6 of the 48 pages (two per topic).
PAGE_STRIDE = {4: 1, 200: 8}


def held_out_pages(sites_per_topic=4, pages_per_site=4, seed=99):
    """Content pages of the trained topics from websites training never saw."""
    rng = np.random.default_rng(seed)
    pages = []
    for topic in build_taxonomy()[:NUM_TOPICS]:
        for site in range(sites_per_topic):
            website = SyntheticWebsite(f"held-out-{topic.topic_id}-{site}.example", topic,
                                       num_pages=pages_per_site, rng=rng)
            pages += [(url, website.fetch(url)) for url in website.urls if "/page-" in url]
    return pages


@pytest.fixture(scope="module")
def trained_model():
    corpus = build_jasmine_corpus(num_topics=NUM_TOPICS, pages_per_site=4, seed=21)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(21)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=24, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=16, rng=rng
    )
    Trainer(model, TrainConfig(epochs=6, learning_rate=1e-2, batch_size=2, seed=21)).train(
        list(corpus)
    )
    return model


@pytest.mark.parametrize("beam_size", sorted(PAGE_STRIDE))
def test_float32_serving_briefs_equal_float64_spec_on_trained_model(trained_model, beam_size):
    pages = held_out_pages()[:: PAGE_STRIDE[beam_size]]
    pipeline = BatchedBriefingPipeline(trained_model, beam_size=beam_size, batch_size=8)
    assert all(p.data.dtype == np.float32 for p in pipeline.model.parameters())
    assert all(p.data.dtype == np.float64 for p in trained_model.parameters())
    served = pipeline.brief_many(pages)
    spec = BriefingPipeline(trained_model, beam_size=beam_size)
    for (doc_id, html), brief in zip(pages, served):
        want = spec.brief_html(html, doc_id=doc_id)
        assert brief.complete and want.complete, doc_id
        assert brief.topic == want.topic, doc_id
        assert brief.attributes == want.attributes, doc_id
        assert brief.informative_sentences == want.informative_sentences, doc_id
    # The gate means something only if the model says something, and not
    # the same thing for every page.
    assert sum(1 for brief in served if brief.topic) >= len(pages) // 2
    assert len({tuple(brief.topic) for brief in served}) >= 2
    assert any(brief.attributes for brief in served)
