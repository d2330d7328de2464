"""Briefing a page leaves no cyclic garbage.

Each page's DOM, rendered segments and tokens must be freed by reference
counting as soon as the caller drops them.  Garbage that only the cyclic
collector can free makes every briefed page pay for collector passes over
the whole heap, and generation-2 passes pause a serving process for tens of
milliseconds.  With the collector disabled, ``gc.collect()`` after a run of
fresh pages must find nothing to free.
"""

import gc
import zlib

import numpy as np
import pytest

from repro import nn
from repro.core import BatchedBriefingPipeline, BriefingPipeline, ConcurrentBriefingPipeline
from repro.data.synthesizer import SyntheticWebsite, document_from_html
from repro.data.taxonomy import build_taxonomy
from repro.models import BertSumEncoder, make_joint_model

NUM_PAGES = 16


@pytest.fixture(scope="module")
def model(small_vocab):
    rng = np.random.default_rng(0)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=8, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    return make_joint_model("Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 4, rng)


def _fresh_pages(tag, count=NUM_PAGES + 1):
    """``count`` content pages, distinct per ``tag``, with their topic."""
    topic = build_taxonomy()[3]
    rng = np.random.default_rng(zlib.crc32(tag.encode()))
    pages = []
    index = 0
    while len(pages) < count:
        website = SyntheticWebsite(f"{tag}-{index}.example", topic, num_pages=8, rng=rng)
        pages.extend(
            (f"{tag}-{index}{url}", website.fetch(url)) for url in website.urls if "/page-" in url
        )
        index += 1
    return pages[:count], topic


def _unreachable_after(brief_one, pages):
    """Objects only the cyclic collector frees, after briefing ``pages``.

    The first page warms lazy state; the rest are briefed with the
    collector disabled.  The results stay referenced, so they never count.
    """
    kept = [brief_one(pages[0])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        kept.extend(brief_one(page) for page in pages[1:])
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_batched_pipeline_leaves_no_cycles(model):
    pipeline = BatchedBriefingPipeline(model, beam_size=2, batch_size=4)
    pages, _ = _fresh_pages("batched")
    assert _unreachable_after(lambda page: pipeline.brief_many([page]), pages) == 0


def test_sequential_pipeline_leaves_no_cycles(model):
    pipeline = BriefingPipeline(model, beam_size=2)
    pages, _ = _fresh_pages("sequential")
    assert _unreachable_after(lambda page: pipeline.brief_html(page[1], doc_id=page[0]), pages) == 0


def test_thread_transport_leaves_no_cycles(model):
    server = ConcurrentBriefingPipeline(model, num_workers=1, beam_size=2, transport="thread")
    try:
        pages, _ = _fresh_pages("thread")
        assert _unreachable_after(lambda page: server.brief_many([page]), pages) == 0
    finally:
        server.shutdown(timeout=30)


def test_corpus_builder_leaves_no_cycles():
    pages, topic = _fresh_pages("corpus")

    def build(page):
        doc_id, html = page
        return document_from_html(html, doc_id, doc_id, "jasmine", topic, "site")

    assert _unreachable_after(build, pages) == 0
