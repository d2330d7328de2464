"""Acceptance: ``BriefingPipeline.brief_html`` never raises on corrupted pages.

Every page of a synthetic site is truncated mid-transfer or garbled across
tag borders with a seeded corruption; each still yields a ``PartialBrief``
whose degradations name the stage that failed and the fallback taken.
"""

import random

import numpy as np
import pytest

from repro import nn
from repro.core import BriefingPipeline, PartialBrief
from repro.data.synthesizer import SyntheticWebsite
from repro.data.taxonomy import build_taxonomy
from repro.models import BertSumEncoder, make_joint_model
from repro.runtime import RuntimeStats


@pytest.fixture(scope="module")
def website():
    topic = build_taxonomy()[0]
    return SyntheticWebsite("chaos.example", topic, num_pages=6, rng=np.random.default_rng(3))


def _corrupt(html, rng):
    """Truncate ``html`` at a random point or shuffle one of its slices."""
    cut = rng.randrange(1, len(html))
    if rng.random() < 0.5:
        return html[:cut]
    start = rng.randrange(0, cut)
    chunk = list(html[start:cut])
    rng.shuffle(chunk)
    return html[:start] + "".join(chunk) + html[cut:]


def test_garbled_pages_brief_without_raising(website, small_vocab):
    rng = np.random.default_rng(0)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    model = make_joint_model("Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 6, rng)
    stats = RuntimeStats()
    pipeline = BriefingPipeline(model, beam_size=2, stats=stats)

    corruption = random.Random(4)
    corrupted = 0
    for url in website.urls:
        html = website.fetch(url) or ""
        garbled = _corrupt(html, corruption) if html else html
        corrupted += garbled != html
        brief = pipeline.brief_html(garbled)
        assert isinstance(brief, PartialBrief)
        for degradation in brief.degradations:
            assert degradation.stage
            assert degradation.fallback
    assert corrupted > 0
