"""Batched inference equals per-document inference, head by head.

The batched engine pads documents into ``(B, T, d)`` passes; these tests pin
the acceptance criterion that the *decoded* outputs — topic tokens, attribute
spans, section decisions — are identical to the sequential ``predict_*``
methods, in input order, across bucket boundaries, and under float32.
"""

import copy

import numpy as np
import pytest

from repro.core import BatchedBriefingPipeline
from repro.models import (
    JOINT_BASELINE_CONFIGS,
    AttributeExtractor,
    BertSumEncoder,
    BriefPrediction,
    JointWBModel,
    SectionPredictor,
    TopicGenerator,
    make_joint_model,
)


def _assert_scored_equal(left, right):
    """Spans must match exactly; confidence floats to 1e-10 (GEMM blocking)."""
    assert [attribute for attribute, _ in left] == [attribute for attribute, _ in right]
    np.testing.assert_allclose(
        [score for _, score in left], [score for _, score in right], atol=1e-10
    )


@pytest.fixture()
def joint_model(bertsum_encoder, small_vocab, rng):
    return make_joint_model("Joint-WB", bertsum_encoder, small_vocab, hidden_dim=12, rng=rng)


@pytest.fixture(scope="module")
def docs(small_corpus):
    return list(small_corpus)[:6]


@pytest.mark.parametrize("batch_size", [1, 3, 6])
@pytest.mark.parametrize("name", list(JOINT_BASELINE_CONFIGS))
def test_joint_predict_batch_matches_sequential(
    bertsum_encoder, small_vocab, rng, docs, name, batch_size
):
    """Every exchange config, in full, ragged and single-page buckets."""
    model = make_joint_model(name, bertsum_encoder, small_vocab, hidden_dim=12, rng=rng)
    predictions = model.predict_batch(docs, beam_size=2, batch_size=batch_size)
    assert len(predictions) == len(docs)
    for document, prediction in zip(docs, predictions):
        assert isinstance(prediction, BriefPrediction)
        assert prediction.topic == model.predict_topic(document, beam_size=2)
        scored = model.predict_attributes_scored(document)
        _assert_scored_equal(prediction.scored_attributes, scored)
        assert prediction.attributes == [attribute for attribute, _ in scored]
        np.testing.assert_array_equal(prediction.sections, model.predict_sections(document))


#: The methods the benchmark's layer clock wraps, each through its owner's
#: own ``__dict__`` (``perfbench/layers.py``).
_TIMED = (
    (BatchedBriefingPipeline, "brief_many"),
    (JointWBModel, "predict_batch"),
    (BertSumEncoder, "encode_batch"),
    (AttributeExtractor, "hidden_batch"),
    (SectionPredictor, "probabilities"),
    (TopicGenerator, "encode_batch"),
    (TopicGenerator, "greedy_hidden_batch"),
    (TopicGenerator, "generate_batch"),
)


def test_joint_predict_batch_runs_the_exchange_once_per_bucket(joint_model, docs, monkeypatch):
    """Six pages in two buckets: the encoder, both Bi-LSTM heads, the section
    layer, the decode buffers, the beam, the greedy pass and the extractor's
    exchange each run twice, once per padded bucket, not once per page."""
    for owner, name in _TIMED:
        assert name in owner.__dict__, (owner.__name__, name)
    counted_methods = list(_TIMED[2:]) + [
        (JointWBModel, "_update_extractor_hidden"),
        (TopicGenerator, "_batched_decode_buffers"),
    ]
    calls = {}
    for owner, name in counted_methods:
        key = f"{owner.__name__}.{name}"
        calls[key] = 0
        original = owner.__dict__[name]

        def counted(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    joint_model.predict_batch(docs, beam_size=2, batch_size=3)
    assert calls == {key: 2 for key in calls}


def test_joint_predict_batch_odd_batch_sizes(joint_model, docs):
    """Results stay in input order whatever the bucketing does."""
    baseline = joint_model.predict_batch(docs, beam_size=2, batch_size=len(docs))
    for batch_size in (1, 4):
        again = joint_model.predict_batch(docs, beam_size=2, batch_size=batch_size)
        for left, right in zip(baseline, again):
            assert left.topic == right.topic
            _assert_scored_equal(left.scored_attributes, right.scored_attributes)
            np.testing.assert_array_equal(left.sections, right.sections)


def test_joint_predict_batch_empty(joint_model):
    assert joint_model.predict_batch([]) == []


@pytest.mark.parametrize("name", ["Joint-WB", "Pip-Extractor+Pip-Generator"])
def test_joint_predict_batch_float32_same_decisions(bertsum_encoder, small_vocab, rng, docs, name):
    """A float32 copy agrees with the float64 model on decoded outputs."""
    model = make_joint_model(name, bertsum_encoder, small_vocab, hidden_dim=12, rng=rng)
    baseline = model.predict_batch(docs[:4], beam_size=2, batch_size=2)
    clone = copy.deepcopy(model).astype(np.float32)
    low_precision = clone.predict_batch(docs[:4], beam_size=2, batch_size=2)
    for left, right in zip(baseline, low_precision):
        assert left.topic == right.topic
        assert left.attributes == right.attributes  # identical extracted spans
        np.testing.assert_array_equal(left.sections, right.sections)
