"""Quantized models through the serving stack: snapshots and transports.

The quantized fast path only earns its speedup if it rides the *existing*
serving machinery unchanged: a quantized clone must pickle into a
:class:`ModelSnapshot` that advertises its mode without unpickling, restore
bit-identically in a worker, and serve deterministically through the
concurrent pipeline.
"""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import ConcurrentBriefingPipeline
from repro.core.batched import BatchedBriefingPipeline
from repro.core.transport import ModelSnapshot


@pytest.fixture(scope="module")
def quantized_model(serving_model, small_corpus):
    calibration = nn.calibrate(
        serving_model,
        lambda: serving_model.predict_batch(
            small_corpus.documents[:4], beam_size=2, batch_size=4
        ),
    )
    return serving_model.quantize(mode="int8", calibration=calibration)


# ----------------------------------------------------------------------
# ModelSnapshot provenance flags
# ----------------------------------------------------------------------
def test_snapshot_flags_plain_float_model(serving_model):
    snapshot = ModelSnapshot(serving_model)
    assert snapshot.quantized_mode is None
    assert not snapshot.is_quantized


def test_snapshot_flags_quantized_model_without_unpickling(quantized_model):
    snapshot = ModelSnapshot(quantized_model)
    assert snapshot.quantized_mode == "int8"
    assert snapshot.is_quantized
    # The flags themselves survive the snapshot's own pickling (the parent
    # reads them before shipping the blob to worker processes).
    again = pickle.loads(pickle.dumps(snapshot))
    assert again.quantized_mode == "int8"


# ----------------------------------------------------------------------
# Restore determinism
# ----------------------------------------------------------------------
def test_quantized_snapshot_restores_to_identical_briefs(
    quantized_model, small_corpus
):
    docs = small_corpus.documents[:4]
    prior = nn.get_dtype_override()
    try:
        restored, _ = ModelSnapshot(quantized_model).restore()
    finally:
        nn.set_default_dtype(prior)
    assert restored._quantized_mode == "int8"
    with nn.default_dtype(np.float32):
        want = quantized_model.predict_batch(docs, beam_size=2, batch_size=4)
        got = restored.predict_batch(docs, beam_size=2, batch_size=4)
    for left, right in zip(want, got):
        assert left.topic == right.topic
        assert left.attributes == right.attributes
        assert (left.sections == right.sections).all()


# ----------------------------------------------------------------------
# The concurrent pipeline serves the quantized model deterministically
# ----------------------------------------------------------------------
def test_concurrent_serving_matches_batched_pipeline(quantized_model, page_stream):
    pages = page_stream[:24]
    expected = BatchedBriefingPipeline(
        quantized_model, beam_size=2, batch_size=8
    ).brief_many(pages)
    server = ConcurrentBriefingPipeline(
        quantized_model, num_workers=2, beam_size=2, max_batch=8, max_queue=128
    )
    try:
        briefs = server.brief_many(pages)
    finally:
        server.shutdown(timeout=30)
    for want, got in zip(expected, briefs):
        assert want.topic == got.topic
        assert want.attributes == got.attributes


def test_concurrent_serving_accepts_a_quantized_snapshot(quantized_model, page_stream):
    """The front door takes the snapshot the CLI ships, not just live models."""
    pages = page_stream[:12]
    expected = BatchedBriefingPipeline(
        quantized_model, beam_size=2, batch_size=8
    ).brief_many(pages)
    snapshot = ModelSnapshot(quantized_model)
    prior = nn.get_dtype_override()
    server = ConcurrentBriefingPipeline(
        snapshot, num_workers=2, beam_size=2, max_batch=8, max_queue=128
    )
    try:
        briefs = server.brief_many(pages)
    finally:
        server.shutdown(timeout=30)
        nn.set_default_dtype(prior)  # thread transport restores in-process
    assert len(briefs) == len(pages)
    for want, got in zip(expected, briefs):
        assert want.topic == got.topic
        assert want.attributes == got.attributes
