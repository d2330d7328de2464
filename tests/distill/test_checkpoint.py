"""StudentCheckpoint: distilled students must round-trip through pickling.

Regression suite for the distill -> serving hand-off: a student fresh out of
the distillers carries armed dropout and stale gradient arrays; the
checkpoint freezes it so the pickled blob decodes bit-identically to the
in-process model, and the ModelSnapshot built from it to the float32 copy
serving runs.  The gradients never reach a pickle at all: a Parameter
pickles without its gradient.
"""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.distill import DistillConfig, StudentCheckpoint, TriDistiller


@pytest.fixture()
def distilled_student(corpus, vocab, joint_teacher, bank):
    """A student actually trained by TriDistiller (live training object)."""
    from repro.models import BertSumEncoder, make_joint_model

    rng = np.random.default_rng(5)
    bert = nn.MiniBert(
        vocab_size=len(vocab), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    student = make_joint_model("Joint-WB", BertSumEncoder(vocab, bert), vocab, 6, rng)
    distiller = TriDistiller(
        joint_teacher, student, bank, DistillConfig(epochs=1, learning_rate=5e-3, seed=0)
    )
    distiller.train(corpus.documents[:6], epochs=1)
    return student


def _params(model):
    return list(model.parameters())


class TestFreeze:
    def test_checkpoint_puts_student_in_eval_mode(self, distilled_student):
        distilled_student.train()
        assert distilled_student.training
        StudentCheckpoint(distilled_student)
        assert not distilled_student.training

    def test_checkpoint_drops_gradients(self, distilled_student):
        # The distiller leaves the last backward pass's gradients in place.
        assert any(p.grad is not None for p in _params(distilled_student))
        StudentCheckpoint(distilled_student)
        assert all(p.grad is None for p in _params(distilled_student))

    def test_gradients_never_reach_the_blob(self, distilled_student):
        assert any(p.grad is not None for p in _params(distilled_student))
        with_grads = pickle.dumps(distilled_student)
        distilled_student.zero_grad()
        assert pickle.dumps(distilled_student) == with_grads


class TestPickleRoundTrip:
    def test_bytes_round_trip_preserves_decodes(self, distilled_student, corpus):
        checkpoint = StudentCheckpoint(distilled_student, metadata={"distiller": "tri"})
        clone = StudentCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.metadata == {"distiller": "tri"}
        assert not clone.model.training
        docs = corpus.documents[:4]
        want = distilled_student.predict_batch(docs, beam_size=2)
        got = clone.model.predict_batch(docs, beam_size=2)
        for left, right in zip(want, got):
            assert left.topic == right.topic
            assert left.attributes == right.attributes
            assert not (left.sections != right.sections).any()

    def test_from_bytes_rejects_foreign_blobs(self):
        with pytest.raises(TypeError):
            StudentCheckpoint.from_bytes(pickle.dumps({"not": "a checkpoint"}))

    def test_snapshot_round_trip_is_bit_identical(self, distilled_student, corpus):
        checkpoint = StudentCheckpoint(distilled_student)
        assert checkpoint.verify_roundtrip(corpus.documents[:4], beam_size=2)

    def test_snapshot_model_arrives_frozen(self, distilled_student):
        checkpoint = StudentCheckpoint(distilled_student)
        restored = checkpoint.to_snapshot().restore()
        assert not restored.training
        assert all(p.grad is None for p in _params(restored))

