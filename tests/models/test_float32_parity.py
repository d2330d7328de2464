"""Padded batched forward == scalar forward under float32.

Float32 serving runs everything at float32, where GEMM blocking reorders
sums with visibly larger drift than float64.  The documented tolerance
contract (ARCHITECTURE.md, "Float32 tolerance contract"): decoded decisions
— topic tokens, attribute spans, section picks — are **identical** between
the padded batched engine and the per-document scalar loops; attribute
confidence floats agree to 1e-5.  This is a property-style sweep: several
seeds × batch sizes × all three heads, on float32 copies of the model
(``Module.astype``), whose weights carry the precision into both sides.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import BertSumEncoder, make_joint_model

#: float32 batched-vs-scalar confidence tolerance (documented contract).
SCORE_ATOL = 1e-5


def _build_model(small_vocab, seed):
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2,
        rng=rng, max_len=256,
    )
    return make_joint_model(
        "Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 12, rng
    )


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("batch_size", [1, 3, 5])
def test_all_three_heads_agree_batched_vs_scalar_under_float32(
    small_corpus, small_vocab, seed, batch_size
):
    model = _build_model(small_vocab, seed).astype(np.float32)
    docs = list(small_corpus)[: batch_size + 2]  # force a ragged final bucket
    batched = model.predict_batch(docs, beam_size=2, batch_size=batch_size)
    for document, prediction in zip(docs, batched):
        # Generation head: beam-searched topic tokens are discrete — the
        # batched engine must pick the same sequence.
        assert prediction.topic == model.predict_topic(document, beam_size=2)
        # Extraction head: same spans; confidences within the float32
        # padded-GEMM tolerance.
        scored = model.predict_attributes_scored(document)
        assert [a for a, _ in prediction.scored_attributes] == [a for a, _ in scored]
        np.testing.assert_allclose(
            [s for _, s in prediction.scored_attributes],
            [s for _, s in scored],
            atol=SCORE_ATOL,
        )
        # Section head: binary keep/drop decisions are identical.
        np.testing.assert_array_equal(
            prediction.sections, model.predict_sections(document)
        )


def test_float32_parity_holds_for_float32_weights(small_corpus, small_vocab):
    """The same batched-vs-scalar contract holds for a model cast in place
    (``Module.astype``) at another seed."""
    clone = _build_model(small_vocab, seed=3).astype(np.float32)
    docs = list(small_corpus)[:4]
    batched = clone.predict_batch(docs, beam_size=2, batch_size=2)
    for document, prediction in zip(docs, batched):
        assert prediction.topic == clone.predict_topic(document, beam_size=2)
        np.testing.assert_array_equal(
            prediction.sections, clone.predict_sections(document)
        )


def test_float32_weights_run_float32_end_to_end(small_corpus, small_vocab, monkeypatch):
    """No dtype switch is needed: every tensor a float32 model creates while
    briefing — batched or per head — is float32.  A Python scalar or a
    zeros block of the default dtype would upcast everything after it."""
    model = _build_model(small_vocab, seed=5).astype(np.float32)
    docs = list(small_corpus)[:3]
    created = []
    original = nn.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(self.data.dtype)

    monkeypatch.setattr(nn.Tensor, "__init__", recording_init)
    model.predict_batch(docs, beam_size=2, batch_size=2)
    for document in docs:
        model.predict_topic(document, beam_size=2)
        model.predict_attributes_scored(document)
        model.predict_sections(document)
    assert created and set(created) == {np.dtype(np.float32)}
