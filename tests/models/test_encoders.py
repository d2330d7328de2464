"""Document encoder tests: shapes, alignment, truncation."""

import numpy as np
import pytest

from repro import nn
from repro.models import BertEncoder, GloveEncoder, truncate_document


def test_glove_encoder_shapes(glove_encoder, doc):
    out = glove_encoder.encode(doc)
    assert out.token_states.shape == (doc.num_tokens, 16)
    assert out.sentence_states.shape == (doc.num_sentences, 16)
    assert len(out.token_sentence_index) == doc.num_tokens


def test_glove_encoder_frozen_by_default(small_vocab, rng, doc):
    enc = GloveEncoder(small_vocab, dim=8, rng=rng)
    assert not enc.embedding.weight.requires_grad


def test_glove_pretrained_vectors_used(small_vocab, rng, doc):
    vectors = np.ones((len(small_vocab), 8))
    enc = GloveEncoder(small_vocab, dim=8, rng=rng, pretrained=vectors)
    out = enc.encode(doc)
    assert np.allclose(out.token_states.data, 1.0)


def test_bert_encoder_sentence_means(small_vocab, rng, doc):
    bert = nn.MiniBert(vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2, rng=rng, max_len=256)
    enc = BertEncoder(small_vocab, bert)
    out = enc.encode(doc)
    first_len = len(doc.sentences[0])
    manual_mean = out.token_states.data[:first_len].mean(axis=0)
    assert np.allclose(out.sentence_states.data[0], manual_mean)


def test_bertsum_encoder_uses_cls_positions(bertsum_encoder, doc):
    out = bertsum_encoder.encode(doc)
    assert out.token_states.shape[0] == doc.num_tokens
    assert out.sentence_states.shape[0] == doc.num_sentences
    # Sentence states are [CLS] hidden states, not means of token states.
    first_len = len(doc.sentences[0])
    mean = out.token_states.data[:first_len].mean(axis=0)
    assert not np.allclose(out.sentence_states.data[0], mean)


def test_token_sentence_index_alignment(bertsum_encoder, doc):
    out = bertsum_encoder.encode(doc)
    index = out.token_sentence_index
    offsets = doc.sentence_offsets()
    for s, offset in enumerate(offsets):
        assert index[offset] == s


def test_truncate_document_whole_sentences(doc):
    limit = len(doc.sentences[0]) + len(doc.sentences[1])
    truncated = truncate_document(doc, limit)
    assert truncated.num_tokens <= limit
    assert truncated.num_sentences == 2
    assert all(s.sentence_index < 2 for s in truncated.attributes)


def test_truncate_noop_when_under_limit(doc):
    assert truncate_document(doc, 10_000) is doc


def test_truncate_hard_clip_single_giant_sentence():
    from repro.data import Document

    giant = Document(
        doc_id="g", url="", source="s", topic_id=0, family="f", website="w",
        topic_tokens=("a",), sentences=[["w"] * 100], section_labels=[1],
    )
    truncated = truncate_document(giant, 10)
    assert truncated.num_tokens == 10


def test_gradients_flow_through_bertsum(bertsum_encoder, doc):
    out = bertsum_encoder.encode(doc)
    (out.token_states.sum() + out.sentence_states.sum()).backward()
    assert bertsum_encoder.bert.token_embedding.grad is not None


@pytest.fixture()
def bert_encoder(small_vocab, rng):
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=16, num_layers=1, num_heads=2, rng=rng, max_len=256
    )
    return BertEncoder(small_vocab, bert)


@pytest.mark.parametrize("bucket", ["ragged", "single"])
@pytest.mark.parametrize("name", ["glove_encoder", "bert_encoder", "bertsum_encoder"])
def test_encode_batch_padded_blocks_equal_each_pages_encode(request, small_corpus, name, bucket):
    """A ragged bucket (and a single page) comes back as zero-padded blocks
    whose real rows are each page's own ``encode``."""
    encoder = request.getfixturevalue(name)
    if bucket == "single":
        documents = [small_corpus[3]]
    else:
        documents = [small_corpus[0], truncate_document(small_corpus[5], 30), small_corpus[7],
                     truncate_document(small_corpus[9], 9)]
        assert len({(d.num_tokens, d.num_sentences) for d in documents}) == len(documents)
    with nn.no_grad():
        batch = encoder.encode_batch(documents)
        singles = [encoder.encode(d) for d in documents]
    # The embedding lookup is exact; a padded transformer pass sums over more
    # (zero-weighted) keys, which may move the last bits.
    tolerance = 0.0 if name == "glove_encoder" else 1e-12
    width, count = max(d.num_tokens for d in documents), max(d.num_sentences for d in documents)
    assert batch.token_states.shape == (len(documents), width, encoder.dim)
    assert batch.sentence_states.shape == (len(documents), count, encoder.dim)
    assert batch.token_sentence_index.shape == batch.token_mask.shape == (len(documents), width)
    assert batch.sentence_mask.shape == (len(documents), count)
    for row, (document, single) in enumerate(zip(documents, singles)):
        length, sentences = document.num_tokens, document.num_sentences
        assert batch.token_mask[row].tolist() == [True] * length + [False] * (width - length)
        assert batch.sentence_mask[row].tolist() == [True] * sentences + [False] * (count - sentences)
        np.testing.assert_allclose(
            batch.token_states.data[row, :length], single.token_states.data, rtol=0, atol=tolerance
        )
        np.testing.assert_allclose(
            batch.sentence_states.data[row, :sentences], single.sentence_states.data, rtol=0, atol=tolerance
        )
        np.testing.assert_array_equal(batch.token_sentence_index[row, :length], single.token_sentence_index)
        assert (batch.token_states.data[row, length:] == 0.0).all()
        assert (batch.sentence_states.data[row, sentences:] == 0.0).all()
        assert (batch.token_sentence_index[row, length:] == 0).all()
