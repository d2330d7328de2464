"""Corpus/Document data-model tests: labels, splits, statistics."""

import numpy as np
import pytest

from repro.data import AttributeSpan, Corpus, Document


def make_doc(doc_id="d0", topic_id=0, n_sentences=3):
    sentences = [[f"w{i}{j}" for j in range(4)] for i in range(n_sentences)]
    return Document(
        doc_id=doc_id,
        url="u",
        source="synthetic",
        topic_id=topic_id,
        family="f",
        website="w",
        topic_tokens=("t1", "t2"),
        sentences=sentences,
        section_labels=[1] + [0] * (n_sentences - 1),
        attributes=[AttributeSpan(0, 1, 3, "x")],
    )


def test_document_validation_catches_mismatches():
    with pytest.raises(ValueError):
        Document(
            doc_id="bad", url="", source="s", topic_id=0, family="f", website="w",
            topic_tokens=(), sentences=[["a"]], section_labels=[0, 1],
        )
    with pytest.raises(ValueError):
        Document(
            doc_id="bad2", url="", source="s", topic_id=0, family="f", website="w",
            topic_tokens=(), sentences=[["a"]], section_labels=[0],
            attributes=[AttributeSpan(0, 0, 5, "x")],
        )


def test_bio_tags_and_flat_tokens():
    doc = make_doc()
    tags = doc.bio_tags()
    assert len(tags) == doc.num_tokens == 12
    assert tags[1] == "B" and tags[2] == "I"
    assert tags[0] == "O" and tags[3] == "O"
    assert doc.attribute_texts() == ["w01 w02"]
    assert doc.flat_tokens()[:4] == ["w00", "w01", "w02", "w03"]


def test_sentence_offsets():
    doc = make_doc()
    assert doc.sentence_offsets() == [0, 4, 8]


def test_corpus_random_split_partitions():
    docs = [make_doc(doc_id=f"d{i}", topic_id=i % 3) for i in range(30)]
    corpus = Corpus(docs, {0: ("a",), 1: ("b",), 2: ("c",)})
    split = corpus.random_split(np.random.default_rng(0))
    total = len(split.train) + len(split.develop) + len(split.test)
    assert total == 30
    assert len(split.train) == 24
    ids = {d.doc_id for part in split for d in part}
    assert len(ids) == 30


def test_random_split_validation():
    corpus = Corpus([make_doc()], {0: ("a",)})
    with pytest.raises(ValueError):
        corpus.random_split(np.random.default_rng(0), train=0.9, develop=0.2)


def test_filter_topics():
    docs = [make_doc(doc_id=f"d{i}", topic_id=i % 2) for i in range(10)]
    corpus = Corpus(docs, {0: ("a",), 1: ("b",)})
    sub = corpus.filter_topics([1])
    assert all(d.topic_id == 1 for d in sub)
    assert len(sub) == 5


def test_statistics_shape(small_corpus):
    stats = small_corpus.statistics()
    assert stats["num_documents"] > 0
    assert stats["mean_attributes"] == 4.0  # paper: four attributes per page
    assert 2 <= stats["mean_topic_length"] <= 5
    assert stats["vocabulary_size"] > 50


def test_vocabulary_covers_topics(small_corpus):
    vocab_words = set(small_corpus.vocabulary())
    for doc in small_corpus:
        assert set(doc.topic_tokens) <= vocab_words
