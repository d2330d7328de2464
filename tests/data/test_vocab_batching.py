"""Vocabulary and batching tests."""

import pytest

from repro.data import CLS_TOKEN, Vocabulary
from repro.data.batching import iterate_batches


def test_specials_have_fixed_ids():
    vocab = Vocabulary(["z", "a"])
    assert vocab.pad_id == 0
    assert vocab.unk_id == 1
    assert vocab.encode([CLS_TOKEN]) == [2]
    assert vocab.bos_id == 3
    assert vocab.eos_id == 4


def test_encode_decode_roundtrip():
    vocab = Vocabulary(["alpha", "beta"])
    ids = vocab.encode(["alpha", "beta", "missing"])
    assert ids[2] == vocab.unk_id
    assert vocab.decode(ids[:2]) == ["alpha", "beta"]


def test_decode_skips_specials_by_default():
    vocab = Vocabulary(["x"])
    ids = [vocab.bos_id, *vocab.encode(["x"]), vocab.eos_id, vocab.pad_id]
    assert vocab.decode(ids) == ["x"]
    assert len(vocab.decode(ids, skip_special=False)) == 4


def test_duplicates_not_double_added():
    vocab = Vocabulary(["a", "a", "b"])
    assert len(vocab) == 5 + 2
    assert "a" in vocab


def test_from_corpus_covers_everything(small_corpus):
    vocab = Vocabulary.from_corpus(small_corpus)
    for doc in small_corpus:
        for sentence in doc.sentences:
            assert vocab.unk_id not in vocab.encode(sentence)


def test_iterate_batches_sizes():
    batches = list(iterate_batches(list(range(10)), 3))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    with pytest.raises(ValueError):
        list(iterate_batches([1], 0))


def test_iterate_batches_default_order_unchanged():
    items = [5, 1, 4, 2, 3]
    assert list(iterate_batches(items, 2)) == [[5, 1], [4, 2], [3]]


def test_iterate_batches_bucket_by_sorts_stably():
    items = ["ccc", "a", "bb", "dd", "e"]
    batches = list(iterate_batches(items, 2, bucket_by=len))
    assert batches == [["a", "e"], ["bb", "dd"], ["ccc"]]
    # Stable: ties keep their input order ("bb" before "dd").
    flat = [item for batch in batches for item in batch]
    assert sorted(flat) == sorted(items)
