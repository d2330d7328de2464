"""Preprocessing tests: the word tokenizer rules of §IV-A3."""

from repro.data import DIGIT_TOKEN, word_tokenize


def test_lowercase():
    assert word_tokenize("Hello WORLD") == ["hello", "world"]


def test_digits_replaced():
    assert word_tokenize("price 42 and 40.13 euros") == [
        "price", DIGIT_TOKEN, "and", DIGIT_TOKEN, "euros",
    ]


def test_punctuation_single_tokens():
    assert word_tokenize("a, b! (c)") == ["a", ",", "b", "!", "(", "c", ")"]


def test_mixed_alphanumeric_splits():
    assert word_tokenize("abc123") == ["abc", DIGIT_TOKEN]


def test_empty_and_whitespace():
    assert word_tokenize("") == []
    assert word_tokenize("   \n\t ") == []
