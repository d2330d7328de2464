"""Corpus data model: documents, attribute spans, topic registry and splits.

A :class:`Document` is a rendered webpage with supervision recovered from the
HTML markers (see :mod:`repro.data.templates`): per-sentence tokens,
per-sentence informative-section labels, the gold topic phrase and the gold
key-attribute spans.  A :class:`Corpus` owns documents plus the topic
registry, and provides the 80/10/10 random splits and the seen/unseen-domain
splits used throughout the paper's evaluation (§IV-B, §IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["AttributeSpan", "Document", "Corpus", "SplitBundle"]


@dataclass(frozen=True)
class AttributeSpan:
    """A gold key attribute: a token span within one sentence."""

    sentence_index: int
    start: int  # token offset within the sentence (inclusive)
    end: int    # token offset within the sentence (exclusive)
    attribute_type: str

    def tokens(self, document: "Document") -> List[str]:
        return document.sentences[self.sentence_index][self.start : self.end]


@dataclass
class Document:
    """One webpage with full supervision."""

    doc_id: str
    url: str
    source: str  # "jasmine" | "swde" | "synthetic"
    topic_id: int
    family: str
    website: str
    topic_tokens: Tuple[str, ...]
    sentences: List[List[str]]
    section_labels: List[int]
    attributes: List[AttributeSpan] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.sentences) != len(self.section_labels):
            raise ValueError(
                f"{self.doc_id}: {len(self.sentences)} sentences but "
                f"{len(self.section_labels)} section labels"
            )
        for span in self.attributes:
            sentence = self.sentences[span.sentence_index]
            if not (0 <= span.start < span.end <= len(sentence)):
                raise ValueError(f"{self.doc_id}: attribute span {span} out of range")

    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    @property
    def num_sentences(self) -> int:
        return len(self.sentences)

    def flat_tokens(self) -> List[str]:
        """All tokens in reading order (no sentence markers)."""
        return [token for sentence in self.sentences for token in sentence]

    def sentence_offsets(self) -> List[int]:
        """Flat-token offset at which each sentence starts."""
        offsets = []
        total = 0
        for sentence in self.sentences:
            offsets.append(total)
            total += len(sentence)
        return offsets

    def bio_tags(self) -> List[str]:
        """Flat BIO tags over all tokens for the attribute-extraction task."""
        tags = ["O"] * self.num_tokens
        offsets = self.sentence_offsets()
        for span in self.attributes:
            base = offsets[span.sentence_index]
            tags[base + span.start] = "B"
            for position in range(base + span.start + 1, base + span.end):
                tags[position] = "I"
        return tags

    def attribute_texts(self) -> List[str]:
        """Gold attribute strings (for span-level P/R/F1)."""
        return [" ".join(span.tokens(self)) for span in self.attributes]


@dataclass
class SplitBundle:
    """Train/develop/test document lists."""

    train: List[Document]
    develop: List[Document]
    test: List[Document]

    def __iter__(self):
        return iter((self.train, self.develop, self.test))


class Corpus:
    """A set of documents plus the topic registry."""

    def __init__(self, documents: Sequence[Document], topic_phrases: Dict[int, Tuple[str, ...]]) -> None:
        self.documents: List[Document] = list(documents)
        #: topic_id -> topic phrase tokens (the registry of *known topics*
        #: that Dual-Distill's identification distillation attends over).
        self.topic_phrases: Dict[int, Tuple[str, ...]] = dict(topic_phrases)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def __getitem__(self, index: int) -> Document:
        return self.documents[index]

    @property
    def topic_ids(self) -> List[int]:
        return sorted({d.topic_id for d in self.documents})

    def vocabulary(self) -> List[str]:
        """Sorted set of word types over documents and topic phrases."""
        words = set()
        for document in self.documents:
            for sentence in document.sentences:
                words.update(sentence)
            words.update(document.topic_tokens)
        for phrase in self.topic_phrases.values():
            words.update(phrase)
        return sorted(words)

    def filter_topics(self, topic_ids: Iterable[int]) -> "Corpus":
        """Sub-corpus containing only the given topics."""
        wanted = set(topic_ids)
        documents = [d for d in self.documents if d.topic_id in wanted]
        return Corpus(documents, self.topic_phrases)

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def random_split(
        self,
        rng: np.random.Generator,
        train: float = 0.8,
        develop: float = 0.1,
    ) -> SplitBundle:
        """Random 80/10/10 split (paper §IV-B/C)."""
        if not 0 < train < 1 or not 0 <= develop < 1 or train + develop >= 1:
            raise ValueError("invalid split fractions")
        order = rng.permutation(len(self.documents))
        n_train = int(round(train * len(order)))
        n_dev = int(round(develop * len(order)))
        # Guarantee a non-empty test set on small corpora (the rounding above
        # can otherwise swallow it).
        if len(order) >= 3 and n_train + n_dev >= len(order):
            n_train = len(order) - n_dev - 1
        train_docs = [self.documents[i] for i in order[:n_train]]
        dev_docs = [self.documents[i] for i in order[n_train : n_train + n_dev]]
        test_docs = [self.documents[i] for i in order[n_train + n_dev :]]
        return SplitBundle(train=train_docs, develop=dev_docs, test=test_docs)

    def statistics(self) -> Dict[str, float]:
        """Corpus statistics in the shape of the paper's §IV-A1 summary."""
        lengths = [d.num_tokens for d in self.documents]
        topic_lengths = [len(d.topic_tokens) for d in self.documents]
        attrs = [len(d.attributes) for d in self.documents]
        return {
            "num_documents": float(len(self.documents)),
            "num_topics": float(len(self.topic_ids)),
            "mean_tokens": float(np.mean(lengths)) if lengths else 0.0,
            "std_tokens": float(np.std(lengths)) if lengths else 0.0,
            "mean_topic_length": float(np.mean(topic_lengths)) if topic_lengths else 0.0,
            "mean_attributes": float(np.mean(attrs)) if attrs else 0.0,
            "vocabulary_size": float(len(self.vocabulary())),
        }
