"""Corpus analysis utilities.

Deeper views than :meth:`Corpus.statistics`, used by the CLI's
``corpus-stats`` command:

* token frequency spectrum and type/token ratio;
* attribute-type distribution (the topic ↔ attribute correlation the models
  exploit);
* informative-content ratio per page (how much of a page is boilerplate);
* topic-phrase coverage: how often topic tokens literally occur in the page
  (the signal that makes generation learnable).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .corpus import Corpus, Document

__all__ = ["CorpusAnalysis", "analyze_corpus", "token_frequencies", "informative_ratio", "topic_coverage"]


def token_frequencies(documents: Sequence[Document]) -> Counter:
    """Token → count over all document sentences."""
    counts: Counter = Counter()
    for document in documents:
        for sentence in document.sentences:
            counts.update(sentence)
    return counts


def informative_ratio(document: Document) -> float:
    """Fraction of the document's tokens inside informative sections."""
    if document.num_tokens == 0:
        return 0.0
    informative = sum(
        len(sentence)
        for sentence, label in zip(document.sentences, document.section_labels)
        if label == 1
    )
    return informative / document.num_tokens


def topic_coverage(document: Document) -> float:
    """Fraction of the topic phrase's tokens that appear in the page body."""
    if not document.topic_tokens:
        return 0.0
    body = set(document.flat_tokens())
    present = sum(1 for token in set(document.topic_tokens) if token in body)
    return present / len(set(document.topic_tokens))


@dataclass
class CorpusAnalysis:
    """Aggregate corpus diagnostics."""

    num_documents: int
    num_tokens: int
    num_types: int
    type_token_ratio: float
    top_tokens: List[Tuple[str, int]]
    attribute_type_counts: Dict[str, int]
    mean_informative_ratio: float
    mean_topic_coverage: float

    def format(self) -> str:
        lines = [
            f"documents:            {self.num_documents}",
            f"tokens:               {self.num_tokens}",
            f"types:                {self.num_types}",
            f"type/token ratio:     {self.type_token_ratio:.3f}",
            f"informative ratio:    {self.mean_informative_ratio:.3f}",
            f"topic coverage:       {self.mean_topic_coverage:.3f}",
            "top tokens:           " + ", ".join(f"{t}({c})" for t, c in self.top_tokens),
            "attribute types:      "
            + ", ".join(f"{t}({c})" for t, c in sorted(self.attribute_type_counts.items())),
        ]
        return "\n".join(lines)


def analyze_corpus(corpus: Corpus, top_k: int = 10) -> CorpusAnalysis:
    """Compute the full diagnostic bundle for ``corpus``."""
    documents = list(corpus)
    frequencies = token_frequencies(documents)
    total_tokens = sum(frequencies.values())
    attribute_counts: Counter = Counter(
        span.attribute_type for document in documents for span in document.attributes
    )
    ratios = [informative_ratio(d) for d in documents]
    coverages = [topic_coverage(d) for d in documents]
    return CorpusAnalysis(
        num_documents=len(documents),
        num_tokens=total_tokens,
        num_types=len(frequencies),
        type_token_ratio=len(frequencies) / total_tokens if total_tokens else 0.0,
        top_tokens=frequencies.most_common(top_k),
        attribute_type_counts=dict(attribute_counts),
        mean_informative_ratio=float(np.mean(ratios)) if ratios else 0.0,
        mean_topic_coverage=float(np.mean(coverages)) if coverages else 0.0,
    )
