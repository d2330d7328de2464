"""Single-task baselines (§IV-A6-i).

``*→Bi-LSTM`` for key attribute extraction and ``*→[Bi-LSTM, LSTM]`` for
topic generation, where ``*`` is a word-embedding method (GloVe / BERT /
BERTSUM via :mod:`repro.models.encoders`).  The ``+prior section`` and
``+prior topic`` variants concatenate the prior signal to the Bi-LSTM input
following ATAE-LSTM's concatenation procedure:

* ``+prior section`` — each token (or sentence) gets its gold
  informative-section indicator appended;
* ``+prior topic`` — each token gets the mean embedding of the gold topic
  phrase appended (extraction task only).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..data.corpus import Document
from ..data.vocab import Vocabulary
from .encoders import DocumentEncoder
from .extractor import AttributeExtractor
from .generator import TopicGenerator

__all__ = ["SingleTaskExtractor", "SingleTaskGenerator"]


class SingleTaskExtractor(nn.Module):
    """``*→Bi-LSTM`` attribute extractor with optional priors."""

    def __init__(
        self,
        encoder: DocumentEncoder,
        vocabulary: Vocabulary,
        hidden_dim: int,
        rng: np.random.Generator,
        prior_section: bool = False,
        prior_topic: bool = False,
        topic_embed_dim: int = 16,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.encoder = encoder
        self.vocabulary = vocabulary
        self.prior_section = prior_section
        self.prior_topic = prior_topic
        extra = (1 if prior_section else 0) + (topic_embed_dim if prior_topic else 0)
        self.topic_embedding = (
            nn.Embedding(len(vocabulary), topic_embed_dim, rng, padding_idx=vocabulary.pad_id)
            if prior_topic
            else None
        )
        self.extractor = AttributeExtractor(
            encoder.dim, hidden_dim, rng, extra_dim=extra, dropout=dropout
        )

    # ------------------------------------------------------------------
    def _extra_features(self, document: Document, sentence_index: np.ndarray) -> Optional[nn.Tensor]:
        columns: List[nn.Tensor] = []
        if self.prior_section:
            labels = np.asarray(document.section_labels, dtype=np.float64)
            columns.append(nn.Tensor(labels[sentence_index].reshape(-1, 1)))
        if self.prior_topic:
            ids = np.asarray(self.vocabulary.encode(list(document.topic_tokens)))
            topic_vec = self.topic_embedding(ids).mean(axis=0)
            columns.append(nn.stack([topic_vec] * document.num_tokens, axis=0))
        if not columns:
            return None
        return columns[0] if len(columns) == 1 else nn.concatenate(columns, axis=-1)

    def _logits(self, document: Document) -> nn.Tensor:
        enc = self.encoder.encode(document)
        extra = self._extra_features(document, enc.token_sentence_index)
        return self.extractor(enc.token_states, extra=extra)

    def loss(self, document: Document) -> nn.Tensor:
        return self.extractor.loss_from_logits(self._logits(document), document)

    def predict_attributes(self, document: Document) -> List[str]:
        with nn.no_grad():
            logits = self._logits(document)
            return self.extractor.predict_attributes(logits, document)


class SingleTaskGenerator(nn.Module):
    """``*→[Bi-LSTM, LSTM]`` topic generator with optional section prior."""

    def __init__(
        self,
        encoder: DocumentEncoder,
        vocabulary: Vocabulary,
        hidden_dim: int,
        rng: np.random.Generator,
        prior_section: bool = False,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.encoder = encoder
        self.vocabulary = vocabulary
        self.prior_section = prior_section
        self.generator = TopicGenerator(
            encoder.dim,
            hidden_dim,
            vocabulary,
            rng,
            extra_dim=1 if prior_section else 0,
            dropout=dropout,
        )

    def _memory(self, document: Document) -> nn.Tensor:
        enc = self.encoder.encode(document)
        extra = None
        if self.prior_section:
            labels = np.asarray(document.section_labels, dtype=np.float64).reshape(-1, 1)
            extra = nn.Tensor(labels)
        return self.generator.encode(enc.sentence_states, extra=extra)

    def loss(self, document: Document) -> nn.Tensor:
        memory = self._memory(document)
        loss, _, _ = self.generator.teacher_forcing(memory, document.topic_tokens)
        return loss

    def predict_topic(self, document: Document, beam_size: int = 4) -> List[str]:
        with nn.no_grad():
            memory = self._memory(document)
            return self.generator.generate(memory, beam_size=beam_size)
