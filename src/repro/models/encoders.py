"""Document encoders: GloVe (context-independent), BERT and BERTSUM.

Every encoder maps a :class:`~repro.data.corpus.Document` to an
:class:`EncoderOutput` with two aligned views:

* ``token_states`` — one row per word token of the document (flat reading
  order, aligned 1:1 with ``document.flat_tokens()`` / BIO tags);
* ``sentence_states`` — one row per sentence (the ``C^0`` view of the paper;
  for BERTSUM these are the hidden states at the per-sentence [CLS]
  positions, for the others a mean over the sentence's token states).

:meth:`DocumentEncoder.encode_batch` returns the same views for a bucket of
pages as one :class:`EncoderOutput` of zero-padded blocks — ``(B, T, dim)``
tokens, ``(B, M, dim)`` sentences, a ``(B, T)`` token → sentence index —
with the masks of each page's real rows.  Both entry points place tokens
through one index computation (:func:`_layout`): BERTSUM gathers the word
view and the [CLS] view of the whole bucket with one fancy index each.

This is the interface every extractor/generator/section-predictor consumes,
so swapping ``GloVe→*`` / ``BERT→*`` / ``BERTSUM→*`` baselines (§IV-A6) is a
one-line change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..data.corpus import Document
from ..data.preprocessing import CLS_TOKEN
from ..data.vocab import Vocabulary

__all__ = ["EncoderOutput", "DocumentEncoder", "GloveEncoder", "BertEncoder", "BertSumEncoder", "truncate_document"]


@dataclass
class EncoderOutput:
    """Contextual views of one document, or of a padded bucket of them.

    From :meth:`DocumentEncoder.encode` the fields are one page's rows and
    both masks are None.  From :meth:`DocumentEncoder.encode_batch` they are
    zero-padded ``(B, ·)`` blocks and the masks mark each page's real rows.
    """

    token_states: nn.Tensor     # (num_word_tokens, dim) | (B, T, dim)
    sentence_states: nn.Tensor  # (num_sentences, dim) | (B, M, dim)
    #: sentence index of each word token (for injecting sentence-level signals
    #: such as the section distribution into token-level layers); 0 on padding.
    token_sentence_index: np.ndarray
    token_mask: Optional[np.ndarray] = None     # (B, T)
    sentence_mask: Optional[np.ndarray] = None  # (B, M)


@dataclass
class _Layout:
    """Where each page's tokens and sentences sit in a padded bucket.

    Every array is ``(B, T)`` over word tokens or ``(B, M)`` over sentences,
    with 0 on padding.
    """

    token_mask: np.ndarray
    sentence_mask: np.ndarray
    token_sentence_index: np.ndarray
    sentence_starts: np.ndarray   # flat-token offset of each sentence
    sentence_lengths: np.ndarray

    @property
    def word_positions(self) -> np.ndarray:
        """Stream position of each word with a [CLS] before every sentence."""
        return np.arange(self.token_mask.shape[1]) + self.token_sentence_index + 1

    @property
    def cls_positions(self) -> np.ndarray:
        """Stream position of each sentence's [CLS]."""
        cls = self.sentence_starts + np.arange(self.sentence_mask.shape[1])
        return np.where(self.sentence_mask, cls, 0)


def _layout(documents: Sequence[Document]) -> _Layout:
    """Padded token/sentence placement of a bucket, without a per-page loop."""
    lengths = [[len(sentence) for sentence in d.sentences] for d in documents]
    counts = np.array([len(row) for row in lengths])
    sentence_mask = np.arange(counts.max()) < counts[:, None]
    flat_lengths = np.fromiter(chain.from_iterable(lengths), dtype=np.int64)
    sentence_lengths = np.zeros(sentence_mask.shape, dtype=np.int64)
    sentence_lengths[sentence_mask] = flat_lengths
    ends = np.cumsum(sentence_lengths, axis=1)
    token_mask = np.arange(ends[:, -1].max()) < ends[:, -1:]
    token_sentence_index = np.zeros(token_mask.shape, dtype=np.int64)
    token_sentence_index[token_mask] = np.repeat(np.nonzero(sentence_mask)[1], flat_lengths)
    return _Layout(
        token_mask=token_mask,
        sentence_mask=sentence_mask,
        token_sentence_index=token_sentence_index,
        sentence_starts=np.where(sentence_mask, ends - sentence_lengths, 0),
        sentence_lengths=sentence_lengths,
    )


def _zero_padding(block: nn.Tensor, mask: np.ndarray) -> nn.Tensor:
    """Zero the rows of ``block`` that ``mask`` marks as padding."""
    if mask.all():
        return block
    return block * mask[..., None].astype(block.dtype)


def truncate_document(
    document: Document, max_tokens: int, sentence_overhead: int = 0
) -> Document:
    """Clip a document to at most ``max_tokens`` positions (whole sentences).

    Each sentence costs its word tokens plus ``sentence_overhead`` positions
    (1 for the [CLS] a BERTSUM stream puts before it).  Mirrors the paper's
    fixed input budget (2,048 tokens) at configurable scale.  Attribute
    spans in dropped sentences are dropped with them.
    """
    if document.num_tokens + sentence_overhead * document.num_sentences <= max_tokens:
        return document
    kept: List[List[str]] = []
    labels: List[int] = []
    total = 0
    for sentence, label in zip(document.sentences, document.section_labels):
        cost = len(sentence) + sentence_overhead
        if total + cost > max_tokens:
            break
        kept.append(sentence)
        labels.append(label)
        total += cost
    if not kept:  # first sentence alone exceeds the budget: hard clip
        kept = [document.sentences[0][: max_tokens - sentence_overhead]]
        labels = [document.section_labels[0]]
    attributes = [
        span
        for span in document.attributes
        if span.sentence_index < len(kept) and span.end <= len(kept[span.sentence_index])
    ]
    return Document(
        doc_id=document.doc_id,
        url=document.url,
        source=document.source,
        topic_id=document.topic_id,
        family=document.family,
        website=document.website,
        topic_tokens=document.topic_tokens,
        sentences=kept,
        section_labels=labels,
        attributes=attributes,
    )


class DocumentEncoder(nn.Module):
    """Base class defining the encoding contract.

    Subclasses supply :meth:`_views`; :meth:`encode` and
    :meth:`encode_batch` share the id and index computation around it.
    """

    dim: int
    vocabulary: Vocabulary

    def encode(self, document: Document) -> EncoderOutput:
        """One page's views (both masks None); the training path."""
        layout = _layout([document])
        ids, _ = self._ids([document], layout)
        token_states, sentence_states = self._views(ids[0], None, layout)
        return EncoderOutput(
            token_states=token_states,
            sentence_states=sentence_states,
            token_sentence_index=layout.token_sentence_index[0],
        )

    def encode_batch(self, documents: Sequence[Document]) -> EncoderOutput:
        """Encode a bucket of pages in one padded pass.

        Returns one :class:`EncoderOutput` of zero-padded blocks with both
        masks; each page's real rows are numerically equivalent to
        :meth:`encode` of that page.
        """
        layout = _layout(documents)
        ids, mask = self._ids(documents, layout)
        token_states, sentence_states = self._views(ids, None if mask.all() else mask, layout)
        return EncoderOutput(
            token_states=_zero_padding(token_states, layout.token_mask),
            sentence_states=_zero_padding(sentence_states, layout.sentence_mask),
            token_sentence_index=layout.token_sentence_index,
            token_mask=layout.token_mask,
            sentence_mask=layout.sentence_mask,
        )

    def forward(self, document: Document) -> EncoderOutput:
        return self.encode(document)

    def _ids(self, documents: Sequence[Document], layout: _Layout):
        """The bucket's ``(B, T)`` input ids (pad id on padding) and mask."""
        words = [t for d in documents for sentence in d.sentences for t in sentence]
        return self._fill(words, layout.token_mask)

    def _fill(self, tokens: List[str], mask: np.ndarray):
        ids = np.full(mask.shape, self.vocabulary.pad_id, dtype=np.int64)
        ids[mask] = self.vocabulary.encode(tokens)
        return ids, mask

    def _views(self, ids: np.ndarray, mask: Optional[np.ndarray], layout: _Layout):
        """``(token_states, sentence_states)`` of one page's ``(T,)`` ids, or
        of a bucket's ``(B, T)`` ids with their mask (None: no padding)."""
        raise NotImplementedError

    @staticmethod
    def _sentence_means(token_states: nn.Tensor, layout: _Layout) -> nn.Tensor:
        """Per-sentence means of ``(T, dim)`` / ``(B, T, dim)`` token states.

        Gathers each sentence's rows into a zero-filled ``(..., M, W, dim)``
        block and sums over ``W`` in reading order, so every mean is the
        same float as ``token_states[start:end].mean(axis=0)``.
        """
        lengths = layout.sentence_lengths
        offsets = np.arange(max(1, int(lengths.max())))
        inside = offsets < lengths[..., None]
        positions = np.where(inside, layout.sentence_starts[..., None] + offsets, 0)
        if token_states.ndim == 2:  # one page
            index, inside, lengths = positions[0], inside[0], lengths[0]
        else:
            index = (np.arange(len(positions))[:, None, None], positions)
        rows = token_states[index] * inside[..., None].astype(token_states.dtype)
        scale = (1.0 / np.maximum(lengths, 1)).astype(token_states.dtype)
        return rows.sum(axis=-2) * scale[..., None]


class GloveEncoder(DocumentEncoder):
    """Context-independent embeddings (the ``GloVe→*`` baselines).

    Wraps an embedding table that can be initialised from a trained
    :class:`~repro.data.embeddings.GloveModel`; vectors may optionally remain
    trainable (fine-tuning), default frozen as in the paper's GloVe baseline.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        dim: int,
        rng: np.random.Generator,
        pretrained: Optional[np.ndarray] = None,
        trainable: bool = False,
    ) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.dim = dim
        self.embedding = nn.Embedding(len(vocabulary), dim, rng, padding_idx=vocabulary.pad_id)
        if pretrained is not None:
            self.embedding.load_pretrained(pretrained, freeze=not trainable)
        elif not trainable:
            self.embedding.weight.requires_grad = False

    def _views(self, ids, mask, layout):
        token_states = self.embedding(ids)
        return token_states, self._sentence_means(token_states, layout)


class BertEncoder(DocumentEncoder):
    """Contextual encoder (the ``BERT→*`` baselines).

    Runs MiniBert over the flat token sequence (no per-sentence [CLS]);
    sentence states are per-sentence means of contextual token states.
    """

    def __init__(self, vocabulary: Vocabulary, bert: nn.MiniBert) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.bert = bert
        self.dim = bert.dim

    def _views(self, ids, mask, layout):
        token_states = self.bert(ids, mask=mask)
        return token_states, self._sentence_means(token_states, layout)


class BertSumEncoder(DocumentEncoder):
    """BERTSUM-style encoder (the ``BERTSUM→*`` baselines and Joint-WB).

    Inserts a [CLS] token before every sentence; token states are the hidden
    vectors at word positions, sentence states the hidden vectors at the
    [CLS] positions — the paper's ``C`` and ``C^0`` (§III-C).
    """

    def __init__(self, vocabulary: Vocabulary, bert: nn.MiniBert) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.bert = bert
        self.dim = bert.dim

    def encode_batch(self, documents: Sequence[Document]) -> EncoderOutput:
        """One masked pass over the [CLS]-interleaved bucket (Joint-WB's
        serving encoder; defined here so it can be timed on its own)."""
        return super().encode_batch(documents)

    def _ids(self, documents, layout):
        """The ``(B, S)`` stream with a [CLS] before every sentence."""
        stream = [t for d in documents for sentence in d.sentences for t in (CLS_TOKEN, *sentence)]
        lengths = layout.token_mask.sum(axis=1) + layout.sentence_mask.sum(axis=1)
        return self._fill(stream, np.arange(lengths.max()) < lengths[:, None])

    def _views(self, ids, mask, layout):
        states = self.bert(ids, mask=mask)
        words, cls = layout.word_positions, layout.cls_positions
        if states.ndim == 2:  # one page
            return states[words[0]], states[cls[0]]
        rows = np.arange(len(states))[:, None]
        return states[rows, words], states[rows, cls]
