"""Key attribute extractor ``E``: a BiLSTM BIO tagger over token states.

The paper extracts a set of token-span key attributes (§III).  We realise the
span extraction as standard BIO tagging (O=0, B=1, I=2) over the encoder's
token states — the conventional concrete form of "extract a set of token
sequences".  The module exposes its hidden token representations ``C_E`` so
Joint-WB's dual-aware mechanisms and the distillation losses can hook into
the intermediate layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..data.corpus import Document

__all__ = ["TAG_O", "TAG_B", "TAG_I", "AttributeExtractor", "decode_spans", "tags_to_ids"]

TAG_O, TAG_B, TAG_I = 0, 1, 2
_TAG_IDS = {"O": TAG_O, "B": TAG_B, "I": TAG_I}


def tags_to_ids(tags: Sequence[str]) -> np.ndarray:
    """Map BIO tag strings to integer ids."""
    return np.asarray([_TAG_IDS[t] for t in tags], dtype=np.int64)


def decode_spans(tag_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Decode flat BIO ids into ``(start, end)`` spans (end exclusive).

    An ``I`` without a preceding ``B`` opens a new span (lenient decoding, the
    standard choice for noisy taggers).
    """
    spans: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for position, tag in enumerate(tag_ids):
        if tag == TAG_B:
            if start is not None:
                spans.append((start, position))
            start = position
        elif tag == TAG_I:
            if start is None:
                start = position
        else:
            if start is not None:
                spans.append((start, position))
                start = None
    if start is not None:
        spans.append((start, len(tag_ids)))
    return spans


class AttributeExtractor(nn.Module):
    """BiLSTM + softmax tagger with an optional extra feature channel.

    ``extra_dim`` reserves input width for signals concatenated by callers
    (e.g. prior topic embeddings in the ``+prior topic`` baseline, or the
    dual-aware representations of Joint-WB which post-process :meth:`hidden`).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        extra_dim: int = 0,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.extra_dim = extra_dim
        self.encoder = nn.BiLSTM(input_dim + extra_dim, hidden_dim, rng)
        self.dropout = nn.Dropout(dropout, rng)
        self.output = nn.Dense(2 * hidden_dim, 3, rng)

    # ------------------------------------------------------------------
    def hidden(
        self,
        token_states: nn.Tensor,
        extra: Optional[nn.Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> nn.Tensor:
        """Hidden token representations ``C_E`` of shape ``(L, 2h)``.

        Also takes a padded ``(B, T, d)`` bucket with its ``(B, T)`` mask and
        returns ``(B, T, 2h)``.
        """
        return self.dropout(self.encoder(self._inputs(token_states, extra), mask=mask))

    def hidden_batch(self, token_states: nn.Tensor, mask: np.ndarray) -> nn.Tensor:
        """``C_E`` of a padded bucket from one masked BiLSTM pass.

        The recurrence runs one Python loop over T for the whole bucket;
        each page's real rows equal :meth:`hidden` of that page.
        """
        return self.hidden(token_states, mask=mask)

    def _inputs(self, token_states: nn.Tensor, extra: Optional[nn.Tensor]) -> nn.Tensor:
        inputs = nn.as_tensor(token_states)
        if self.extra_dim:
            if extra is None:
                raise ValueError("extractor built with extra_dim but no extra features given")
            inputs = nn.concatenate([inputs, nn.as_tensor(extra)], axis=-1)
        return inputs

    def logits(self, hidden_states: nn.Tensor) -> nn.Tensor:
        """Tag logits ``(L, 3)`` from hidden token representations."""
        return self.output(hidden_states)

    def forward(self, token_states: nn.Tensor, extra: Optional[nn.Tensor] = None) -> nn.Tensor:
        return self.logits(self.hidden(token_states, extra=extra))

    # ------------------------------------------------------------------
    def loss_from_logits(self, logits: nn.Tensor, document: Document) -> nn.Tensor:
        targets = tags_to_ids(document.bio_tags())
        return nn.cross_entropy(logits, targets)

    def predict_tags(self, logits: nn.Tensor) -> np.ndarray:
        return logits.data.argmax(axis=-1)

    def predict_attributes(self, logits: nn.Tensor, document: Document) -> List[str]:
        """Predicted attribute strings for span-level P/R/F1."""
        return [attr for attr, _ in self.predict_attributes_with_scores(logits, document)]

    def predict_attributes_with_scores(
        self, logits: nn.Tensor, document: Document
    ) -> List[Tuple[str, float]]:
        """Attributes with a confidence score (mean tag probability over the span).

        The score ranks spans for the runtime's degradation ladder: when topic
        generation fails, the pipeline promotes the highest-scoring attribute.
        """
        tags, confidence = self.tag_confidence(logits)
        return self.scored_spans(tags, confidence, document)

    def tag_confidence(self, logits: nn.Tensor) -> Tuple[np.ndarray, np.ndarray]:
        """Argmax tags and each tag's softmax probability.

        Takes ``(L, 3)`` logits or a padded ``(B, T, 3)`` bucket.
        """
        tags = self.predict_tags(logits)
        data = logits.data - logits.data.max(axis=-1, keepdims=True)
        probs = np.exp(data)
        probs /= probs.sum(axis=-1, keepdims=True)
        return tags, np.take_along_axis(probs, tags[..., None], axis=-1)[..., 0]

    @staticmethod
    def scored_spans(
        tags: np.ndarray, confidence: np.ndarray, document: Document
    ) -> List[Tuple[str, float]]:
        """One page's BIO spans, each scored by its tokens' mean confidence."""
        tokens = document.flat_tokens()
        return [
            (" ".join(tokens[start:end]), float(confidence[start:end].mean()))
            for start, end in decode_spans(tags)
        ]
