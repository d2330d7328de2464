"""Joint-WB: joint webpage-briefing model with signal exchange & enhancement.

Implements §III-C of the paper.  Three parts share one document encoder:

* informative section predictor ``P`` (Markov dependency mechanism),
* key attribute extractor ``E`` (section-and-topic dual-aware),
* topic generator ``G`` (section-and-key-attributes dual-aware).

Signal flow for one document (teacher-forced training pass)::

    C, C0 ── encoder
    p      = P(C0)                          # soft section distribution
    C_E    = BiLSTM_E(C)                    # hidden token reps
    C_G    = BiLSTM_G(C0)                   # hidden sentence reps
    E^b    = tanh(pool(C_E) W_E)            # integrated attribute rep
    C_G^b  = tanh([C_G ⊕ Φ_G(p)] W_CG)      # section-dependent sentence reps
    A_G    = softmax((C_G^b ⊙ E^b) w_AG)    # key-attr-aware sentence attention
    Ĉ_G    = (m · A_G) ⊙ C_G                # dual-aware sentence reps
    Q      = decode(Ĉ_G)                    # topic hidden states (teacher forced)
    Q^b    = tanh(pool(Q) W_Q)              # integrated topic rep
    C_E^b  = tanh([C_E ⊕ Φ_E(p)] W_CE)      # section-dependent token reps
    A_E    = softmax(C_E^b W_AE Q^b)        # topic-aware token attention
    Ĉ_E    = (L · A_E) ⊙ C_E                # dual-aware token reps
    O_e    = softmax-out(Ĉ_E);  O_g from the decode
    L      = CE(O_e) + CE(O_g) + BCE(p)

Deviations from the paper, documented per DESIGN.md §5:

* the integrated representations ``E^b``/``Q^b`` use mean-pooling + dense
  (the paper concatenates all hidden states, which requires a fixed length;
  pooling is the variable-length-safe equivalent);
* the attention re-weighting ``Ĉ = A ⊙ C`` is scaled by the number of rows so
  the expected gate is 1 (softmax alone would shrink activations by 1/L);
* ``P`` is trained with an auxiliary BCE on gold section labels and its
  *soft* probabilities are injected (the hard threshold in the paper's
  equation is non-differentiable).

The same class realises every joint baseline of §IV-A6-ii through
:class:`ExchangeConfig` — see :mod:`repro.models.joint_baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..data.batching import iterate_batches
from ..data.corpus import Document
from ..data.vocab import Vocabulary
from .encoders import DocumentEncoder, EncoderOutput
from .extractor import AttributeExtractor
from .generator import TopicGenerator
from .section import SectionPredictor

__all__ = ["BriefPrediction", "ExchangeConfig", "JointForward", "JointWBModel"]


def _if_padded(mask: np.ndarray) -> Optional[np.ndarray]:
    """A bucket's ``(B, T)`` mask, or None when no row is padded."""
    return None if mask.all() else mask


@dataclass
class BriefPrediction:
    """Everything the serving layer needs for one document, from one pass.

    Produced by :meth:`JointWBModel.predict_batch`; the sequential path
    computes the same three outputs via three separate encoder passes
    (``predict_topic`` / ``predict_attributes_scored`` / ``predict_sections``).
    """

    topic: List[str]
    scored_attributes: List[Tuple[str, float]]
    sections: np.ndarray

    @property
    def attributes(self) -> List[str]:
        return [attribute for attribute, _ in self.scored_attributes]


@dataclass(frozen=True)
class ExchangeConfig:
    """Which signal-exchange mechanisms are active.

    ``topic_to_extractor``: "none" | "concat" | "average" | "attention".
    ``attr_to_generator``: "none" | "attention".
    ``section_aware``: inject the section distribution into the dual-aware
    representations (the *enhancement* part of Joint-WB).
    ``pipeline``: apply topic-dependent and section-dependent updates
    sequentially instead of through one dual-aware attention
    (the Pip-Extractor/Pip-Generator baselines).
    """

    topic_to_extractor: str = "attention"
    attr_to_generator: str = "attention"
    section_aware: bool = True
    pipeline: bool = False

    def __post_init__(self) -> None:
        if self.topic_to_extractor not in ("none", "concat", "average", "attention"):
            raise ValueError(f"bad topic_to_extractor {self.topic_to_extractor!r}")
        if self.attr_to_generator not in ("none", "attention"):
            raise ValueError(f"bad attr_to_generator {self.attr_to_generator!r}")


@dataclass
class JointForward:
    """Everything a training/distillation step needs from one forward pass."""

    encoder_output: EncoderOutput
    section_probs: Optional[nn.Tensor]
    extractor_hidden: nn.Tensor        # C_E (pre-exchange)
    generator_hidden: nn.Tensor        # C_G (pre-exchange)
    extractor_dual: nn.Tensor          # Ĉ_E
    generator_dual: nn.Tensor          # Ĉ_G
    extraction_logits: nn.Tensor       # (L, 3)
    generation_logits: nn.Tensor       # (n, V) teacher forced
    topic_hidden: nn.Tensor            # Q (n, h)
    loss_extraction: nn.Tensor
    loss_generation: nn.Tensor
    loss_section: Optional[nn.Tensor]

    def total_loss(self) -> nn.Tensor:
        total = self.loss_extraction + self.loss_generation
        if self.loss_section is not None:
            total = total + self.loss_section
        return total


class JointWBModel(nn.Module):
    """Joint-WB (and, via ``ExchangeConfig``, every joint baseline)."""

    def __init__(
        self,
        encoder: DocumentEncoder,
        vocabulary: Vocabulary,
        hidden_dim: int,
        rng: np.random.Generator,
        config: Optional[ExchangeConfig] = None,
        exchange_dim: Optional[int] = None,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.encoder = encoder
        self.vocabulary = vocabulary
        self.config = config or ExchangeConfig()
        self.hidden_dim = hidden_dim
        exchange_dim = exchange_dim or hidden_dim
        self.exchange_dim = exchange_dim
        dim = encoder.dim

        self.extractor = AttributeExtractor(dim, hidden_dim, rng, dropout=dropout)
        self.generator = TopicGenerator(dim, hidden_dim, vocabulary, rng, dropout=dropout)
        self.section = SectionPredictor(dim, rng) if self.config.section_aware else None

        two_h = 2 * hidden_dim
        # Integrated representations (E^b, Q^b).
        self.attr_pool = nn.Dense(two_h, exchange_dim, rng, activation="tanh")
        self.topic_pool = nn.Dense(hidden_dim, exchange_dim, rng, activation="tanh")
        # Section-dependent representations (C_E^b, C_G^b): input is the
        # hidden rep concatenated with the injected section probability.
        section_extra = 1 if self.config.section_aware else 0
        self.token_section = nn.Dense(two_h + section_extra, exchange_dim, rng, activation="tanh")
        self.sentence_section = nn.Dense(two_h + section_extra, exchange_dim, rng, activation="tanh")
        # Dual-aware attentions.
        self.attend_tokens = nn.BilinearAttention(exchange_dim, exchange_dim, rng)
        self.attend_sentences = nn.Dense(exchange_dim, 1, rng, use_bias=False)
        # Concat/average exchange projections (Con-/Ave-Extractor baselines).
        self.concat_project = nn.Dense(two_h + hidden_dim, two_h, rng, activation="tanh")

    # ------------------------------------------------------------------
    # Exchange helpers
    #
    # Each takes one page's rows ``(n, ·)`` or a padded bucket ``(B, n, ·)``
    # with the ``(B, n)`` mask of each page's real rows.  A 2-D call with no
    # mask (training and the sequential ``predict_*`` methods) runs the plain
    # per-page ops.
    # ------------------------------------------------------------------
    @staticmethod
    def _row_mean(hidden: nn.Tensor, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        """Mean over the row axis; with a mask, over each page's real rows."""
        if mask is None:
            return hidden.mean(axis=-2)
        counts = mask.sum(axis=-1, keepdims=True)
        real = hidden * mask[..., None].astype(hidden.dtype)
        return real.sum(axis=-2) * (1.0 / counts).astype(hidden.dtype)

    def _pooled(self, hidden: nn.Tensor, dense: nn.Dense, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        """Integrated representation tanh(pool(H) W): ``(1, x)`` or ``(B, 1, x)``."""
        summary = self._row_mean(hidden, mask)
        return dense(summary.reshape(summary.shape[:-1] + (1, summary.shape[-1])))

    @staticmethod
    def _per_row(probs: nn.Tensor, sentence_index: Optional[np.ndarray]) -> nn.Tensor:
        """Section probability of each row (rows are sentences when no index)."""
        if sentence_index is None:
            return probs
        if probs.ndim == 1:
            return probs[sentence_index]
        return probs[np.arange(probs.shape[0])[:, None], sentence_index]

    def _inject_section(self, hidden: nn.Tensor, probs: Optional[nn.Tensor], sentence_index: Optional[np.ndarray], dense: nn.Dense) -> nn.Tensor:
        """Section-dependent representation: tanh([H ⊕ Φ(p)] W)."""
        if self.config.section_aware and probs is not None:
            per_row = self._per_row(probs, sentence_index)
            hidden = nn.concatenate([hidden, per_row.reshape(per_row.shape + (1,))], axis=-1)
        return dense(hidden)

    def _with_zero_section(self, hidden: nn.Tensor) -> nn.Tensor:
        """The pipeline baselines' section-free input to a section-aware dense."""
        if not self.config.section_aware:
            return hidden
        zero = nn.Tensor(np.zeros(hidden.shape[:-1] + (1,), dtype=hidden.dtype))
        return nn.concatenate([hidden, zero], axis=-1)

    @staticmethod
    def _attention(scores: nn.Tensor, mask: Optional[np.ndarray]) -> nn.Tensor:
        """Softmax of ``(..., n, 1)`` scores over the rows; padded rows get 0."""
        scores = scores.reshape(scores.shape[:-1])
        return scores.softmax(axis=-1) if mask is None else nn.masked_softmax(scores, mask)

    @staticmethod
    def _gate(hidden: nn.Tensor, attention: nn.Tensor, mask: Optional[np.ndarray] = None) -> nn.Tensor:
        """Re-weight rows by attention, scaled to mean-one gating.

        The scale is each page's own row count, never the padded width.
        """
        weights = attention.reshape(attention.shape + (1,))
        if mask is None:
            return hidden * (weights * float(hidden.shape[-2]))
        rows = mask.sum(axis=-1).astype(weights.dtype)[:, None, None]
        return hidden * (weights * rows)

    def _update_generator_hidden(
        self,
        c_g: nn.Tensor,
        e_pool: Optional[nn.Tensor],
        probs: Optional[nn.Tensor],
        mask: Optional[np.ndarray] = None,
    ) -> nn.Tensor:
        """Section-and-key-attributes dual-aware sentence representations."""
        if self.config.attr_to_generator == "none" or e_pool is None:
            return c_g
        if self.config.pipeline:
            # Pip-Generator: attribute-dependent gate, then section gate.
            rep = self.sentence_section(self._with_zero_section(c_g))
            attention = self._attention(self.attend_sentences(rep * e_pool), mask)
            gated = self._gate(c_g, attention, mask)
            if self.config.section_aware and probs is not None:
                gated = gated * (probs.reshape(probs.shape + (1,)) + 0.5)
            return gated
        c_g_b = self._inject_section(c_g, probs, None, self.sentence_section)
        attention = self._attention(self.attend_sentences(c_g_b * e_pool), mask)
        return self._gate(c_g, attention, mask)

    def _update_extractor_hidden(
        self,
        c_e: nn.Tensor,
        topic_hidden: Optional[nn.Tensor],
        probs: Optional[nn.Tensor],
        sentence_index: np.ndarray,
        mask: Optional[np.ndarray] = None,
        topic_mask: Optional[np.ndarray] = None,
    ) -> nn.Tensor:
        """Section-and-topic dual-aware token representations.

        In a bucket, ``topic_hidden`` is the padded ``(B, N, h)`` block of
        each page's greedy hiddens and ``topic_mask`` its real rows.
        """
        mode = self.config.topic_to_extractor
        if mode == "none" or topic_hidden is None:
            return c_e
        if mode in ("concat", "average"):
            if mode == "average":
                summary = self._row_mean(topic_hidden, topic_mask)
            elif topic_mask is None:
                # "Concat": flatten the decoder states; to stay length-safe we
                # use the last state, the standard fixed-size summary.
                summary = topic_hidden[..., topic_hidden.shape[-2] - 1, :]
            else:
                summary = topic_hidden[np.arange(len(topic_mask)), topic_mask.sum(axis=-1) - 1]
            tiled = nn.stack([summary] * c_e.shape[-2], axis=-2)
            return self.concat_project(nn.concatenate([c_e, tiled], axis=-1))
        # attention mode
        q_pool = self._pooled(topic_hidden, self.topic_pool, topic_mask)  # (1, x) / (B, 1, x)
        if self.config.pipeline:
            rep = self.token_section(self._with_zero_section(c_e))
            attention = self._attention(self.attend_tokens.scores(rep, q_pool), mask)
            gated = self._gate(c_e, attention, mask)
            if self.config.section_aware and probs is not None:
                token_probs = self._per_row(probs, sentence_index)
                gated = gated * (token_probs.reshape(token_probs.shape + (1,)) + 0.5)
            return gated
        c_e_b = self._inject_section(c_e, probs, sentence_index, self.token_section)
        attention = self._attention(self.attend_tokens.scores(c_e_b, q_pool), mask)
        return self._gate(c_e, attention, mask)

    # ------------------------------------------------------------------
    # Forward / loss
    # ------------------------------------------------------------------
    def forward(self, document: Document) -> JointForward:
        """Teacher-forced joint forward pass with all losses."""
        enc = self.encoder.encode(document)
        probs = self.section.probabilities(enc.sentence_states) if self.section else None

        c_e = self.extractor.hidden(enc.token_states)
        c_g = self.generator.encode(enc.sentence_states)

        e_pool = self._pooled(c_e, self.attr_pool) if self.config.attr_to_generator != "none" else None
        c_g_dual = self._update_generator_hidden(c_g, e_pool, probs)

        loss_g, gen_logits, topic_hidden = self.generator.teacher_forcing(
            c_g_dual, document.topic_tokens
        )

        c_e_dual = self._update_extractor_hidden(
            c_e, topic_hidden, probs, enc.token_sentence_index
        )
        ext_logits = self.extractor.logits(c_e_dual)
        loss_e = self.extractor.loss_from_logits(ext_logits, document)

        loss_p = (
            nn.binary_cross_entropy(probs, np.asarray(document.section_labels, dtype=np.float64))
            if probs is not None
            else None
        )
        return JointForward(
            encoder_output=enc,
            section_probs=probs,
            extractor_hidden=c_e,
            generator_hidden=c_g,
            extractor_dual=c_e_dual,
            generator_dual=c_g_dual,
            extraction_logits=ext_logits,
            generation_logits=gen_logits,
            topic_hidden=topic_hidden,
            loss_extraction=loss_e,
            loss_generation=loss_g,
            loss_section=loss_p,
        )

    def loss(self, document: Document) -> nn.Tensor:
        return self.forward(document).total_loss()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _inference_states(self, document: Document):
        enc = self.encoder.encode(document)
        probs = self.section.probabilities(enc.sentence_states) if self.section else None
        c_e = self.extractor.hidden(enc.token_states)
        c_g = self.generator.encode(enc.sentence_states)
        e_pool = self._pooled(c_e, self.attr_pool) if self.config.attr_to_generator != "none" else None
        c_g_dual = self._update_generator_hidden(c_g, e_pool, probs)
        return enc, probs, c_e, c_g_dual

    def predict_topic(self, document: Document, beam_size: int = 4) -> List[str]:
        """Generate the topic phrase with beam search."""
        with nn.no_grad():
            _, _, _, c_g_dual = self._inference_states(document)
            return self.generator.generate(c_g_dual, beam_size=beam_size)

    def predict_attributes(self, document: Document, beam_size: int = 4) -> List[str]:
        """Extract key attributes (topic exchange uses a greedy decode)."""
        return [attr for attr, _ in self.predict_attributes_scored(document, beam_size)]

    def predict_attributes_scored(
        self, document: Document, beam_size: int = 4
    ) -> List[Tuple[str, float]]:
        """Key attributes with span confidence scores (for ranked fallbacks)."""
        with nn.no_grad():
            enc, probs, c_e, c_g_dual = self._inference_states(document)
            topic_hidden = self._greedy_topic_hidden(c_g_dual)
            c_e_dual = self._update_extractor_hidden(
                c_e, topic_hidden, probs, enc.token_sentence_index
            )
            logits = self.extractor.logits(c_e_dual)
            return self.extractor.predict_attributes_with_scores(logits, document)

    def predict_sections(self, document: Document) -> np.ndarray:
        """Hard informative-section predictions (empty config → all ones)."""
        with nn.no_grad():
            enc = self.encoder.encode(document)
            if self.section is None:
                return np.ones(document.num_sentences, dtype=np.int64)
            return self.section.predict(enc.sentence_states)

    def brief(self, document: Document, beam_size: int = 4):
        """Full WB output: (topic tokens, attribute strings)."""
        return self.predict_topic(document, beam_size), self.predict_attributes(document)

    # ------------------------------------------------------------------
    # Batched inference
    # ------------------------------------------------------------------
    def predict_batch(
        self,
        documents: Sequence[Document],
        beam_size: int = 4,
        batch_size: int = 8,
    ) -> List[BriefPrediction]:
        """Brief many documents with padded batched forward passes.

        Documents are length-bucketed so padded batches waste little compute,
        and — unlike the sequential ``predict_*`` trio, which re-encodes the
        document for every head — each document is encoded exactly once.
        Every stage runs once per bucket and hands the next one padded
        ``(B, T, ·)`` blocks with their masks, never per-page pieces: the
        encoder, both Bi-LSTM heads (one Python loop over T), the signal
        exchange (section probabilities, E^b, A_G, Q^b, A_E and both gates,
        through the same helpers the sequential path calls with one page and
        no mask), one set of decode buffers shared by one
        :meth:`TopicGenerator.generate_batch` beam search and one
        :meth:`TopicGenerator.greedy_hidden_batch` greedy pass, and the tag
        layer with its softmax.  Python runs per page only to decode BIO
        spans and slice out its sections.  Results are returned
        in input order and are numerically equivalent to the sequential
        path (identical spans / topic tokens / section decisions).
        """
        documents = list(documents)
        results: List[Optional[BriefPrediction]] = [None] * len(documents)
        with nn.no_grad():
            for batch in iterate_batches(
                list(enumerate(documents)),
                batch_size,
                bucket_by=lambda pair: pair[1].num_tokens,
            ):
                indices = [index for index, _ in batch]
                docs = [document for _, document in batch]
                enc = self.encoder.encode_batch(docs)
                token_mask, sentence_mask = enc.token_mask, enc.sentence_mask
                c_e = self.extractor.hidden_batch(enc.token_states, token_mask)
                c_g = self.generator.encode_batch(enc.sentence_states, sentence_mask)
                # The helpers take no mask where nothing is padded (always at B = 1).
                token_pad, sentence_pad = _if_padded(token_mask), _if_padded(sentence_mask)
                probs = (
                    self.section.probabilities(enc.sentence_states, sentence_pad)
                    if self.section
                    else None
                )
                e_pool = (
                    self._pooled(c_e, self.attr_pool, token_pad)
                    if self.config.attr_to_generator != "none"
                    else None
                )
                c_g_dual = self._update_generator_hidden(c_g, e_pool, probs, sentence_pad)
                buffers = self.generator._batched_decode_buffers(c_g_dual, sentence_pad)
                topics = self.generator.generate_batch(
                    c_g_dual, sentence_pad, beam_size=beam_size, buffers=buffers
                )
                topic_hidden, topic_mask = self.generator.greedy_hidden_batch(
                    c_g_dual, sentence_pad, buffers=buffers
                )
                c_e_dual = self._update_extractor_hidden(
                    c_e, topic_hidden, probs, enc.token_sentence_index, token_pad,
                    _if_padded(topic_mask),
                )
                tags, confidence = self.extractor.tag_confidence(self.extractor.logits(c_e_dual))
                if probs is None:
                    sections = np.ones(sentence_mask.shape, dtype=np.int64)
                else:
                    sections = (probs.data >= 0.5).astype(np.int64)
                lengths = token_mask.sum(axis=1)
                counts = sentence_mask.sum(axis=1)
                for row, (index, document) in enumerate(zip(indices, docs)):
                    length = lengths[row]
                    results[index] = BriefPrediction(
                        topic=topics[row],
                        scored_attributes=self.extractor.scored_spans(
                            tags[row, :length], confidence[row, :length], document
                        ),
                        sections=sections[row, : counts[row]],
                    )
        return results

    def _greedy_topic_hidden(self, memory: nn.Tensor, max_depth: int = 8) -> nn.Tensor:
        """Greedy decode collecting decoder hidden states (for the exchange)."""
        state = self.generator._initial_state(memory)
        previous = self.vocabulary.bos_id
        hiddens: List[nn.Tensor] = []
        for _ in range(max_depth):
            logits, state, hidden = self.generator._step(previous, state, memory)
            hiddens.append(hidden[0])
            previous = int(logits.data.argmax())
            if previous == self.vocabulary.eos_id:
                break
        return nn.stack(hiddens, axis=0)
