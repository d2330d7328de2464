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
    # ------------------------------------------------------------------
    def _inject_section(self, hidden: nn.Tensor, probs: Optional[nn.Tensor], sentence_index: Optional[np.ndarray], dense: nn.Dense) -> nn.Tensor:
        """Section-dependent representation: tanh([H ⊕ Φ(p)] W)."""
        if self.config.section_aware and probs is not None:
            if sentence_index is not None:
                per_row = probs[sentence_index].reshape(-1, 1)
            else:
                per_row = probs.reshape(-1, 1)
            hidden = nn.concatenate([hidden, per_row], axis=-1)
        return dense(hidden)

    @staticmethod
    def _gate(hidden: nn.Tensor, attention: nn.Tensor) -> nn.Tensor:
        """Re-weight rows by attention, scaled to mean-one gating."""
        rows = hidden.shape[0]
        return hidden * (attention.reshape(-1, 1) * float(rows))

    def _update_generator_hidden(
        self,
        c_g: nn.Tensor,
        e_pool: Optional[nn.Tensor],
        probs: Optional[nn.Tensor],
    ) -> nn.Tensor:
        """Section-and-key-attributes dual-aware sentence representations."""
        if self.config.attr_to_generator == "none" or e_pool is None:
            return c_g
        if self.config.pipeline:
            # Pip-Generator: attribute-dependent gate, then section gate.
            rep = (
                nn.concatenate([c_g, nn.Tensor(np.zeros((c_g.shape[0], 1), dtype=c_g.dtype))], axis=-1)
                if self.config.section_aware
                else c_g
            )
            attr_scores = self.attend_sentences(self.sentence_section(rep) * e_pool)
            attention = attr_scores.reshape(-1).softmax(axis=-1)
            gated = self._gate(c_g, attention)
            if self.config.section_aware and probs is not None:
                gated = gated * (probs.reshape(-1, 1) + 0.5)
            return gated
        c_g_b = self._inject_section(c_g, probs, None, self.sentence_section)
        scores = self.attend_sentences(c_g_b * e_pool).reshape(-1)
        attention = scores.softmax(axis=-1)
        return self._gate(c_g, attention)

    def _update_extractor_hidden(
        self,
        c_e: nn.Tensor,
        topic_hidden: Optional[nn.Tensor],
        probs: Optional[nn.Tensor],
        sentence_index: np.ndarray,
    ) -> nn.Tensor:
        """Section-and-topic dual-aware token representations."""
        mode = self.config.topic_to_extractor
        if mode == "none" or topic_hidden is None:
            return c_e
        if mode in ("concat", "average"):
            if mode == "average":
                summary = topic_hidden.mean(axis=0)
            else:
                # "Concat": flatten the decoder states; to stay length-safe we
                # use the last state, the standard fixed-size summary.
                summary = topic_hidden[topic_hidden.shape[0] - 1]
            tiled = nn.stack([summary] * c_e.shape[0], axis=0)
            return self.concat_project(nn.concatenate([c_e, tiled], axis=-1))
        # attention mode
        q_pool = self.topic_pool(topic_hidden.mean(axis=0).reshape(1, -1))  # (1, x)
        if self.config.pipeline:
            rep = (
                nn.concatenate([c_e, nn.Tensor(np.zeros((c_e.shape[0], 1), dtype=c_e.dtype))], axis=-1)
                if self.config.section_aware
                else c_e
            )
            topic_scores = self.attend_tokens.scores(self.token_section(rep), q_pool)
            attention = topic_scores.reshape(-1).softmax(axis=-1)
            gated = self._gate(c_e, attention)
            if self.config.section_aware and probs is not None:
                token_probs = probs[sentence_index]
                gated = gated * (token_probs.reshape(-1, 1) + 0.5)
            return gated
        c_e_b = self._inject_section(c_e, probs, sentence_index, self.token_section)
        scores = self.attend_tokens.scores(c_e_b, q_pool).reshape(-1)
        attention = scores.softmax(axis=-1)
        return self._gate(c_e, attention)

    # ------------------------------------------------------------------
    # Forward / loss
    # ------------------------------------------------------------------
    def forward(self, document: Document) -> JointForward:
        """Teacher-forced joint forward pass with all losses."""
        enc = self.encoder.encode(document)
        probs = self.section.probabilities(enc.sentence_states) if self.section else None

        c_e = self.extractor.hidden(enc.token_states)
        c_g = self.generator.encode(enc.sentence_states)

        e_pool = (
            self.attr_pool(c_e.mean(axis=0).reshape(1, -1))
            if self.config.attr_to_generator != "none"
            else None
        )
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
        e_pool = (
            self.attr_pool(c_e.mean(axis=0).reshape(1, -1))
            if self.config.attr_to_generator != "none"
            else None
        )
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
        the encoder and both Bi-LSTM heads run once per batch (one Python
        loop over T for the whole bucket), and — unlike the sequential
        ``predict_*`` trio, which re-encodes the document for every head —
        each document is encoded exactly once.  Topic decoding also batches
        across pages: one :meth:`TopicGenerator.generate_batch` beam search
        and one :meth:`TopicGenerator.greedy_hidden_batch` greedy pass per
        bucket advance every page's hypotheses together, instead of one
        scalar decode per document.  Results are returned in input order and
        are numerically equivalent to the sequential path (identical spans /
        topic tokens / section decisions).
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
                encs = self.encoder.encode_batch(docs)
                c_e_list = self.extractor.hidden_batch([enc.token_states for enc in encs])
                c_g_list = self.generator.encode_batch([enc.sentence_states for enc in encs])
                probs_list = [
                    self.section.probabilities(enc.sentence_states) if self.section else None
                    for enc in encs
                ]
                c_g_duals = []
                for c_e, c_g, probs in zip(c_e_list, c_g_list, probs_list):
                    e_pool = (
                        self.attr_pool(c_e.mean(axis=0).reshape(1, -1))
                        if self.config.attr_to_generator != "none"
                        else None
                    )
                    c_g_duals.append(self._update_generator_hidden(c_g, e_pool, probs))
                topics = self.generator.generate_batch(c_g_duals, beam_size=beam_size)
                topic_hiddens = self.generator.greedy_hidden_batch(c_g_duals)
                for index, document, enc, c_e, probs, topic, topic_hidden in zip(
                    indices, docs, encs, c_e_list, probs_list, topics, topic_hiddens
                ):
                    results[index] = self._finish_prediction(
                        document, enc, c_e, probs, topic, topic_hidden
                    )
        return results

    def _finish_prediction(
        self,
        document: Document,
        enc: EncoderOutput,
        c_e: nn.Tensor,
        probs: Optional[nn.Tensor],
        topic: List[str],
        topic_hidden: nn.Tensor,
    ) -> BriefPrediction:
        """Per-document extractor tail on top of batch-decoded topic signals."""
        c_e_dual = self._update_extractor_hidden(
            c_e, topic_hidden, probs, enc.token_sentence_index
        )
        logits = self.extractor.logits(c_e_dual)
        scored = self.extractor.predict_attributes_with_scores(logits, document)
        if probs is None:
            sections = np.ones(document.num_sentences, dtype=np.int64)
        else:
            sections = (probs.data >= 0.5).astype(np.int64)
        return BriefPrediction(topic=topic, scored_attributes=scored, sections=sections)

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
