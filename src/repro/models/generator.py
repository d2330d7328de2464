"""Topic generator ``G``: attention encoder-decoder over sentence states.

Paper §III-C: the generator converts sentence representations ``C^0`` to
hidden sentence representations ``C_G`` with a Bi-LSTM and decodes a fluent
topic phrase with an LSTM.  We add standard bilinear attention from the
decoder state over ``C_G`` (the paper's joint variants are attention-based,
and the decoder needs a differentiable view of the document).

The module exposes:

* :meth:`encode` — ``C_G`` (hook point for the dual-aware update);
* :meth:`teacher_forcing` — per-step logits + decoder hidden states ``Q``
  (``Q`` feeds Joint-WB's integrated topic representation and the
  distillation losses);
* :meth:`generate` — beam-search inference (§IV-A5 uses beam search with
  depth 4);
* :meth:`generate_batch` / :meth:`greedy_hidden_batch` — the vectorized
  decode fast path: every live hypothesis of every page in a micro-batch is
  one row of a single no-grad step (cached attention key projections,
  :meth:`~repro.nn.LSTMCell.step_inference` gate kernel), so decode costs
  ``max_depth`` step calls per batch instead of one Python-level model call
  per hypothesis per step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..data.vocab import Vocabulary

__all__ = ["TopicGenerator"]

#: ``(padded, mask, proj_keys, h0, c0)`` from ``_batched_decode_buffers``.
DecodeBuffers = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _beam_margin(hypotheses) -> float:
    """Log-probability gap between the best and runner-up hypotheses.

    Both beam implementations return hypotheses sorted best-first with
    float64 accumulated log-probabilities, so this is a pure function of the
    search result — identical across the scalar and batched decode paths.
    """
    if len(hypotheses) < 2:
        return float("inf")
    return float(hypotheses[0].score - hypotheses[1].score)


class TopicGenerator(nn.Module):
    """Bi-LSTM encoder + attentive LSTM decoder producing a topic phrase."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        vocabulary: Vocabulary,
        rng: np.random.Generator,
        embed_dim: Optional[int] = None,
        extra_dim: int = 0,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        embed_dim = embed_dim or hidden_dim
        self.vocabulary = vocabulary
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.extra_dim = extra_dim
        self.encoder = nn.BiLSTM(input_dim + extra_dim, hidden_dim, rng)
        self.dropout = nn.Dropout(dropout, rng)
        self.embedding = nn.Embedding(len(vocabulary), embed_dim, rng, padding_idx=vocabulary.pad_id)
        self.state_init = nn.Dense(2 * hidden_dim, hidden_dim, rng, activation="tanh")
        self.cell = nn.LSTMCell(embed_dim + 2 * hidden_dim, hidden_dim, rng)
        self.attention = nn.BilinearAttention(hidden_dim, 2 * hidden_dim, rng)
        self.output = nn.Dense(3 * hidden_dim, len(vocabulary), rng)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(
        self,
        sentence_states: nn.Tensor,
        extra: Optional[nn.Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> nn.Tensor:
        """Hidden sentence representations ``C_G`` of shape ``(m, 2h)``.

        Also takes a padded ``(B, M, d)`` bucket with its ``(B, M)`` mask and
        returns ``(B, M, 2h)``.
        """
        return self.dropout(self.encoder(self._inputs(sentence_states, extra), mask=mask))

    def encode_batch(self, sentence_states: nn.Tensor, mask: np.ndarray) -> nn.Tensor:
        """``C_G`` of a padded bucket from one masked BiLSTM pass."""
        return self.encode(sentence_states, mask=mask)

    def _inputs(self, sentence_states: nn.Tensor, extra: Optional[nn.Tensor]) -> nn.Tensor:
        inputs = nn.as_tensor(sentence_states)
        if self.extra_dim:
            if extra is None:
                raise ValueError("generator built with extra_dim but no extra features given")
            inputs = nn.concatenate([inputs, nn.as_tensor(extra)], axis=-1)
        return inputs

    def _initial_state(self, memory: nn.Tensor) -> Tuple[nn.Tensor, nn.Tensor]:
        summary = memory.mean(axis=0)
        h = self.state_init(summary.reshape(1, -1))
        c = nn.Tensor(np.zeros_like(h.data))
        return h, c

    def _step(
        self,
        token_id: int,
        state: Tuple[nn.Tensor, nn.Tensor],
        memory: nn.Tensor,
    ) -> Tuple[nn.Tensor, Tuple[nn.Tensor, nn.Tensor], nn.Tensor]:
        """One decode step → (logits (1, V), new_state, hidden (1, h))."""
        h_prev, _ = state
        weights = self.attention(h_prev, memory)       # (1, m)
        context = weights @ memory                     # (1, 2h)
        embedded = self.embedding(np.asarray([token_id]))
        cell_in = nn.concatenate([embedded, context], axis=-1)
        h, new_state = self.cell(cell_in, state)
        logits = self.output(nn.concatenate([h, context], axis=-1))
        return logits, new_state, h

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def target_ids(self, topic_tokens: Sequence[str]) -> List[int]:
        """Gold decode sequence: topic token ids followed by [EOS]."""
        return self.vocabulary.encode(list(topic_tokens)) + [self.vocabulary.eos_id]

    def teacher_forcing(
        self, memory: nn.Tensor, topic_tokens: Sequence[str]
    ) -> Tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        """Teacher-forced decode.

        Returns ``(loss, step_logits (n, V), hidden_states Q (n, h))`` where
        ``n = len(topic) + 1`` (the +1 is the [EOS] step).
        """
        targets = self.target_ids(topic_tokens)
        state = self._initial_state(memory)
        previous = self.vocabulary.bos_id
        logits_rows: List[nn.Tensor] = []
        hidden_rows: List[nn.Tensor] = []
        for target in targets:
            logits, state, hidden = self._step(previous, state, memory)
            logits_rows.append(logits[0])
            hidden_rows.append(hidden[0])
            previous = target
        step_logits = nn.stack(logits_rows, axis=0)
        hidden_states = nn.stack(hidden_rows, axis=0)
        loss = nn.cross_entropy(step_logits, np.asarray(targets))
        return loss, step_logits, hidden_states

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def generate(
        self,
        memory: nn.Tensor,
        beam_size: int = 4,
        max_depth: int = 8,
        margins: Optional[List[float]] = None,
    ) -> List[str]:
        """Beam-search a topic phrase; returns decoded tokens.

        Pass a list as ``margins`` to also receive the beam-score margin —
        the log-probability gap between the best and runner-up hypotheses
        (``inf`` when the beam held a single hypothesis).  The margin is the
        decoder's own confidence signal: a small gap means the beam nearly
        picked a different topic.
        """
        with nn.no_grad():
            def step_fn(token_id: int, state):
                logits, new_state, _ = self._step(token_id, state, memory)
                log_probs = logits.log_softmax(axis=-1).data[0]
                return log_probs, new_state

            hypotheses = nn.beam_search(
                step_fn,
                self._initial_state(memory),
                start_id=self.vocabulary.bos_id,
                end_id=self.vocabulary.eos_id,
                beam_size=beam_size,
                max_depth=max_depth,
            )
        if margins is not None:
            margins.append(_beam_margin(hypotheses))
        best = hypotheses[0].tokens[1:]
        if best and best[-1] == self.vocabulary.eos_id:
            best = best[:-1]
        return self.vocabulary.decode(best, skip_special=True)

    # ------------------------------------------------------------------
    # Vectorized decode fast path
    # ------------------------------------------------------------------
    def _batched_decode_buffers(
        self, memories: nn.Tensor, mask: Optional[np.ndarray] = None
    ) -> DecodeBuffers:
        """Per-bucket decode state shared by every step and beam.

        Takes the padded ``(P, M, 2h)`` memory block and its ``(P, M)`` mask
        (None: no padding), zeroes the padded rows, projects the attention
        keys **once** per page (reused by every decoder step of every
        hypothesis — the per-page key cache), and computes the initial
        decoder states exactly like :meth:`_initial_state` does per page
        (mean summary → tanh dense).  Returns raw numpy
        ``(padded, mask, proj_keys, h0, c0)``.
        """
        padded = nn.as_tensor(memories).data
        if mask is None:
            mask = np.ones(padded.shape[:2], dtype=bool)
        elif not mask.all():
            padded = np.where(mask[..., None], padded, np.zeros((), dtype=padded.dtype))
        proj_keys = self.attention.precompute_keys(padded)
        # Mean over real rows only; padded rows are exact zeros so the sum is
        # bit-identical to the unpadded per-page sum.
        counts = mask.sum(axis=1)
        summaries = padded.sum(axis=1) * (1.0 / counts).astype(padded.dtype)[:, None]
        h0 = self.state_init(nn.Tensor(summaries)).data
        return padded, mask, proj_keys, h0, np.zeros_like(h0)

    def _batched_raw_step(
        self,
        token_ids: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        pages: np.ndarray,
        padded: np.ndarray,
        mask: np.ndarray,
        proj_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched decode step for ``N`` hypotheses → (logits, h_new, c_new).

        Raw numpy mirror of :meth:`_step` — same arithmetic per row (cached
        key projections replace the re-projected bilinear form, and the
        masked softmax gives padded key rows exactly zero weight, which
        matches the unpadded softmax bitwise) — without autograd nodes.
        ``pages`` routes each hypothesis row to its page's memory block.
        """
        scores = self.attention.scores_from_keys(h, proj_keys[pages])  # (N, M)
        keep = mask[pages]
        neg_inf = np.array(-np.inf, dtype=scores.dtype)
        row_max = np.where(keep, scores, neg_inf).max(axis=-1, keepdims=True)
        row_max = np.where(np.isfinite(row_max), row_max, 0.0)
        exp = np.where(keep, np.exp(scores - row_max), 0.0)
        total = exp.sum(axis=-1, keepdims=True)
        weights = exp / np.where(total == 0.0, 1.0, total)
        context = np.matmul(weights[:, None, :], padded[pages])[:, 0, :]  # (N, 2h)
        embedded = self.embedding.weight.data[np.asarray(token_ids, dtype=np.int64)]
        cell_in = np.concatenate([embedded, context], axis=-1)
        h_new, c_new = self.cell.step_inference(cell_in, (h, c))
        logits = (
            np.concatenate([h_new, context], axis=-1) @ self.output.weight.data
            + self.output.bias.data
        )
        return logits, h_new, c_new

    @staticmethod
    def _log_softmax_raw(logits: np.ndarray) -> np.ndarray:
        """Row-wise log-softmax for the beam (no autograd)."""
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def generate_batch(
        self,
        memories: nn.Tensor,
        mask: Optional[np.ndarray] = None,
        beam_size: int = 4,
        max_depth: int = 8,
        margins: Optional[List[float]] = None,
        buffers: Optional[DecodeBuffers] = None,
    ) -> List[List[str]]:
        """Beam-search topic phrases for a bucket with one step per depth.

        ``memories`` is the padded ``(P, M, 2h)`` block of the pages'
        ``C_G`` and ``mask`` its real rows (None: no padding); pass
        ``buffers`` from :meth:`_batched_decode_buffers` to share them with
        :meth:`greedy_hidden_batch`.  Equivalent to :meth:`generate` on each
        page's real rows — same top hypothesis per page — but every live
        beam of every page advances in one :meth:`_batched_raw_step` call
        per depth.  Pass a list as ``margins`` to receive one beam-score
        margin per page (same semantics as :meth:`generate`; the batched
        search replicates the scalar hypothesis scores bitwise, so the
        margins agree too).

        The topic needs the best hypothesis and the margin the runner-up, so
        the search runs with ``n_best=2``: a page stops expanding hypotheses
        that score at or below its second-best finished one.  The
        max-shifted :meth:`_log_softmax_raw` keeps every log-prob ``<= 0``,
        which that pruning needs.
        """
        if len(memories) == 0:
            return []
        with nn.no_grad():
            padded, mask, proj_keys, h0, c0 = buffers or self._batched_decode_buffers(memories, mask)

            def step_fn(token_ids, state):
                h, c, pages = state
                logits, h_new, c_new = self._batched_raw_step(
                    token_ids, h, c, pages, padded, mask, proj_keys
                )
                return self._log_softmax_raw(logits), (h_new, c_new, pages)

            # Resolved through ``nn`` at call time so wrappers installed on
            # the package attribute see every decode.
            results = nn.batched_beam_search_many(
                step_fn,
                (h0, c0, np.arange(len(padded), dtype=np.intp)),
                start_id=self.vocabulary.bos_id,
                end_id=self.vocabulary.eos_id,
                num_sequences=len(padded),
                beam_size=beam_size,
                max_depth=max_depth,
                n_best=2,
            )
        decoded: List[List[str]] = []
        for hypotheses in results:
            if margins is not None:
                margins.append(_beam_margin(hypotheses))
            best = hypotheses[0].tokens[1:]
            if best and best[-1] == self.vocabulary.eos_id:
                best = best[:-1]
            decoded.append(self.vocabulary.decode(best, skip_special=True))
        return decoded

    def greedy_hidden_batch(
        self,
        memories: nn.Tensor,
        mask: Optional[np.ndarray] = None,
        max_depth: int = 8,
        buffers: Optional[DecodeBuffers] = None,
    ) -> Tuple[nn.Tensor, np.ndarray]:
        """Greedy decode collecting decoder hidden states, batched over pages.

        Per-page equivalent of ``JointWBModel._greedy_topic_hidden`` (hidden
        states appended each step *including* the EOS-producing one); one
        batched step per depth drives every still-live page.  Takes the same
        padded memory block, mask and optional ``buffers`` as
        :meth:`generate_batch`; returns the zero-padded ``(P, N, h)`` block
        of hidden states and the ``(P, N)`` mask of each page's steps.
        """
        if len(memories) == 0:
            return nn.Tensor(np.zeros((0, 0, self.hidden_dim))), np.zeros((0, 0), dtype=bool)
        with nn.no_grad():
            padded, mask, proj_keys, h, c = buffers or self._batched_decode_buffers(memories, mask)
            num_pages = len(padded)
            pages = np.arange(num_pages, dtype=np.intp)
            tokens = np.full(num_pages, self.vocabulary.bos_id, dtype=np.int64)
            hiddens = np.zeros((num_pages, max_depth, self.hidden_dim), dtype=h.dtype)
            steps = np.zeros((num_pages, max_depth), dtype=bool)
            for depth in range(max_depth):
                logits, h, c = self._batched_raw_step(
                    tokens, h, c, pages, padded, mask, proj_keys
                )
                hiddens[pages, depth] = h
                steps[pages, depth] = True
                tokens = logits.argmax(axis=-1)
                live = tokens != self.vocabulary.eos_id
                if not live.any():
                    break
                pages, tokens, h, c = pages[live], tokens[live], h[live], c[live]
            taken = depth + 1
            return nn.Tensor(hiddens[:, :taken]), steps[:, :taken]
