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
  one row of a fused no-grad step (cached attention key projections,
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

    #: Which batched decode step to use: ``"reference"`` (the bit-exact float
    #: path, arena-aware) or ``"fused"`` (grouped per-page GEMMs + packed
    #: cell — the quantized fast path, bound by task-metric tolerance, not
    #: bit-exactness).  ``nn.quantize_module`` flips this on quantized copies;
    #: a class-level default keeps old pickles on the reference kernel.
    _decode_kernel = "reference"

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
    def encode(self, sentence_states: nn.Tensor, extra: Optional[nn.Tensor] = None) -> nn.Tensor:
        """Hidden sentence representations ``C_G`` of shape ``(m, 2h)``."""
        return self.dropout(self.encoder(self._inputs(sentence_states, extra)))

    def encode_batch(
        self,
        sentence_states: Sequence[nn.Tensor],
        extras: Optional[Sequence[Optional[nn.Tensor]]] = None,
    ) -> List[nn.Tensor]:
        """Per-document ``C_G`` from one padded masked BiLSTM pass."""
        if not sentence_states:
            return []
        if extras is None:
            extras = [None] * len(sentence_states)
        inputs = [self._inputs(s, e) for s, e in zip(sentence_states, extras)]
        padded, mask = nn.pad_stack(inputs)
        hidden = self.dropout(self.encoder(padded, mask=mask))
        return nn.unpad_stack(hidden, mask)

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
        self, memories: Sequence[nn.Tensor]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-batch decode state shared by every step and beam.

        Pads the per-page memories into one ``(P, M, 2h)`` block with a key
        mask, projects the attention keys **once** per page (reused by every
        decoder step of every hypothesis — the per-page key cache), and
        computes the initial decoder states exactly like
        :meth:`_initial_state` does per page (mean summary → tanh dense).
        Returns raw numpy ``(padded, mask, proj_keys, h0, c0)``.
        """
        mems = [nn.as_tensor(memory).data for memory in memories]
        num_pages = len(mems)
        width = max(m.shape[0] for m in mems)
        padded = np.zeros((num_pages, width, mems[0].shape[1]), dtype=mems[0].dtype)
        mask = np.zeros((num_pages, width), dtype=bool)
        for i, m in enumerate(mems):
            padded[i, : m.shape[0]] = m
            mask[i, : m.shape[0]] = True
        proj_keys = self.attention.precompute_keys(padded)
        # Mean over real rows only; padded rows are exact zeros so the sum is
        # bit-identical to the unpadded per-page sum.
        counts = mask.sum(axis=1)
        summaries = padded.sum(axis=1) * (1.0 / counts).astype(padded.dtype)[:, None]
        h0 = self.state_init(nn.Tensor(summaries)).data
        c0 = np.zeros_like(h0)
        return padded, mask, proj_keys, h0, c0

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
        """One fused decode step for ``N`` hypotheses → (logits, h_new, c_new).

        Raw numpy mirror of :meth:`_step` — same arithmetic per row (cached
        key projections replace the re-projected bilinear form, and the
        masked softmax gives padded key rows exactly zero weight, which
        matches the unpadded softmax bitwise) — without autograd nodes.
        ``pages`` routes each hypothesis row to its page's memory block.
        """
        arena = nn.current_arena()
        if arena is not None and h.dtype == padded.dtype == proj_keys.dtype:
            return self._batched_raw_step_arena(
                token_ids, h, c, pages, padded, mask, proj_keys
            )
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

    def _batched_raw_step_arena(
        self,
        token_ids: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        pages: np.ndarray,
        padded: np.ndarray,
        mask: np.ndarray,
        proj_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reference step written into arena ring buffers.

        Every operation is the exact counterpart of :meth:`_batched_raw_step`
        (``np.take`` for fancy gathers, ufuncs with ``out=``, ``np.copyto``
        with ``where=`` for the masked selects) in the same order — results
        are bit-identical, pinned by tests/nn/test_arena.py; only the
        per-step allocations disappear.  ``live`` accumulates every issued
        buffer so no two overlapping intermediates ever share storage.
        """
        arena = nn.current_arena()
        n_rows = h.shape[0]
        width = padded.shape[1]
        two_h = padded.shape[2]
        hd = h.shape[1]
        dtype = h.dtype
        live = [h, c]

        def buf(shape, dt=dtype):
            buffer = arena.get(shape, dt, avoid=live)
            live.append(buffer)
            return buffer

        keys = buf((n_rows, width, proj_keys.shape[2]))
        np.take(proj_keys, pages, axis=0, out=keys)
        scores = buf((n_rows, width))
        self.attention.scores_from_keys(h, keys, out=scores)
        keep = buf((n_rows, width), np.bool_)
        np.take(mask, pages, axis=0, out=keep)
        notkeep = buf((n_rows, width), np.bool_)
        np.logical_not(keep, out=notkeep)
        masked = buf((n_rows, width))
        np.copyto(masked, scores)
        np.copyto(masked, dtype.type(-np.inf), where=notkeep)
        row_max = buf((n_rows, 1))
        np.max(masked, axis=-1, keepdims=True, out=row_max)
        nonfinite = buf((n_rows, 1), np.bool_)
        np.isfinite(row_max, out=nonfinite)
        np.logical_not(nonfinite, out=nonfinite)
        np.copyto(row_max, 0.0, where=nonfinite)
        np.subtract(scores, row_max, out=masked)  # masked's select is consumed
        np.exp(masked, out=masked)
        np.copyto(masked, 0.0, where=notkeep)
        total = buf((n_rows, 1))
        np.sum(masked, axis=-1, keepdims=True, out=total)
        np.equal(total, 0.0, out=nonfinite)
        np.copyto(total, 1.0, where=nonfinite)
        np.divide(masked, total, out=masked)  # attention weights
        memory = buf((n_rows, width, two_h))
        np.take(padded, pages, axis=0, out=memory)
        context3 = buf((n_rows, 1, two_h))
        np.matmul(masked[:, None, :], memory, out=context3)
        context = context3[:, 0, :]
        embed_table = self.embedding.weight.data
        embed_dim = embed_table.shape[1]
        embedded = buf((n_rows, embed_dim))
        np.take(embed_table, np.asarray(token_ids, dtype=np.int64), axis=0, out=embedded)
        cell_in = buf((n_rows, embed_dim + two_h))
        cell_in[:, :embed_dim] = embedded
        cell_in[:, embed_dim:] = context
        h_new, c_new = self.cell.step_inference(cell_in, (h, c))
        live.extend([h_new, c_new])
        out_in = buf((n_rows, hd + two_h))
        out_in[:, :hd] = h_new
        out_in[:, hd:] = context
        logits = buf((n_rows, self.output.weight.data.shape[1]))
        np.matmul(out_in, self.output.weight.data, out=logits)
        np.add(logits, self.output.bias.data, out=logits)
        return logits, h_new, c_new

    def _batched_raw_step_fused(
        self,
        token_ids: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        pages: np.ndarray,
        padded: np.ndarray,
        mask: np.ndarray,
        proj_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantized fast kernel: page-blocked GEMMs + packed cell step.

        ``batched_beam_search_many`` keeps hypothesis rows grouped by
        sequence in ascending page order, so attention scoring and context
        mixing run directly against each page's memory block — replacing
        the reference path's einsum and its per-step ``(N, M, 2h)`` gather
        copies.  When every live page carries the same number of rows (the
        steady state: ``beam_size`` hypotheses per page) the whole batch is
        two stacked ``(P, B, ·) @ (P, ·, ·)`` GEMM calls; ragged row counts
        fall back to one GEMM per page.  Masked lanes are driven to exactly
        zero weight via ``exp(-inf) == 0``.  Same math, different summation
        order — covered by the task-metric tolerance contract, not
        bit-exactness (the reference kernel stays the executable spec).
        """
        dtype = h.dtype
        if (
            padded.dtype != dtype
            or proj_keys.dtype != dtype
            or self.embedding.weight.data.dtype != dtype
            or (pages.size > 1 and np.any(pages[1:] < pages[:-1]))
        ):
            return self._batched_raw_step(token_ids, h, c, pages, padded, mask, proj_keys)
        n_rows = h.shape[0]
        width = padded.shape[1]
        two_h = padded.shape[2]
        hd = h.shape[1]
        live = [h, c]

        def buf(shape, dt=dtype):
            buffer = nn.scratch(shape, dt, avoid=live)
            live.append(buffer)
            return buffer

        if n_rows:
            boundary = np.empty(n_rows, dtype=bool)
            boundary[0] = True
            np.not_equal(pages[1:], pages[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            ends = np.empty(starts.size, dtype=np.intp)
            ends[:-1] = starts[1:]
            ends[-1] = n_rows
        else:
            starts = ends = np.empty(0, np.intp)
        sizes = ends - starts
        num_pages = starts.size
        uniform = num_pages > 0 and int(sizes.min()) == int(sizes.max())
        if uniform:
            # Steady state: every live page has the same B rows.  Two stacked
            # batched GEMMs cover scoring and context mixing for the whole
            # step — no per-page Python loop, no (N, M, 2h) gather copies.
            rows_per_page = int(sizes[0])
            uniq = pages[starts]
            if int(uniq[-1]) - int(uniq[0]) == num_pages - 1:
                # Consecutive live pages: slice views, no copies at all.
                span = slice(int(uniq[0]), int(uniq[-1]) + 1)
                keys, memory, keep_pages = proj_keys[span], padded[span], mask[span]
            else:
                keys = buf((num_pages, width, two_h))
                np.take(proj_keys, uniq, axis=0, out=keys)
                memory = buf((num_pages, width, two_h))
                np.take(padded, uniq, axis=0, out=memory)
                keep_pages = buf((num_pages, width), np.bool_)
                np.take(mask, uniq, axis=0, out=keep_pages)
            scores3 = buf((num_pages, rows_per_page, width))
            np.matmul(h.reshape(num_pages, rows_per_page, hd), keys.transpose(0, 2, 1), out=scores3)
            notkeep = buf((num_pages, width), np.bool_)
            np.logical_not(keep_pages, out=notkeep)
            np.copyto(scores3, dtype.type(-np.inf), where=notkeep[:, None, :])
            row_max = buf((num_pages, rows_per_page, 1))
            np.max(scores3, axis=-1, keepdims=True, out=row_max)
            nonfinite = buf((num_pages, rows_per_page, 1), np.bool_)
            np.isfinite(row_max, out=nonfinite)
            np.logical_not(nonfinite, out=nonfinite)
            np.copyto(row_max, 0.0, where=nonfinite)
            np.subtract(scores3, row_max, out=scores3)
            np.exp(scores3, out=scores3)  # masked lanes: exp(-inf) == 0 exactly
            total = buf((num_pages, rows_per_page, 1))
            np.sum(scores3, axis=-1, keepdims=True, out=total)
            np.equal(total, 0.0, out=nonfinite)
            np.copyto(total, 1.0, where=nonfinite)
            np.divide(scores3, total, out=scores3)  # attention weights
            context3 = buf((num_pages, rows_per_page, two_h))
            np.matmul(scores3, memory, out=context3)
            context = context3.reshape(n_rows, two_h)
        else:
            groups = [(int(s), int(e), int(pages[s])) for s, e in zip(starts, ends)]
            scores = buf((n_rows, width))
            for s, e, p in groups:
                np.matmul(h[s:e], proj_keys[p].T, out=scores[s:e])
            keep = buf((n_rows, width), np.bool_)
            np.take(mask, pages, axis=0, out=keep)
            np.logical_not(keep, out=keep)
            np.copyto(scores, dtype.type(-np.inf), where=keep)
            row_max = buf((n_rows, 1))
            np.max(scores, axis=-1, keepdims=True, out=row_max)
            nonfinite = buf((n_rows, 1), np.bool_)
            np.isfinite(row_max, out=nonfinite)
            np.logical_not(nonfinite, out=nonfinite)
            np.copyto(row_max, 0.0, where=nonfinite)
            np.subtract(scores, row_max, out=scores)
            np.exp(scores, out=scores)  # masked lanes: exp(-inf) == 0 exactly
            total = buf((n_rows, 1))
            np.sum(scores, axis=-1, keepdims=True, out=total)
            np.equal(total, 0.0, out=nonfinite)
            np.copyto(total, 1.0, where=nonfinite)
            np.divide(scores, total, out=scores)  # attention weights
            context = buf((n_rows, two_h))
            for s, e, p in groups:
                np.matmul(scores[s:e], padded[p], out=context[s:e])
        embed_table = self.embedding.weight.data
        embed_dim = embed_table.shape[1]
        embedded = buf((n_rows, embed_dim))
        np.take(embed_table, np.asarray(token_ids, dtype=np.int64), axis=0, out=embedded)
        cell_in = buf((n_rows, embed_dim + two_h))
        cell_in[:, :embed_dim] = embedded
        cell_in[:, embed_dim:] = context
        h_new, c_new = self.cell.step_inference(cell_in, (h, c))
        live.extend([h_new, c_new])
        out_in = buf((n_rows, hd + two_h))
        out_in[:, :hd] = h_new
        out_in[:, hd:] = context
        logits = buf((n_rows, self.output.weight.data.shape[1]))
        np.matmul(out_in, self.output.weight.data, out=logits)
        np.add(logits, self.output.bias.data, out=logits)
        return logits, h_new, c_new

    def _decode_step(self):
        """The batched step implementation selected by ``_decode_kernel``."""
        if self._decode_kernel == "fused":
            return self._batched_raw_step_fused
        return self._batched_raw_step

    @staticmethod
    def _log_softmax_raw(logits: np.ndarray, keep_live=()) -> np.ndarray:
        """Row-wise log-softmax for the beam, arena-aware and bit-exact.

        The arena branch runs the identical operation sequence (max,
        subtract, exp, sum, log, subtract) with ``out=`` into ring buffers;
        ``keep_live`` lists caller-held buffers that must not be recycled.
        """
        arena = nn.current_arena()
        if arena is None:
            shifted = logits - logits.max(axis=-1, keepdims=True)
            return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        avoid = [logits, *keep_live]
        row_max = arena.get((logits.shape[0], 1), logits.dtype, avoid=avoid)
        np.max(logits, axis=-1, keepdims=True, out=row_max)
        np.subtract(logits, row_max, out=logits)  # logits is dead: shift in place
        avoid.append(row_max)
        exp = arena.get(logits.shape, logits.dtype, avoid=avoid)
        np.exp(logits, out=exp)
        np.sum(exp, axis=-1, keepdims=True, out=row_max)
        np.log(row_max, out=row_max)
        np.subtract(logits, row_max, out=logits)
        return logits

    def generate_batch(
        self,
        memories: Sequence[nn.Tensor],
        beam_size: int = 4,
        max_depth: int = 8,
        margins: Optional[List[float]] = None,
    ) -> List[List[str]]:
        """Beam-search topic phrases for many pages with fused per-depth steps.

        Equivalent to ``[self.generate(m, beam_size, max_depth) for m in
        memories]`` — same top hypothesis per page — but every live beam of
        every page advances in one :meth:`_batched_raw_step` call per depth.
        Pass a list as ``margins`` to receive one beam-score margin per page
        (same semantics as :meth:`generate`; the batched search replicates
        the scalar hypothesis scores bitwise, so the margins agree too).
        """
        memories = list(memories)
        if not memories:
            return []
        with nn.no_grad():
            padded, mask, proj_keys, h0, c0 = self._batched_decode_buffers(memories)
            raw_step = self._decode_step()

            def step_fn(token_ids, state):
                h, c, pages = state
                logits, h_new, c_new = raw_step(
                    token_ids, h, c, pages, padded, mask, proj_keys
                )
                log_probs = self._log_softmax_raw(logits, keep_live=(h_new, c_new))
                return log_probs, (h_new, c_new, pages)

            # Resolved through ``nn`` at call time so wrappers installed on
            # the package attribute see every decode.
            results = nn.batched_beam_search_many(
                step_fn,
                (h0, c0, np.arange(len(memories), dtype=np.intp)),
                start_id=self.vocabulary.bos_id,
                end_id=self.vocabulary.eos_id,
                num_sequences=len(memories),
                beam_size=beam_size,
                max_depth=max_depth,
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
        self, memories: Sequence[nn.Tensor], max_depth: int = 8
    ) -> List[nn.Tensor]:
        """Greedy decode collecting decoder hidden states, batched over pages.

        Per-page equivalent of ``JointWBModel._greedy_topic_hidden`` (hidden
        states appended each step *including* the EOS-producing one); one
        fused step per depth drives every still-live page.
        """
        memories = list(memories)
        if not memories:
            return []
        with nn.no_grad():
            padded, mask, proj_keys, h, c = self._batched_decode_buffers(memories)
            num_pages = len(memories)
            pages = np.arange(num_pages, dtype=np.intp)
            tokens = np.full(num_pages, self.vocabulary.bos_id, dtype=np.int64)
            hiddens: List[List[np.ndarray]] = [[] for _ in range(num_pages)]
            raw_step = self._decode_step()
            for _ in range(max_depth):
                logits, h, c = raw_step(
                    tokens, h, c, pages, padded, mask, proj_keys
                )
                for row, page in enumerate(pages):
                    # Copy: under the arena, h's storage is recycled by the
                    # next step, so stored rows must own their data.
                    hiddens[page].append(h[row].copy())
                tokens = logits.argmax(axis=-1)
                live = tokens != self.vocabulary.eos_id
                if not live.any():
                    break
                pages, tokens, h, c = pages[live], tokens[live], h[live], c[live]
            return [nn.Tensor(np.stack(rows, axis=0)) for rows in hiddens]
