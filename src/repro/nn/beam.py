"""Beam-search decoding for the topic generator.

The paper uses beam search at inference (beam size 200, depth 4 — §IV-A5).
This module implements a model-agnostic beam search over a step function so it
can be reused by every generator variant (single-task, joint baselines,
Joint-WB, distilled students).

Two implementations share the ranking semantics:

* :func:`beam_search` — the scalar spec: one :data:`StepFn` call per live
  hypothesis per depth.  A row expands in log-prob order, ties to the
  higher token id; candidates rank by normalised score, ties to the
  earlier place (beam slot, then rank in the row).
* :func:`batched_beam_search` / :func:`batched_beam_search_many` — the one
  batched host: every live hypothesis (across every sequence in a
  micro-batch) is one row of a single :data:`BatchStepFn` call, so a
  depth-``D`` decode costs ``D`` step calls instead of ``~D·beam_size``
  per sequence.  Selection is a partial top-``beam_size`` per sequence in
  numpy with the spec's exact tie rule: token sequences, scores and
  hypothesis order are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, List, Optional, Tuple

import numpy as np

from .arena import current_arena
from .tensor import Tensor

__all__ = [
    "BeamHypothesis",
    "beam_search",
    "batched_beam_search",
    "batched_beam_search_many",
    "batched_beam_search_many_fast",
    "gather_beam_state",
    "greedy_decode",
]

# A step function maps (token_id, decoder_state) -> (log_probs, new_state).
StepFn = Callable[[int, object], Tuple[np.ndarray, object]]

#: A batched step function maps ``(token_ids (N,), state)`` to
#: ``(log_probs (N, V), new_state)``.  The state is an array (or an
#: arbitrarily nested tuple/list of arrays/tensors, or ``None``) whose leading
#: dimension indexes the ``N`` live hypotheses, so the search can reorder it
#: with :func:`gather_beam_state` after each expansion.
BatchStepFn = Callable[[np.ndarray, object], Tuple[np.ndarray, object]]


def gather_beam_state(state, indices: np.ndarray):
    """Select rows of a batched decoder state along its leading beam axis.

    Handles ``None`` (stateless step functions), numpy arrays of any dtype
    (including integer routing arrays such as per-beam page indices),
    :class:`~repro.nn.tensor.Tensor` values, and nested tuples/lists thereof.
    """
    arena = current_arena()
    if arena is not None:
        # Gather every ndarray leaf into a ring buffer: ``np.take`` with
        # ``out=`` produces exactly ``state[indices]``.  Every source leaf
        # and every already-issued target rides in ``avoid`` — two leaves
        # often share one (shape, dtype) key (the decoder's h and c).
        avoid: List[np.ndarray] = _ndarray_leaves(state, [])
        return _gather_into_arena(state, indices, arena, avoid)
    return _gather_copy(state, indices)


def _gather_copy(state, indices: np.ndarray):
    if state is None:
        return None
    if isinstance(state, Tensor):
        return Tensor(state.data[indices])
    if isinstance(state, np.ndarray):
        return state[indices]
    if isinstance(state, (tuple, list)):
        return type(state)(_gather_copy(part, indices) for part in state)
    raise TypeError(
        f"cannot gather beam state of type {type(state).__name__}; use numpy "
        "arrays, Tensors, None, or nested tuples/lists of those"
    )


def _ndarray_leaves(state, found: "List[np.ndarray]") -> "List[np.ndarray]":
    if isinstance(state, np.ndarray):
        found.append(state)
    elif isinstance(state, Tensor):
        found.append(state.data)
    elif isinstance(state, (tuple, list)):
        for part in state:
            _ndarray_leaves(part, found)
    return found


def _gather_into_arena(state, indices: np.ndarray, arena, avoid: "List[np.ndarray]"):
    if state is None:
        return None
    if isinstance(state, Tensor):
        return Tensor(state.data[indices])
    if isinstance(state, np.ndarray):
        target = arena.get((len(indices),) + state.shape[1:], state.dtype, avoid=avoid)
        np.take(state, indices, axis=0, out=target)
        avoid.append(target)
        return target
    if isinstance(state, (tuple, list)):
        return type(state)(_gather_into_arena(part, indices, arena, avoid) for part in state)
    raise TypeError(
        f"cannot gather beam state of type {type(state).__name__}; use numpy "
        "arrays, Tensors, None, or nested tuples/lists of those"
    )


@dataclass(order=True)
class BeamHypothesis:
    """A partial decode: accumulated log-probability plus the token prefix."""

    score: float
    tokens: List[int] = field(compare=False)
    state: object = field(compare=False, default=None)
    finished: bool = field(compare=False, default=False)

    def normalized_score(self, length_penalty: float = 0.0) -> float:
        """Score divided by ``len^length_penalty`` (0 disables normalisation)."""
        length = max(1, len(self.tokens))
        return self.score / (length ** length_penalty) if length_penalty else self.score


def beam_search(
    step_fn: StepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[BeamHypothesis]:
    """Run beam search and return finished hypotheses sorted best-first.

    Parameters
    ----------
    step_fn:
        Maps ``(previous_token, state)`` to ``(log_probs over vocab, state)``.
    initial_state:
        Decoder state before the first step (e.g. encoder summary).
    start_id, end_id:
        Begin/end-of-sequence token ids.
    beam_size:
        Number of hypotheses kept per step.
    max_depth:
        Maximum number of generated tokens (the paper uses 4 — topic phrases
        average three tokens).
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    beams = [BeamHypothesis(score=0.0, tokens=[start_id], state=initial_state)]
    finished: List[BeamHypothesis] = []

    for _ in range(max_depth):
        candidates: List[BeamHypothesis] = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            log_probs, new_state = step_fn(beam.tokens[-1], beam.state)
            log_probs = np.asarray(log_probs, dtype=np.float64).reshape(-1)
            top = np.argsort(log_probs, kind="stable")[::-1][:beam_size]
            for token_id in top:
                token_id = int(token_id)
                hyp = BeamHypothesis(
                    score=beam.score + float(log_probs[token_id]),
                    tokens=beam.tokens + [token_id],
                    state=new_state,
                    finished=token_id == end_id,
                )
                candidates.append(hyp)
        candidates.sort(key=lambda h: h.normalized_score(length_penalty), reverse=True)
        beams = candidates[:beam_size]
        newly_finished = [b for b in beams if b.finished]
        finished.extend(newly_finished)
        beams = [b for b in beams if not b.finished]
        if not beams:
            break

    finished.extend(beams)  # unfinished hypotheses still count at max depth
    finished.sort(key=lambda h: h.normalized_score(length_penalty), reverse=True)
    return finished


def _select_best(
    values: np.ndarray, widths: Optional[np.ndarray], count: int, tie_keys
) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of the ``count`` best entries in each row of ``values``.

    Only the first ``widths[r]`` entries of row ``r`` are candidates (all of
    them when ``widths`` is None); the rest are padding no greater than any
    candidate of the row.  Larger values rank first, and equal values rank
    by the :func:`numpy.lexsort` keys ``tie_keys(rows, cols)`` (last key
    primary, ascending).  The result is grouped by ascending row, best first.

    ``argpartition`` finds each row's threshold value.  Usually exactly
    ``count`` candidates sit at or above it and no two of them are equal:
    then each row's survivors are sorted by value alone.  Otherwise every
    candidate above the threshold survives, the candidates *at* it are
    ranked by ``tie_keys`` to fill the remaining places, and the survivors
    are sorted with ``tie_keys``.
    """
    num_rows, width = values.shape
    index = np.arange(num_rows)[:, None]
    survivors = None  # (rows, m) columns when every row keeps m candidates
    if count >= width:
        if widths is None:
            survivors, ranked = np.broadcast_to(np.arange(width), values.shape), values
    else:
        part = values.argpartition(width - count, axis=1)[:, width - count:]
        ranked = values[index, part]
        threshold = ranked[:, :1]  # argpartition puts each row's kth value first
        # Each row has at least ``count`` entries at or above its threshold.
        if np.count_nonzero(values >= threshold) == num_rows * count and (
            widths is None or (part < widths[:, None]).all()
        ):
            survivors = part
    if survivors is not None:
        order = (-ranked).argsort(axis=1, kind="stable")
        ranked = ranked[index, order]
        if not (ranked[:, 1:] == ranked[:, :-1]).any():
            cols = survivors[index, order]
            return index.repeat(cols.shape[1]), cols.reshape(-1)

    if widths is None:
        widths = np.full(num_rows, width)
    real = np.arange(width) < widths[:, None]
    if count >= width:
        rows, cols = np.nonzero(real)
    else:
        rows, cols = np.nonzero((values > threshold) & real)
        tie_rows, tie_cols = np.nonzero((values == threshold) & real)
        order = np.lexsort((*tie_keys(tie_rows, tie_cols), tie_rows))
        tie_rows, tie_cols = tie_rows[order], tie_cols[order]
        rank = np.arange(tie_rows.size) - np.searchsorted(tie_rows, tie_rows)
        keep = rank < (count - np.bincount(rows, minlength=num_rows))[tie_rows]
        rows = np.concatenate([rows, tie_rows[keep]])
        cols = np.concatenate([cols, tie_cols[keep]])
    order = np.lexsort((*tie_keys(rows, cols), -values[rows, cols], rows))
    return rows[order], cols[order]


def _accumulate(scores: np.ndarray, log_probs: np.ndarray, state) -> np.ndarray:
    """``scores[:, None] + log_probs`` in float64 (an exact upcast).

    With an arena active the float64 block is a ring buffer instead of a
    fresh array, kept clear of the step's log-probs and ``state`` leaves.
    """
    arena = current_arena()
    if arena is None:
        return scores[:, None] + log_probs
    avoid = [log_probs, *_ndarray_leaves(state, [])]
    return np.add(scores[:, None], log_probs, out=arena.get(log_probs.shape, np.float64, avoid=avoid))


def batched_beam_search_many(
    step_fn: BatchStepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    num_sequences: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[List[BeamHypothesis]]:
    """Beam-search ``num_sequences`` sequences with fused per-depth steps.

    Every live hypothesis of every sequence is one row of a single
    ``step_fn`` call per depth, so a micro-batch of ``P`` sequences at beam
    ``K`` costs ``max_depth`` step calls instead of ``~max_depth·K·P``.

    ``initial_state`` must carry one leading-axis row per sequence (see
    :func:`gather_beam_state` for the accepted shapes); after each expansion
    the surviving hypotheses' parent rows are gathered out of the step's
    returned state.  Hypothesis rows stay grouped by sequence in ascending
    order — the invariant the fused page-blocked decode kernel relies on.
    Returned hypotheses carry ``state=None``.

    Selection is array code, one set of numpy calls per depth for all
    sequences, and reproduces :func:`beam_search` exactly: given the same
    log-probabilities, token sequences, float64 scores and hypothesis order
    are bit-identical.  A candidate's place in the scalar search's list is
    ``(beam slot, rank in its row)``, where a row ranks tokens by
    log-probability and then by higher token id; candidates are ordered by
    (normalised score desc, that place asc).  No row is sorted: each
    sequence's candidates are partitioned at the ``beam_size``-th best
    score, and only the survivors and the candidates tied at the cut are
    sorted.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if num_sequences < 0:
        raise ValueError("num_sequences must be >= 0")
    if num_sequences == 0:
        return []

    tokens = np.full((num_sequences, 1), start_id, dtype=np.int64)
    last = tokens[:, 0]  # each live row's last token
    scores = np.zeros(num_sequences, dtype=np.float64)
    # Sequences with live hypotheses, ascending, and their live row counts.
    alive = np.arange(num_sequences, dtype=np.intp)
    counts = np.ones(num_sequences, dtype=np.intp)
    finished: List[List[BeamHypothesis]] = [[] for _ in range(num_sequences)]
    state = initial_state

    for _ in range(max_depth):
        n_rows = tokens.shape[0]
        log_probs, new_state = step_fn(last, state)
        log_probs = np.asarray(log_probs)
        if log_probs.ndim != 2 or log_probs.shape[0] != n_rows:
            raise ValueError(
                f"batched step_fn must return (N, V) log-probs for N={n_rows} "
                f"hypotheses, got shape {log_probs.shape}"
            )
        vocab = log_probs.shape[1]
        # The scalar search expands only each row's top min(beam, V) tokens,
        # but a candidate with r better tokens in its own row has r better
        # candidates in its sequence, so the sequence's top ``beam_size``
        # never reaches past a row's top ``beam_size``: every token can be a
        # candidate, and no row is sorted.
        cand = _accumulate(scores, log_probs, new_state)
        # All candidates at one depth share a length, so the penalty is one
        # divisor — computed the same way as normalized_score.
        length = tokens.shape[1] + 1
        norm = cand / (length ** length_penalty) if length_penalty else cand

        # One block row per alive sequence: its candidates, slot-major.
        starts = counts.cumsum() - counts
        sizes = counts.tolist()
        max_beams = max(sizes)
        widths = None
        if min(sizes) == max_beams:
            block = norm.reshape(alive.size, max_beams * vocab)
        else:
            # Ragged: pad past each sequence's live rows with values at or
            # below every candidate.  Distinct pads keep argpartition fast;
            # a block of equal pads (say -inf) slows it several-fold.
            filled = np.arange(max_beams) < counts[:, None]
            block = np.empty((alive.size, max_beams, vocab))
            block[filled] = norm
            block[~filled] = np.subtract(
                norm.min(), np.arange((filled.size - n_rows) * vocab, dtype=np.float64)
            ).reshape(-1, vocab)
            block = block.reshape(alive.size, max_beams * vocab)
            widths = counts * vocab

        def place(block_rows, block_cols):
            # The scalar candidate order: beam slot, then rank in the row
            # (log-prob desc, then higher token id).
            slot, token = np.divmod(block_cols, vocab)
            return -token, -log_probs[starts[block_rows] + slot, token], slot

        block_rows, block_cols = _select_best(block, widths, beam_size, place)
        slot, new_tokens = np.divmod(block_cols, vocab)
        parents = starts[block_rows] + slot
        scores = cand[parents, new_tokens]

        tokens = np.concatenate([tokens[parents], new_tokens[:, None]], axis=1)
        done = new_tokens == end_id
        if done.any():
            for g, prefix, score in zip(
                alive[block_rows[done]].tolist(), tokens[done].tolist(), scores[done].tolist()
            ):
                finished[g].append(BeamHypothesis(score=score, tokens=prefix, finished=True))
            live = ~done
            tokens, parents, new_tokens = tokens[live], parents[live], new_tokens[live]
            scores, block_rows = scores[live], block_rows[live]
        counts = np.bincount(block_rows, minlength=alive.size)
        if not counts.all():
            alive, counts = alive[counts > 0], counts[counts > 0]
        if parents.size == 0:
            break
        last = new_tokens
        state = gather_beam_state(new_state, parents)

    for g, prefix, score in zip(np.repeat(alive, counts).tolist(), tokens.tolist(), scores.tolist()):
        # unfinished hypotheses still count at max depth
        finished[g].append(BeamHypothesis(score=score, tokens=prefix))
    # Without a penalty the normalised score is the score itself.
    key = (lambda h: h.normalized_score(length_penalty)) if length_penalty else attrgetter("score")
    for hypotheses in finished:
        hypotheses.sort(key=key, reverse=True)
    return finished


#: Alias kept for callers of the former quantized-decode host name.
batched_beam_search_many_fast = batched_beam_search_many


def batched_beam_search(
    step_fn: BatchStepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    beam_size: int = 8,
    max_depth: int = 4,
    length_penalty: float = 0.0,
) -> List[BeamHypothesis]:
    """Single-sequence convenience wrapper over :func:`batched_beam_search_many`."""
    return batched_beam_search_many(
        step_fn,
        initial_state,
        start_id,
        end_id,
        num_sequences=1,
        beam_size=beam_size,
        max_depth=max_depth,
        length_penalty=length_penalty,
    )[0]


def greedy_decode(
    step_fn: StepFn,
    initial_state: object,
    start_id: int,
    end_id: int,
    max_depth: int = 4,
) -> List[int]:
    """Greedy (beam size 1) decode; returns generated tokens without markers."""
    hyps = beam_search(step_fn, initial_state, start_id, end_id, beam_size=1, max_depth=max_depth)
    tokens = hyps[0].tokens[1:]  # drop start marker
    if tokens and tokens[-1] == end_id:
        tokens = tokens[:-1]
    return tokens
