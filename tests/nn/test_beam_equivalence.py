"""Scalar vs batched beam search: bit-identical equivalence + shared edge cases.

The vectorized fast path (:func:`repro.nn.batched_beam_search`) must make the
same decision as the scalar reference (:func:`repro.nn.beam_search`) at every
expansion — token sequences *and* accumulated scores bit-identical — because
serving swaps one for the other and the briefing outputs are compared
exactly.  The step functions here are table-driven so both implementations
see provably identical floats.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.beam import gather_beam_state

VOCAB = 7
END = VOCAB - 1
START = 0


def table_steps(seed):
    """Matched (scalar, batched) step functions over one random table."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(VOCAB, VOCAB))
    table = table - np.log(np.exp(table).sum(axis=1, keepdims=True))

    def scalar_step(token, state):
        return table[token], state

    def batch_step(tokens, state):
        return table[tokens], state

    return scalar_step, batch_step


def assert_identical(scalar_hyps, batched_hyps, context=""):
    assert len(scalar_hyps) == len(batched_hyps), context
    for rank, (ref, fast) in enumerate(zip(scalar_hyps, batched_hyps)):
        assert ref.tokens == fast.tokens, (context, rank, ref.tokens, fast.tokens)
        assert ref.score == fast.score, (context, rank, ref.score, fast.score)
        assert ref.finished == fast.finished, (context, rank)


# ----------------------------------------------------------------------
# Bit-identical equivalence (acceptance criterion: beams {1, 8, 32})
# ----------------------------------------------------------------------
@pytest.mark.parametrize("beam_size", [1, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bit_identical_to_scalar_reference(beam_size, seed):
    scalar_step, batch_step = table_steps(seed)
    for max_depth in (1, 4, 6):
        ref = nn.beam_search(
            scalar_step, None, START, END, beam_size=beam_size, max_depth=max_depth
        )
        fast = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=max_depth
        )
        assert_identical(ref, fast, f"beam={beam_size} depth={max_depth} seed={seed}")


@pytest.mark.parametrize("length_penalty", [0.3, 0.7, 1.0])
def test_length_penalty_ranking_parity(length_penalty):
    scalar_step, batch_step = table_steps(5)
    ref = nn.beam_search(
        scalar_step, None, START, END, beam_size=8, max_depth=5,
        length_penalty=length_penalty,
    )
    fast = nn.batched_beam_search(
        batch_step, None, START, END, beam_size=8, max_depth=5,
        length_penalty=length_penalty,
    )
    assert_identical(ref, fast, f"lp={length_penalty}")


def test_tie_breaking_determinism():
    """Exactly tied log-probs must resolve identically in both paths."""
    tied = np.zeros(VOCAB)  # every token equally likely, all scores tie

    def scalar_step(token, state):
        return tied, state

    def batch_step(tokens, state):
        return np.tile(tied, (len(tokens), 1)), state

    for beam_size in (1, 3, 8):
        ref = nn.beam_search(scalar_step, None, START, END, beam_size=beam_size, max_depth=3)
        fast = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=3
        )
        assert_identical(ref, fast, f"tied beam={beam_size}")
        again = nn.batched_beam_search(
            batch_step, None, START, END, beam_size=beam_size, max_depth=3
        )
        assert_identical(fast, again, "batched not deterministic")


def test_multi_sequence_equals_per_sequence_scalar():
    """One fused multi-page search == independent scalar searches per page."""
    rng = np.random.default_rng(11)
    tables = rng.normal(size=(3, VOCAB, VOCAB))
    tables = tables - np.log(np.exp(tables).sum(axis=2, keepdims=True))

    def batch_step(tokens, state):
        pages = state  # (N,) routing array carried as the beam state
        return tables[pages, tokens], pages

    results = nn.batched_beam_search_many(
        batch_step,
        np.arange(3),
        START,
        END,
        num_sequences=3,
        beam_size=8,
        max_depth=4,
    )
    for page in range(3):
        def scalar_step(token, state, page=page):
            return tables[page, token], state

        ref = nn.beam_search(scalar_step, None, START, END, beam_size=8, max_depth=4)
        assert_identical(ref, results[page], f"page={page}")


# ----------------------------------------------------------------------
# Shared edge cases (satellite: both implementations)
# ----------------------------------------------------------------------
def test_all_beams_finish_before_max_depth():
    # Depth 1 fans out to four likely continuations; at depth 2 every one of
    # them ends in END with every END candidate outranking every non-END
    # candidate, so the whole frontier finishes and the search stops early.
    def logits_for(token):
        log_probs = np.full(VOCAB, -50.0)
        if token == START:
            for branch, log_prob in zip((1, 2, 3, 4), (-0.1, -0.2, -0.3, -0.4)):
                log_probs[branch] = log_prob
        else:
            log_probs[END] = -0.5
        return log_probs

    def scalar_step(token, state):
        return logits_for(token), state

    def batch_step(tokens, state):
        return np.stack([logits_for(int(t)) for t in tokens]), state

    ref = nn.beam_search(scalar_step, None, START, END, beam_size=4, max_depth=10)
    fast = nn.batched_beam_search(batch_step, None, START, END, beam_size=4, max_depth=10)
    assert_identical(ref, fast, "early finish")
    for hyps in (ref, fast):
        assert len(hyps) == 4
        assert all(h.finished for h in hyps)
        # Length 3 << max_depth 10: the search stopped early, not by depth.
        assert all(h.tokens[0] == START and h.tokens[-1] == END for h in hyps)
        assert all(len(h.tokens) == 3 for h in hyps)


def test_beam_size_one_equals_greedy_decode():
    scalar_step, batch_step = table_steps(9)
    greedy = nn.greedy_decode(scalar_step, None, START, END, max_depth=6)
    for search, step in ((nn.beam_search, scalar_step), (nn.batched_beam_search, batch_step)):
        top = search(step, None, START, END, beam_size=1, max_depth=6)[0].tokens[1:]
        if top and top[-1] == END:
            top = top[:-1]
        assert top == greedy


def test_batched_validates_inputs():
    _, batch_step = table_steps(0)
    with pytest.raises(ValueError):
        nn.batched_beam_search(batch_step, None, START, END, beam_size=0)
    with pytest.raises(ValueError):
        nn.batched_beam_search_many(
            batch_step, None, START, END, num_sequences=-1, beam_size=2
        )
    assert nn.batched_beam_search_many(
        batch_step, None, START, END, num_sequences=0, beam_size=2
    ) == []

    def bad_step(tokens, state):
        return np.zeros(VOCAB), state  # 1-D: missing the hypothesis axis

    with pytest.raises(ValueError):
        nn.batched_beam_search(bad_step, None, START, END, beam_size=2)


def test_batched_state_threading():
    """Per-hypothesis state rows must follow their surviving hypotheses."""

    def batch_step(tokens, state):
        counts = state  # (N,) steps taken by each hypothesis
        log_probs = np.full((len(tokens), VOCAB), -50.0)
        for row, count in enumerate(counts):
            log_probs[row, END if count >= 2 else 1] = 0.0
        return log_probs, counts + 1

    top = nn.batched_beam_search(
        batch_step, np.zeros(1, dtype=np.int64), START, END, beam_size=3, max_depth=10
    )[0]
    assert top.tokens == [START, 1, 1, END]


# ----------------------------------------------------------------------
# The one batched host against the scalar spec, page by page
# ----------------------------------------------------------------------
def _page_tables(seed, num_pages, vocab=VOCAB, dtype=np.float64):
    rng = np.random.default_rng(seed)
    tables = rng.normal(size=(num_pages, vocab, vocab))
    return (tables - np.log(np.exp(tables).sum(axis=2, keepdims=True))).astype(dtype)


def _routed_step(tables):
    def batch_step(tokens, state):
        pages = state  # (N,) routing array carried as the beam state
        return tables[pages, tokens], pages

    return batch_step


def _scalar_per_page(tables, start, end, **kwargs):
    """The spec: one independent scalar search per page."""
    return [
        nn.beam_search(lambda token, state, t=table: (t[token], state), None, start, end, **kwargs)
        for table in tables
    ]


def _assert_host_matches_spec(tables, start, end, context, **kwargs):
    num_pages = len(tables)
    fast = nn.batched_beam_search_many(
        _routed_step(tables), np.arange(num_pages), start, end,
        num_sequences=num_pages, **kwargs,
    )
    for page, ref in enumerate(_scalar_per_page(tables, start, end, **kwargs)):
        assert_identical(ref, fast[page], f"{context} page={page}")


def test_one_batched_host():
    assert nn.batched_beam_search_many_fast is nn.batched_beam_search_many


@pytest.mark.parametrize("beam_size", [1, 4, 8])
@pytest.mark.parametrize("length_penalty", [0.0, 0.7])
def test_fast_host_identical_to_reference_host(beam_size, length_penalty):
    """Hypothesis tokens, scores and order equal per-page scalar searches.

    Briefs are compared bit-for-bit across transports and against the
    scalar decoder, so the batched host must reproduce the spec exactly.
    """
    for seed in (0, 3, 17):
        _assert_host_matches_spec(
            _page_tables(seed, num_pages=4), START, END, f"seed={seed}",
            beam_size=beam_size, max_depth=5, length_penalty=length_penalty,
        )


def test_fast_host_tie_breaking_matches_reference():
    tied = np.zeros((2, VOCAB, VOCAB))
    _assert_host_matches_spec(tied, START, END, "tied", beam_size=4, max_depth=3)


def test_fast_host_matches_under_arena_with_float32_steps():
    """float32 log-probs (the quantized decode dtype) upcast to float64 for
    ranking; with an arena active the upcast rides ring buffers, which must
    not change any decision."""
    from repro.nn.arena import Arena, use_arena

    tables = _page_tables(23, num_pages=3, dtype=np.float32)
    kwargs = dict(num_sequences=3, beam_size=6, max_depth=4)
    with use_arena(Arena()):
        fast = nn.batched_beam_search_many(
            _routed_step(tables), np.arange(3), START, END, **kwargs
        )
    refs = _scalar_per_page(tables, START, END, beam_size=6, max_depth=4)
    for page, (ref, hyps) in enumerate(zip(refs, fast)):
        assert_identical(ref, hyps, f"arena float32 page={page}")


def test_host_state_rows_survive_arena_key_collision():
    """The float64 candidate block shares an arena key with a state leaf
    here (rows x vocab == rows x hidden); it must not overwrite it."""
    from repro.nn.arena import Arena, use_arena

    tables = _page_tables(31, num_pages=2)

    def batch_step(tokens, state):
        pages, hidden = state
        out = nn.scratch(hidden.shape, hidden.dtype, avoid=(hidden,))
        out[...] = hidden + 1.0  # a (N, VOCAB) float64 state leaf
        log_probs = nn.scratch(hidden.shape, hidden.dtype, avoid=(hidden, out))
        log_probs[...] = tables[pages, tokens] + 0.01 * hidden[:, :1]
        return log_probs, (pages, out)

    initial = (np.arange(2), np.zeros((2, VOCAB)))
    kwargs = dict(num_sequences=2, beam_size=3, max_depth=5)
    plain = nn.batched_beam_search_many(batch_step, initial, START, END, **kwargs)
    with use_arena(Arena()):
        pooled = nn.batched_beam_search_many(batch_step, initial, START, END, **kwargs)
    for page, (ref, hyps) in enumerate(zip(plain, pooled)):
        assert_identical(ref, hyps, f"arena collision page={page}")


def test_spec_ranks_tied_tokens_higher_id_first():
    """The scalar spec's row order is build-independent: log-prob desc, then
    the higher token id (a stable ascending sort, reversed)."""
    rng = np.random.default_rng(4)
    vocab = 12
    for _ in range(200):
        row = np.round(rng.normal(size=vocab), 0)  # partly tied
        hyps = nn.beam_search(
            lambda token, state: (row, state), None, 0, -1, beam_size=vocab, max_depth=1
        )
        expected = sorted(range(vocab), key=lambda token: (-row[token], -token))
        assert [h.tokens[1] for h in hyps] == expected


def test_length_penalty_ties_break_by_place_not_raw_score():
    """Two raw scores 1 ulp apart normalise to one float at length 6 with
    penalty 0.7; the spec then keeps the earlier beam slot first."""
    low, high = -3.577875247484592, -3.5778752474845916
    assert low < high and low / 6 ** 0.7 == high / 6 ** 0.7
    vocab, start, end = 8, 0, 7

    def row_for(token, steps):
        row = np.full(vocab, -50.0)
        if token == start:
            row[[1, 2]] = 0.0  # tie: token 2 takes slot 0, token 1 slot 1
        elif steps < 4:
            row[3 if token in (1, 3) else 4] = 0.0
        else:
            row[5] = low if token == 4 else high
        return row

    def scalar_step(token, steps):
        return row_for(token, steps), steps + 1

    def batch_step(tokens, steps):
        return np.stack([row_for(t, s) for t, s in zip(tokens, steps)]), steps + 1

    kwargs = dict(beam_size=2, max_depth=5, length_penalty=0.7)
    ref = nn.beam_search(scalar_step, 0, start, end, **kwargs)
    fast = nn.batched_beam_search_many(
        batch_step, np.zeros(1, dtype=np.int64), start, end, num_sequences=1, **kwargs
    )[0]
    assert [h.tokens for h in ref] == [[0, 2, 4, 4, 4, 5], [0, 1, 3, 3, 3, 5]]
    assert [h.score for h in ref] == [low, high]
    assert_identical(ref, fast, "length-penalty tie")


def test_host_breaks_rounded_score_ties_by_row_rank():
    """Two log-probs that differ vanish in one rounded score: the spec still
    ranks them by log-prob within the row, not by token id."""
    vocab, start, end = 6, 0, 5

    def row_for(token):
        row = np.full(vocab, -50.0)
        if token == start:
            row[1] = -1.0
        else:
            row[3], row[4] = -(2.0 ** -60), -(2.0 ** -59)  # both vanish in -1.0
        return row

    kwargs = dict(beam_size=3, max_depth=2)
    ref = nn.beam_search(lambda token, state: (row_for(token), state), None, start, end, **kwargs)
    fast = nn.batched_beam_search(
        lambda tokens, state: (np.stack([row_for(t) for t in tokens]), state),
        None, start, end, **kwargs,
    )
    assert [h.tokens for h in ref[:2]] == [[0, 1, 3], [0, 1, 4]]
    assert ref[0].score == ref[1].score == -1.0
    assert_identical(ref, fast, "rounded score tie")


def test_host_page_with_fewer_candidates_than_the_beam():
    """A page left with one live hypothesis has fewer candidates than the
    beam while another page fills it: every candidate of the short page
    survives, and none of the padding between pages does."""
    vocab, start, end, beam_size = 3, 0, 2, 4
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(2, 4, vocab, vocab))  # (page, depth, token, next)
    # END is unlikely (page 1 holds the lowest candidates), except that
    # page 0 keeps three beams at depth 1 and ends all three at depth 2,
    # which leaves it one live row.
    rows[:, :, :, end] = np.array([-10.0, -20.0])[:, None, None]
    rows[0, 1, 0, end] = 5.0
    rows[0, 2, :, end] = 5.0

    def scalar_step_for(page):
        return lambda token, depth: (rows[page, depth, token], depth + 1)

    def batch_step(tokens, state):
        pages, depths = state
        return rows[pages, depths, tokens], (pages, depths + 1)

    kwargs = dict(beam_size=beam_size, max_depth=4)
    fast = nn.batched_beam_search_many(
        batch_step, (np.arange(2), np.zeros(2, dtype=np.int64)), start, end,
        num_sequences=2, **kwargs,
    )
    for page in range(2):
        ref = nn.beam_search(scalar_step_for(page), 0, start, end, **kwargs)
        assert_identical(ref, fast[page], f"page={page}")
    # At depth 3 page 0 has one live row: all 3 of its candidates survive.
    assert sum(h.finished and len(h.tokens) == 4 for h in fast[0]) == 3
    assert sum(len(h.tokens) == 5 for h in fast[0]) == 3


@pytest.mark.parametrize("seed", range(32))
def test_host_fuzz_against_spec_in_the_decode_wide_regime(seed):
    """Vocabularies up to 200, beams up to 250 (beam > vocabulary too),
    up to 5 pages finishing at different depths, float32/float64 and
    tied/untied tables, with and without a length penalty."""
    rng = np.random.default_rng(1000 + seed)
    vocab = int(rng.integers(3, 201))
    beam_size = int(rng.integers(1, 251))
    num_pages = int(rng.integers(1, 6))
    max_depth = int(rng.integers(1, 6))
    dtype = (np.float32, np.float64)[seed % 2]
    length_penalty = (0.0, 0.7)[(seed // 2) % 2]
    tied = (seed // 4) % 2 == 1
    tables = rng.normal(size=(num_pages, vocab, vocab)) * rng.uniform(0.5, 3.0)
    # Per-page END boost: some pages finish early, some run to max depth.
    tables[:, :, vocab - 1] += rng.uniform(-2.0, 6.0, size=(num_pages, 1))
    if tied:
        tables = np.round(tables, 0)
    tables = tables.astype(dtype)
    _assert_host_matches_spec(
        tables, 0, vocab - 1,
        f"V={vocab} beam={beam_size} pages={num_pages} depth={max_depth} "
        f"{np.dtype(dtype).name} lp={length_penalty} tied={tied}",
        beam_size=beam_size, max_depth=max_depth, length_penalty=length_penalty,
    )


# ----------------------------------------------------------------------
# gather_beam_state
# ----------------------------------------------------------------------
def test_gather_beam_state_handles_all_state_shapes():
    indices = np.array([2, 0])
    array = np.arange(12.0).reshape(3, 4)
    assert gather_beam_state(None, indices) is None
    np.testing.assert_array_equal(gather_beam_state(array, indices), array[[2, 0]])
    tensor = nn.Tensor(array)
    gathered = gather_beam_state(tensor, indices)
    assert isinstance(gathered, nn.Tensor)
    np.testing.assert_array_equal(gathered.data, array[[2, 0]])
    nested = (array, [tensor, None], np.array([5, 6, 7]))
    out = gather_beam_state(nested, indices)
    assert isinstance(out, tuple) and isinstance(out[1], list)
    np.testing.assert_array_equal(out[2], [7, 5])
    with pytest.raises(TypeError):
        gather_beam_state({"h": array}, indices)
