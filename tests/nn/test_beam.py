"""Beam search tests against enumerable toy decoders."""

import numpy as np
import pytest

from repro import nn

VOCAB = 5
END = 4


def deterministic_step(transitions):
    """Step function from a dict token -> next token (prob ~1)."""

    def step(token, state):
        log_probs = np.full(VOCAB, -50.0)
        log_probs[transitions.get(token, END)] = 0.0
        return log_probs, state

    return step


def test_greedy_follows_chain():
    step = deterministic_step({0: 1, 1: 2, 2: 3, 3: END})
    tokens = nn.greedy_decode(step, None, start_id=0, end_id=END, max_depth=10)
    assert tokens == [1, 2, 3]


def test_greedy_stops_at_max_depth():
    step = deterministic_step({0: 1, 1: 1})  # loop forever
    tokens = nn.greedy_decode(step, None, start_id=0, end_id=END, max_depth=3)
    assert tokens == [1, 1, 1]


def test_beam_finds_delayed_reward():
    # Greedy takes token 1 (prob .6) then dead-ends; the better path starts
    # with token 2 (prob .4) then gets probability ~1 afterwards.
    def step(token, state):
        log_probs = np.full(VOCAB, -50.0)
        if token == 0:
            log_probs[1] = np.log(0.6)
            log_probs[2] = np.log(0.4)
        elif token == 1:
            log_probs[3] = np.log(0.1)
            log_probs[END] = np.log(0.1)
        elif token == 2:
            log_probs[END] = np.log(0.99)
        return log_probs, state

    greedy = nn.beam_search(step, None, 0, END, beam_size=1, max_depth=4)
    wide = nn.beam_search(step, None, 0, END, beam_size=3, max_depth=4)
    assert wide[0].tokens[1] == 2
    assert wide[0].score > greedy[0].score


def test_beam_returns_sorted_hypotheses():
    step = deterministic_step({0: 1, 1: END})
    hyps = nn.beam_search(step, None, 0, END, beam_size=3, max_depth=5)
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_size_validation():
    with pytest.raises(ValueError):
        nn.beam_search(lambda t, s: (np.zeros(VOCAB), s), None, 0, END, beam_size=0)


def test_state_threading():
    """Decoder state must follow each hypothesis independently."""

    def step(token, state):
        count = state or 0
        log_probs = np.full(VOCAB, -50.0)
        log_probs[END if count >= 2 else 1] = 0.0
        return log_probs, count + 1

    tokens = nn.greedy_decode(step, 0, start_id=0, end_id=END, max_depth=10)
    assert tokens == [1, 1]
