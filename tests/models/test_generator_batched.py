"""Batched decode fast path vs the scalar generator, on the real model.

The pure beam-level equivalence lives in ``tests/nn/test_beam_equivalence``
(table-driven step functions, bit-identical scores).  Here the two paths run
real model arithmetic: cached key projections and fused batched GEMMs may
associate floating-point sums differently from the scalar reference, so
token outputs must be exactly equal and scores/hiddens equal to 1e-10.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import TopicGenerator


@pytest.fixture()
def generator(rng, small_vocab):
    return TopicGenerator(16, 8, small_vocab, rng)


@pytest.fixture()
def memories(generator, rng):
    with nn.no_grad():
        return [
            generator.encode(nn.Tensor(rng.normal(size=(rows, 16))))
            for rows in (3, 5, 2, 5, 4, 1, 7)
        ]


@pytest.mark.parametrize("beam_size", [1, 4, 8, 32])
def test_generate_batch_matches_scalar_generate(generator, memories, beam_size):
    with nn.no_grad():
        batched = generator.generate_batch(memories, beam_size=beam_size)
        for position, memory in enumerate(memories):
            assert batched[position] == generator.generate(memory, beam_size=beam_size)


def test_generate_batch_matches_scalar_generate_at_paper_beam(generator, memories):
    """Beam 200, depth 4 (the paper's decode): topics and margins per page."""
    with nn.no_grad():
        margins = []
        batched = generator.generate_batch(memories, beam_size=200, max_depth=4, margins=margins)
        for position, memory in enumerate(memories):
            scalar_margins = []
            topic = generator.generate(memory, beam_size=200, max_depth=4, margins=scalar_margins)
            assert batched[position] == topic
            assert margins[position] == pytest.approx(scalar_margins[0], abs=1e-10)


def test_generate_batch_empty_and_single(generator, memories):
    assert generator.generate_batch([]) == []
    with nn.no_grad():
        single = generator.generate_batch(memories[:1], beam_size=4)
        assert single == [generator.generate(memories[0], beam_size=4)]


def test_generate_batch_respects_max_depth(generator, memories):
    with nn.no_grad():
        topics = generator.generate_batch(memories, beam_size=4, max_depth=2)
    assert all(len(topic) <= 2 for topic in topics)


def test_greedy_hidden_batch_matches_scalar_loop(generator, memories, small_vocab):
    def scalar_greedy(memory, max_depth=8):
        # Mirror of JointWBModel._greedy_topic_hidden over one memory.
        state = generator._initial_state(memory)
        previous = small_vocab.bos_id
        hiddens = []
        for _ in range(max_depth):
            logits, state, hidden = generator._step(previous, state, memory)
            hiddens.append(hidden[0])
            previous = int(logits.data.argmax())
            if previous == small_vocab.eos_id:
                break
        return nn.stack(hiddens, axis=0)

    with nn.no_grad():
        batched = generator.greedy_hidden_batch(memories)
        for position, memory in enumerate(memories):
            reference = scalar_greedy(memory)
            assert batched[position].shape == reference.shape
            assert np.allclose(batched[position].data, reference.data, atol=1e-10)


def test_greedy_hidden_batch_empty(generator):
    assert generator.greedy_hidden_batch([]) == []
