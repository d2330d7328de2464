"""Padded batching primitives: masked softmax, masked recurrence.

The batched inference engine requires that padded ``(B, T, d)`` passes agree
with the per-document loops they replace — these tests pin that equivalence
at the nn layer (1e-10 tolerance: GEMM blocking reorders float sums).
"""

import numpy as np
import pytest

from repro import nn


def _random_sequences(rng, lengths, dim):
    return [nn.Tensor(rng.standard_normal((length, dim)), requires_grad=True) for length in lengths]


def _padded(sequences):
    """The sequences zero-padded into one ``(B, T_max, d)`` block, with the
    ``(B, T_max)`` mask of their real rows."""
    lengths = [len(sequence) for sequence in sequences]
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    block = np.zeros(mask.shape + sequences[0].shape[1:])
    block[mask] = np.concatenate([sequence.data for sequence in sequences])
    return nn.Tensor(block), mask


# ----------------------------------------------------------------------
# masked softmax
# ----------------------------------------------------------------------
def test_masked_softmax_zeroes_padding_exactly():
    rng = np.random.default_rng(3)
    scores = nn.Tensor(rng.standard_normal((2, 5)))
    mask = np.array([[True, True, True, False, False], [True] * 5])
    out = nn.masked_softmax(scores, mask)
    assert (out.data[0, 3:] == 0.0).all()  # exactly zero, not just tiny
    np.testing.assert_allclose(out.data.sum(axis=-1), [1.0, 1.0])


def test_masked_softmax_matches_softmax_when_unmasked():
    rng = np.random.default_rng(4)
    for dtype in (np.float64, np.float32):
        scores = nn.Tensor(rng.standard_normal((3, 7)).astype(dtype))
        masked = nn.masked_softmax(scores, np.ones((3, 7), dtype=bool))
        plain = scores.softmax(axis=-1)
        assert masked.dtype == dtype
        np.testing.assert_array_equal(masked.data, plain.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_never_writes_the_callers_scores(dtype):
    """The in-place exp and divide run on a temporary, not on ``scores``."""
    rng = np.random.default_rng(14)
    data = rng.standard_normal((2, 3, 5)).astype(dtype)
    scores = nn.Tensor(data.copy())
    mask = np.array([[True] * 5, [True, True, False, False, False], [False] * 5])
    out = nn.masked_softmax(scores, mask)
    np.testing.assert_array_equal(scores.data, data)
    assert (out.data[:, 1, 2:] == 0.0).all()
    assert (out.data[:, 2] == 0.0).all()  # fully masked rows stay all zero
    np.testing.assert_allclose(out.data[:, :2].sum(axis=-1), 1.0, rtol=1e-6)


def test_masked_softmax_fully_masked_row_is_zero():
    scores = nn.Tensor(np.ones((2, 3)))
    mask = np.array([[False, False, False], [True, True, True]])
    out = nn.masked_softmax(scores, mask)
    assert not np.isnan(out.data).any()
    assert (out.data[0] == 0.0).all()


def test_masked_softmax_gradient_matches_unmasked_positions():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((1, 4))
    mask = np.array([[True, True, True, False]])

    full = nn.Tensor(data, requires_grad=True)
    out = nn.masked_softmax(full, mask)
    out.sum().backward()

    short = nn.Tensor(data[:, :3], requires_grad=True)
    short.softmax(axis=-1).sum().backward()
    np.testing.assert_allclose(full.grad[:, :3], short.grad, atol=1e-12)
    np.testing.assert_allclose(full.grad[:, 3], 0.0)


# ----------------------------------------------------------------------
# masked recurrence: padded batch == per-sequence loop
# ----------------------------------------------------------------------
def test_masked_lstm_batch_matches_per_sequence():
    rng = np.random.default_rng(6)
    lstm = nn.LSTM(4, 5, rng)
    sequences = _random_sequences(np.random.default_rng(7), [3, 6, 1, 4], 4)
    padded, mask = _padded(sequences)
    with nn.no_grad():
        batched, _ = lstm(padded, mask=mask)
        for row, sequence in enumerate(sequences):
            single, _ = lstm(sequence)
            np.testing.assert_allclose(batched.data[row, : len(sequence)], single.data, atol=1e-10)


def test_masked_bilstm_batch_matches_per_sequence():
    rng = np.random.default_rng(8)
    bilstm = nn.BiLSTM(4, 3, rng)
    sequences = _random_sequences(np.random.default_rng(9), [5, 2, 7], 4)
    padded, mask = _padded(sequences)
    with nn.no_grad():
        batched = bilstm(padded, mask=mask)
        for row, sequence in enumerate(sequences):
            np.testing.assert_allclose(
                batched.data[row, : len(sequence)], bilstm(sequence).data, atol=1e-10
            )


def test_lstm_no_grad_fast_path_matches_graph_path():
    """Regression: BiLSTM's one-loop no-grad path equals the autograd loops."""
    rng = np.random.default_rng(10)
    bilstm = nn.BiLSTM(3, 4, rng)
    x = nn.Tensor(np.random.default_rng(11).standard_normal((2, 6, 3)))
    mask = np.array([[True] * 6, [True] * 4 + [False] * 2])
    graph_out = bilstm(x, mask=mask)  # grad enabled → two LSTM graph loops
    assert graph_out.requires_grad
    with nn.no_grad():
        fast_out = bilstm(x, mask=mask)
    np.testing.assert_allclose(fast_out.data, graph_out.data, atol=1e-10)


def test_lstm_rejects_bad_mask_shape():
    rng = np.random.default_rng(12)
    lstm = nn.LSTM(3, 4, rng)
    x = nn.Tensor(np.zeros((2, 5, 3)))
    with pytest.raises(ValueError):
        lstm(x, mask=np.ones((2, 4), dtype=bool))


# ----------------------------------------------------------------------
# masked transformer: padded batch == per-document
# ----------------------------------------------------------------------
def test_minibert_batch_matches_per_document():
    rng = np.random.default_rng(13)
    bert = nn.MiniBert(vocab_size=30, dim=8, num_layers=1, num_heads=2, rng=rng, max_len=16)
    id_rng = np.random.default_rng(14)
    id_lists = [id_rng.integers(1, 30, size=length) for length in (5, 9, 3)]
    longest = max(len(ids) for ids in id_lists)
    matrix = np.zeros((len(id_lists), longest), dtype=np.int64)
    mask = np.zeros((len(id_lists), longest), dtype=bool)
    for row, ids in enumerate(id_lists):
        matrix[row, : len(ids)] = ids
        mask[row, : len(ids)] = True
    with nn.no_grad():
        batched = bert(matrix, mask=mask)
        for row, ids in enumerate(id_lists):
            single = bert(ids)
            np.testing.assert_allclose(batched.data[row, : len(ids)], single.data, atol=1e-10)
