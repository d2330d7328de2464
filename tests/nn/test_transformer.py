"""MiniBert encoder tests."""

import numpy as np
import pytest

from repro import nn


@pytest.fixture()
def bert(rng):
    return nn.MiniBert(vocab_size=30, dim=8, num_layers=2, num_heads=2, rng=rng, max_len=64)


def test_minibert_output_shape(bert):
    out = bert([1, 2, 3, 4])
    assert out.shape == (4, 8)


def test_minibert_contextual_not_static(bert):
    # The same token in different contexts gets different representations.
    a = bert([5, 6, 7]).data
    b = bert([5, 9, 7]).data
    assert not np.allclose(a[0], b[0])


def test_minibert_position_sensitivity(bert):
    out = bert([5, 5]).data
    assert not np.allclose(out[0], out[1])


def test_minibert_rejects_too_long(bert):
    with pytest.raises(ValueError):
        bert(list(range(10)) * 10)


def test_minibert_accepts_batch_rejects_higher_rank(bert):
    batched = bert.forward(np.zeros((2, 4), dtype=int))
    assert batched.shape == (2, 4, bert.dim)
    with pytest.raises(ValueError):
        bert.forward(np.zeros((2, 3, 4), dtype=int))


def test_minibert_gradients_reach_embeddings(bert):
    bert([1, 2, 3]).sum().backward()
    assert bert.token_embedding.grad is not None
    assert np.abs(bert.token_embedding.grad[1]).sum() > 0
    assert np.abs(bert.token_embedding.grad[20]).sum() == 0


def test_transformer_layer_residual_path(rng):
    layer = nn.TransformerEncoderLayer(8, 2, 16, rng)
    x = nn.Tensor(rng.normal(size=(4, 8)))
    out = layer(x)
    assert out.shape == (4, 8)
    # Residual connections keep the output correlated with the input.
    assert np.corrcoef(x.data.ravel(), out.data.ravel())[0, 1] > 0.3


def test_minibert_deterministic_given_seed():
    a = nn.MiniBert(20, dim=8, num_layers=1, num_heads=2, rng=np.random.default_rng(3))
    b = nn.MiniBert(20, dim=8, num_layers=1, num_heads=2, rng=np.random.default_rng(3))
    assert np.allclose(a([1, 2, 3]).data, b([1, 2, 3]).data)
