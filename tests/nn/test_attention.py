"""Bilinear and multi-head attention tests."""

import numpy as np
import pytest

from repro import nn


def test_bilinear_attention_rows_are_distributions(rng):
    attn = nn.BilinearAttention(6, 4, rng)
    weights = attn(nn.Tensor(rng.normal(size=(5, 6))), nn.Tensor(rng.normal(size=(3, 4))))
    assert weights.shape == (5, 3)
    assert np.allclose(weights.data.sum(axis=-1), 1.0)


def test_bilinear_scores_shape(rng):
    attn = nn.BilinearAttention(6, 4, rng)
    scores = attn.scores(nn.Tensor(rng.normal(size=(5, 6))), nn.Tensor(rng.normal(size=(3, 4))))
    assert scores.shape == (5, 3)


def test_attend_combines_values(rng):
    weights = nn.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    values = nn.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = nn.attend(weights, values)
    assert np.allclose(out.data, values.data)


def test_bilinear_attention_gradients(rng):
    attn = nn.BilinearAttention(4, 3, rng)
    q = nn.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    k = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    attn(q, k).sum().backward()
    # softmax rows sum to 1, so d(sum)/dq is ~0; weight still got a graph.
    assert q.grad is not None and k.grad is not None


def test_multihead_shapes_and_grad(rng):
    mha = nn.MultiHeadSelfAttention(8, 2, rng)
    x = nn.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    out = mha(x)
    assert out.shape == (5, 8)
    out.sum().backward()
    assert x.grad is not None


def test_multihead_rejects_indivisible_heads(rng):
    with pytest.raises(ValueError):
        nn.MultiHeadSelfAttention(7, 2, rng)


def test_multihead_mask_blocks_positions(rng):
    mha = nn.MultiHeadSelfAttention(8, 2, rng)
    x_data = rng.normal(size=(4, 8))
    mask = np.array([True, True, True, False])
    out_masked = mha(nn.Tensor(x_data), mask=mask)
    # Perturbing the masked position must not change other outputs.
    perturbed = x_data.copy()
    perturbed[3] += 100.0
    out_perturbed = mha(nn.Tensor(perturbed), mask=mask)
    assert np.allclose(out_masked.data[:3], out_perturbed.data[:3], atol=1e-8)


def test_precompute_keys_matches_bilinear_scores(rng):
    """q @ (K W^T)^T must equal the reference (q @ W) @ K^T per row."""
    attn = nn.BilinearAttention(6, 4, rng)
    queries = rng.normal(size=(5, 6))
    keys = rng.normal(size=(3, 4))
    reference = attn.scores(nn.Tensor(queries), nn.Tensor(keys)).data
    projected = attn.precompute_keys(keys)
    assert projected.shape == (3, 6)
    fast = attn.scores_from_keys(queries, projected)
    assert np.allclose(fast, reference, atol=1e-12)


def test_precompute_keys_batched_pages(rng):
    """A stacked (P, m, key_dim) key block projects per page in one call."""
    attn = nn.BilinearAttention(6, 4, rng)
    key_block = rng.normal(size=(3, 5, 4))
    projected = attn.precompute_keys(key_block)
    assert projected.shape == (3, 5, 6)
    queries = rng.normal(size=(3, 6))
    scores = attn.scores_from_keys(queries, projected)
    assert scores.shape == (3, 5)
    for page in range(3):
        reference = attn.scores(
            nn.Tensor(queries[page].reshape(1, -1)), nn.Tensor(key_block[page])
        ).data.reshape(-1)
        assert np.allclose(scores[page], reference, atol=1e-12)


def test_precompute_keys_accepts_tensor_input(rng):
    attn = nn.BilinearAttention(6, 4, rng)
    keys = rng.normal(size=(3, 4))
    assert np.array_equal(
        attn.precompute_keys(nn.Tensor(keys)), attn.precompute_keys(keys)
    )


def _per_head_oracle(mha, x, mask):
    """Self-attention one head at a time: slice, softmax, concatenate."""
    q, k, v = x @ mha.w_q, x @ mha.w_k, x @ mha.w_v
    outputs = []
    for h in range(mha.num_heads):
        sl = slice(h * mha.head_dim, (h + 1) * mha.head_dim)
        k_t = k[..., sl].transpose() if x.ndim == 2 else k[..., sl].transpose(0, 2, 1)
        scores = (q[..., sl] @ k_t) * (1.0 / float(np.sqrt(mha.head_dim)))
        if mask is None:
            weights = scores.softmax(axis=-1)
        else:
            weights = nn.masked_softmax(scores, mask[..., None, :], axis=-1)
        outputs.append(weights @ v[..., sl])
    return nn.concatenate(outputs, axis=-1) @ mha.w_o


_RAGGED = {
    2: np.array([True] * 5 + [False] * 2),
    3: np.array([[True] * 7, [True] * 4 + [False] * 3, [True] + [False] * 6]),
}


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(7, 12), (3, 7, 12)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_multihead_all_heads_equal_per_head_oracle(dtype, shape, masked):
    """All heads in one batched matmul give the per-head loop's floats."""
    rng = np.random.default_rng(11)
    mha = nn.MultiHeadSelfAttention(12, 3, rng).astype(dtype)
    data = rng.normal(size=shape).astype(dtype)
    mask = _RAGGED[len(shape)] if masked else None
    fast = mha(nn.Tensor(data), mask=mask)
    oracle = _per_head_oracle(mha, nn.Tensor(data), mask)
    assert fast.dtype == dtype
    np.testing.assert_array_equal(fast.data, oracle.data)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(7, 12), (3, 7, 12)])
def test_multihead_all_heads_gradients_equal_per_head_oracle(shape, masked):
    rng = np.random.default_rng(12)
    mha = nn.MultiHeadSelfAttention(12, 3, rng)
    data = rng.normal(size=shape)
    upstream = rng.normal(size=shape)
    mask = _RAGGED[len(shape)] if masked else None
    grads = []
    for run in (mha, lambda x, mask: _per_head_oracle(mha, x, mask)):
        for parameter in mha.parameters():
            parameter.grad = None
        x = nn.Tensor(data, requires_grad=True)
        (run(x, mask=mask) * upstream).sum().backward()
        grads.append([x.grad] + [w.grad for w in (mha.w_q, mha.w_k, mha.w_v, mha.w_o)])
    for fast, oracle in zip(*grads):
        np.testing.assert_allclose(fast, oracle, rtol=0, atol=1e-12)
