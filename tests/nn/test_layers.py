"""Tests for Dense/Embedding/Dropout/LayerNorm/Sequential and Module mechanics."""

import pickle

import numpy as np
import pytest

from repro import nn


def test_dense_shapes_and_activation(rng):
    layer = nn.Dense(4, 3, rng, activation="tanh")
    out = layer(nn.Tensor(rng.normal(size=(5, 4))))
    assert out.shape == (5, 3)
    assert (np.abs(out.data) <= 1.0).all()


def test_dense_rejects_unknown_activation(rng):
    with pytest.raises(ValueError):
        nn.Dense(4, 3, rng, activation="swish")


def test_dense_no_bias(rng):
    layer = nn.Dense(4, 3, rng, use_bias=False)
    assert layer.bias is None
    zero_out = layer(nn.Tensor(np.zeros((2, 4))))
    assert np.allclose(zero_out.data, 0.0)


def test_dense_gradients_flow_to_parameters(rng):
    layer = nn.Dense(4, 3, rng)
    loss = layer(nn.Tensor(rng.normal(size=(5, 4)))).sum()
    loss.backward()
    assert layer.weight.grad is not None
    assert layer.bias.grad is not None


def test_embedding_lookup_and_padding(rng):
    emb = nn.Embedding(10, 6, rng, padding_idx=0)
    out = emb(np.array([0, 3, 3]))
    assert out.shape == (3, 6)
    assert np.allclose(out.data[0], 0.0)
    assert np.allclose(out.data[1], out.data[2])


def test_embedding_rejects_out_of_range(rng):
    emb = nn.Embedding(10, 4, rng)
    with pytest.raises(IndexError):
        emb(np.array([10]))
    with pytest.raises(IndexError):
        emb(np.array([-1]))


def test_embedding_gradient_accumulates_per_row(rng):
    emb = nn.Embedding(5, 3, rng)
    emb(np.array([1, 1, 2])).sum().backward()
    assert np.allclose(emb.weight.grad[1], np.full(3, 2.0))
    assert np.allclose(emb.weight.grad[2], np.ones(3))
    assert np.allclose(emb.weight.grad[0], 0.0)


def test_embedding_load_pretrained_and_freeze(rng):
    emb = nn.Embedding(4, 2, rng)
    vectors = np.arange(8.0).reshape(4, 2)
    emb.load_pretrained(vectors, freeze=True)
    assert np.allclose(emb.weight.data, vectors)
    assert not emb.weight.requires_grad
    with pytest.raises(ValueError):
        emb.load_pretrained(np.zeros((3, 2)))


def test_dropout_train_vs_eval(rng):
    drop = nn.Dropout(0.5, rng)
    x = nn.Tensor(np.ones((100, 10)))
    out = drop(x)
    assert not np.allclose(out.data, 1.0)  # some entries dropped
    # Inverted dropout preserves the expectation.
    assert abs(out.data.mean() - 1.0) < 0.15
    drop.eval()
    assert np.allclose(drop(x).data, 1.0)


def test_dropout_validates_rate(rng):
    with pytest.raises(ValueError):
        nn.Dropout(1.0, rng)


def test_layernorm_normalises_last_axis(rng):
    norm = nn.LayerNorm(8)
    out = norm(nn.Tensor(rng.normal(size=(4, 8)) * 5 + 3))
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)


def test_layernorm_gradcheck(rng):
    from .test_tensor import check_grad

    norm = nn.LayerNorm(5)
    check_grad(lambda x: norm(x), rng.normal(size=(3, 5)), tol=1e-5)


def test_sequential_runs_in_order(rng):
    model = nn.Sequential(nn.Dense(4, 8, rng), nn.Activation("relu"), nn.Dense(8, 2, rng))
    assert model(nn.Tensor(rng.normal(size=(3, 4)))).shape == (3, 2)
    assert len(model) == 3
    assert isinstance(model[1], nn.Activation)


def test_module_parameter_discovery(rng):
    model = nn.Sequential(nn.Dense(4, 8, rng), nn.Dense(8, 2, rng))
    names = [n for n, _ in model.named_parameters()]
    assert "0.weight" in names and "1.bias" in names
    assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2


def test_module_state_dict_roundtrip(rng, tmp_path):
    model = nn.Dense(4, 3, rng)
    state = model.state_dict()
    model2 = nn.Dense(4, 3, np.random.default_rng(99))
    assert not np.allclose(model.weight.data, model2.weight.data)
    model2.load_state_dict(state)
    assert np.allclose(model.weight.data, model2.weight.data)

    path = tmp_path / "weights.npz"
    model.save(str(path))
    model3 = nn.Dense(4, 3, np.random.default_rng(5))
    model3.load(str(path))
    assert np.allclose(model3.weight.data, model.weight.data)



def test_gradients_never_reach_the_blob(rng):
    """A Parameter pickles without its gradient: a model holding the last
    backward pass's gradients pickles to the same bytes as without them."""
    model = nn.Sequential(nn.Dense(4, 8, rng, activation="tanh"), nn.Dense(8, 2, rng))
    model(nn.Tensor(rng.normal(size=(3, 4)))).sum().backward()
    assert all(p.grad is not None for p in model.parameters())
    with_grads = pickle.dumps(model)
    model.zero_grad()
    assert pickle.dumps(model) == with_grads
    assert all(p.grad is None for p in pickle.loads(with_grads).parameters())

def test_load_state_dict_validates_keys_and_shapes(rng):
    model = nn.Dense(4, 3, rng)
    with pytest.raises(KeyError):
        model.load_state_dict({"weight": model.weight.data})  # missing bias
    bad = model.state_dict()
    bad["weight"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        model.load_state_dict(bad)


def test_train_eval_propagates(rng):
    model = nn.Sequential(nn.Dropout(0.5, rng), nn.Dense(4, 2, rng))
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_module_list(rng):
    items = nn.ModuleList(nn.Dense(2, 2, rng) for _ in range(3))
    assert len(items) == 3
    assert len(list(items)) == 3
    assert items[0] is not items[1]
    parent = nn.Module()
    parent.stack = items
    assert len(parent.parameters()) == 6
