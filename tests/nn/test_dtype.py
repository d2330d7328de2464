"""dtype on the numpy substrate: the data carries the precision.

float64 is the default; a float32 array, or a module whose parameters are
float32, keeps every tensor it produces float32 without any mode switch.
"""

import copy

import numpy as np

from repro import nn


def test_default_dtype_is_float64():
    assert nn.Tensor([1.0, 2.0]).dtype == np.float64
    assert nn.Tensor(3).dtype == np.float64


def test_explicit_dtype_parameter():
    t = nn.Tensor([1.0, 2.0], dtype=np.float32)
    assert t.dtype == np.float32
    assert nn.as_tensor([3.0], dtype=np.float32).dtype == np.float32


def test_as_tensor_casts_existing_tensor():
    t64 = nn.Tensor([1.0, 2.0])
    t32 = nn.as_tensor(t64, dtype=np.float32)
    assert t32.dtype == np.float32
    assert nn.as_tensor(t64) is t64  # no dtype → pass through untouched


def test_floating_ndarray_dtype_preserved():
    t = nn.Tensor(np.ones(3, dtype=np.float32))
    assert t.dtype == np.float32


def test_scalar_operands_take_the_tensor_dtype():
    a = nn.Tensor(np.random.default_rng(0).standard_normal((2, 3)).astype(np.float32))
    b = nn.Tensor(np.random.default_rng(1).standard_normal((3, 2)).astype(np.float32))
    assert (a @ b).dtype == np.float32
    results = (a * 2.0, 2.0 * a, a + 1, 1.0 - a, a / 3.0, 3.0 / (a + 10.0), a * np.float64(2.0))
    results += (a.sum(), a.mean(), a * [1.0, 2.0, 3.0], a * np.ones(3, dtype=bool))
    for result in results:
        assert result.dtype == np.float32
    assert (nn.Tensor([1.0]) * 2.0).dtype == np.float64


def test_explicit_dtype_beats_the_input_dtype():
    assert nn.Tensor(np.ones(1, dtype=np.float32), dtype=np.float64).dtype == np.float64
    assert nn.Tensor(np.ones(1), dtype=np.float32).dtype == np.float32


def test_astype_detaches():
    t = nn.Tensor([1.0, 2.0], requires_grad=True)
    cast = t.astype(np.float32)
    assert cast.dtype == np.float32
    assert not cast.requires_grad


def test_module_astype_casts_parameters():
    rng = np.random.default_rng(2)
    dense = nn.Dense(4, 3, rng)
    dense.astype(np.float32)
    assert all(p.dtype == np.float32 for p in dense.parameters())
    out = dense(nn.Tensor(np.zeros((2, 4), dtype=np.float32)))
    assert out.dtype == np.float32


def test_float32_grad_stays_float32():
    t = nn.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    (t * 2.0).sum().backward()
    assert t.grad.dtype == np.float32


def test_float32_lstm_runs_and_matches_float64_shape():
    rng = np.random.default_rng(3)
    lstm = nn.LSTM(3, 4, rng)
    lstm32 = copy.deepcopy(lstm).astype(np.float32)
    x64 = np.random.default_rng(4).standard_normal((5, 3))
    with nn.no_grad():
        out64, _ = lstm(nn.Tensor(x64))
        out32, _ = lstm32(nn.Tensor(x64.astype(np.float32)))
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32.data, out64.data, atol=1e-4)
