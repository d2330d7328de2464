"""LSTM / BiLSTM tests, including gradient flow through time."""

import numpy as np
import pytest

from repro import nn


def test_lstm_cell_shapes(rng):
    cell = nn.LSTMCell(4, 6, rng)
    h0, c0 = cell.initial_state()
    assert h0.shape == (6,)
    x = nn.Tensor(rng.normal(size=4))
    h, (h1, c1) = cell(x, (h0, c0))
    assert h.shape == (6,) and c1.shape == (6,)


def test_lstm_sequence_output_shape(rng):
    lstm = nn.LSTM(4, 6, rng)
    out, (h, c) = lstm(nn.Tensor(rng.normal(size=(7, 4))))
    assert out.shape == (7, 6)
    assert h.shape == (6,)


def test_lstm_batched_input(rng):
    lstm = nn.LSTM(4, 6, rng)
    out, _ = lstm(nn.Tensor(rng.normal(size=(3, 7, 4))))
    assert out.shape == (3, 7, 6)


def test_lstm_reverse_processes_backwards(rng):
    lstm = nn.LSTM(2, 3, rng)
    x = rng.normal(size=(5, 2))
    fwd, _ = lstm(nn.Tensor(x))
    rev, _ = lstm(nn.Tensor(x[::-1].copy()), reverse=False)
    rev_direct, _ = lstm(nn.Tensor(x), reverse=True)
    # Reversed-input forward pass equals reverse pass read backwards.
    assert np.allclose(rev.data[::-1], rev_direct.data, atol=1e-10)


def test_lstm_rejects_1d_input(rng):
    lstm = nn.LSTM(4, 6, rng)
    with pytest.raises(ValueError):
        lstm(nn.Tensor(np.zeros(4)))


def test_bilstm_concatenates_directions(rng):
    bilstm = nn.BiLSTM(4, 6, rng)
    out = bilstm(nn.Tensor(rng.normal(size=(5, 4))))
    assert out.shape == (5, 12)
    assert bilstm.output_dim == 12


def test_gradients_flow_through_time(rng):
    lstm = nn.LSTM(3, 4, rng)
    x = nn.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    out, _ = lstm(x)
    out[5].sum().backward()
    # The last output depends on every input step.
    assert (np.abs(x.grad).sum(axis=1) > 0).all()


def test_lstm_gradcheck_small(rng):
    from .test_tensor import numeric_grad

    lstm = nn.LSTM(2, 3, rng)
    x_data = rng.normal(size=(4, 2))
    x = nn.Tensor(x_data, requires_grad=True)
    out, _ = lstm(x)
    out.sum().backward()

    def f(d):
        with nn.no_grad():
            o, _ = lstm(nn.Tensor(d))
            return float(o.sum().item())

    num = numeric_grad(f, x_data)
    assert np.allclose(x.grad, num, atol=1e-5)


def test_forget_bias_initialised_to_one(rng):
    cell = nn.LSTMCell(4, 6, rng)
    assert np.allclose(cell.bias.data[6:12], 1.0)
    assert np.allclose(cell.bias.data[:6], 0.0)


def test_deterministic_construction():
    a = nn.LSTM(3, 4, np.random.default_rng(7))
    b = nn.LSTM(3, 4, np.random.default_rng(7))
    x = nn.Tensor(np.random.default_rng(1).normal(size=(5, 3)))
    out_a, _ = a(x)
    out_b, _ = b(x)
    assert np.allclose(out_a.data, out_b.data)


def test_step_inference_matches_autograd_forward(rng):
    """The fused no-grad kernel computes the exact same floats as forward()."""
    cell = nn.LSTMCell(5, 4, rng)
    x = rng.normal(size=(3, 5))
    h_prev, c_prev = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    with nn.no_grad():
        h_ref, (_, c_ref) = cell(nn.Tensor(x), (nn.Tensor(h_prev), nn.Tensor(c_prev)))
    h_fast, c_fast = cell.step_inference(x, (h_prev, c_prev))
    assert np.array_equal(h_ref.data, h_fast)
    assert np.array_equal(c_ref.data, c_fast)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 8, 1600])
def test_fused_sigmoid_step_is_bit_identical_to_forward(rng, dtype, rows):
    """step_inference's one sigmoid over the gate block equals forward()'s
    per-gate sigmoids bit for bit, at the serving and the spec precision."""
    cell = nn.LSTMCell(5, 4, rng).astype(dtype)
    x = rng.normal(size=(rows, 5)).astype(dtype)
    h_prev, c_prev = (rng.normal(size=(rows, 4)).astype(dtype) for _ in range(2))
    with nn.no_grad():
        h_ref, (_, c_ref) = cell(nn.Tensor(x), (nn.Tensor(h_prev), nn.Tensor(c_prev)))
    h_fast, c_fast = cell.step_inference(x, (h_prev, c_prev))
    assert h_fast.dtype == c_fast.dtype == dtype
    assert np.array_equal(h_ref.data, h_fast)
    assert np.array_equal(c_ref.data, c_fast)


def test_step_inference_accepts_hoisted_projection(rng):
    """Passing a precomputed x @ w_x must equal projecting inside the step."""
    cell = nn.LSTMCell(5, 4, rng)
    x = rng.normal(size=(2, 5))
    state = (rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
    direct = cell.step_inference(x, state)
    hoisted = cell.step_inference(None, state, xw=x @ cell.w_x.data)
    assert np.array_equal(direct[0], hoisted[0])
    assert np.array_equal(direct[1], hoisted[1])


def test_initial_state_respects_parameter_dtype(rng):
    """Regression: a float32 cell must not hand out float64 zero states."""
    cell = nn.LSTMCell(5, 4, rng)
    cell.astype(np.float32)
    h, c = cell.initial_state((2,))
    assert h.data.dtype == np.float32
    assert c.data.dtype == np.float32
    # The first step therefore stays in float32 end to end.
    h_new, c_new = cell.step_inference(
        rng.normal(size=(2, 5)).astype(np.float32), (h.data, c.data)
    )
    assert h_new.dtype == np.float32 and c_new.dtype == np.float32


def _two_loop_oracle(bilstm, x, mask):
    """Each direction in its own loop over ``cell.step_inference`` with the
    hoisted ``x @ w_x`` — the per-direction arithmetic the one loop keeps."""
    outputs = []
    for lstm, reverse in ((bilstm.forward_lstm, False), (bilstm.backward_lstm, True)):
        cell = lstm.cell
        xw = x @ cell.w_x.data
        h = np.zeros(x.shape[:-2] + (cell.hidden_dim,), dtype=x.dtype)
        c = np.zeros_like(h)
        out = np.empty(x.shape[:-1] + (cell.hidden_dim,), dtype=xw.dtype)
        steps = range(x.shape[-2] - 1, -1, -1) if reverse else range(x.shape[-2])
        for t in steps:
            h_new, c_new = cell.step_inference(None, (h, c), xw=xw[..., t, :])
            if mask is None:
                h, c = h_new, c_new
            else:
                keep = mask[..., t : t + 1]
                h, c = np.where(keep, h_new, h), np.where(keep, c_new, c)
            out[..., t, :] = h_new
        outputs.append(out)
    return np.concatenate(outputs, axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape, lengths",
    [
        ((3, 7, 5), [7, 4, 1]),  # ragged mask
        ((3, 7, 5), [7, 7, 7]),  # all-True mask: the carry's where is skipped
        ((3, 7, 5), None),  # no mask
        ((7, 5), None),  # unbatched (T, d)
        ((2, 1, 5), [1, 1]),  # T = 1
        ((1, 1, 5), None),
    ],
)
def test_bilstm_no_grad_equals_per_direction_step_loops(dtype, shape, lengths):
    """Both directions in one no-grad loop give the two loops' floats exactly."""
    bilstm = nn.BiLSTM(5, 4, np.random.default_rng(21)).astype(dtype)
    x = np.random.default_rng(22).standard_normal(shape).astype(dtype)
    mask = None
    if lengths is not None:
        mask = np.arange(shape[-2])[None, :] < np.array(lengths)[:, None]
    with nn.no_grad():
        out = bilstm(nn.Tensor(x), mask=mask)
    assert out.dtype == dtype and out.shape == shape[:-1] + (8,)
    assert np.array_equal(out.data, _two_loop_oracle(bilstm, x, mask))


def test_bilstm_no_grad_rejects_bad_input(rng):
    bilstm = nn.BiLSTM(3, 4, rng)
    with nn.no_grad():
        with pytest.raises(ValueError):
            bilstm(nn.Tensor(np.zeros(3)))
        with pytest.raises(ValueError):
            bilstm(nn.Tensor(np.zeros((2, 5, 3))), mask=np.ones((2, 4), dtype=bool))
