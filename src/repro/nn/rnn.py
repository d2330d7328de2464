"""Recurrent layers: LSTMCell, LSTM and BiLSTM.

The paper's extractor, generator and single-task baselines are all built on
(Bi-)LSTM encoders (Hochreiter & Schmidhuber, 1997).  Gates are computed with
one fused matrix multiply per timestep for speed; the input is a sequence of
shape ``(T, d)`` or a batch ``(B, T, d)``.  Under ``no_grad`` the gate math
runs in one raw-numpy step kernel, called by the decoder's
:meth:`LSTMCell.step_inference` and by :class:`BiLSTM`'s fast path, which
steps both directions in one time loop.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, stack

__all__ = ["LSTMCell", "LSTM", "BiLSTM"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # In place on one fresh buffer: the same bits as ``1 / (1 + exp(-x))``
    # without its three temporaries, which dominate on large float64 blocks.
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def _lstm_step(
    xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w_h: np.ndarray, bias: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The one no-grad copy of the gate math: ``(h_new, c_new)``.

    ``xw`` is the input projection ``x @ W_x``.  ``w_h`` is one cell's
    ``(h, 4h)`` matrix, or two stacked as ``(2, h, 4h)`` with ``h_prev``,
    ``c_prev``, ``xw`` and ``bias`` stacked alike: ``@`` then runs each
    direction's own GEMM, so its floats do not change.
    """
    hd = w_h.shape[-2]
    gates = xw + h_prev @ w_h + bias
    # One sigmoid over the whole block (its cell-gate slice goes unused):
    # elementwise, so bit-identical to one call per gate, and a third of
    # the numpy calls on the small float32 blocks serving decodes.
    sigmoid = _sigmoid(gates)
    i_gate = sigmoid[..., 0:hd]
    f_gate = sigmoid[..., hd : 2 * hd]
    g_gate = np.tanh(gates[..., 2 * hd : 3 * hd])
    o_gate = sigmoid[..., 3 * hd : 4 * hd]
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * np.tanh(c_new)
    return h_new, c_new


def _checked(x: Tensor, mask: Optional[np.ndarray]) -> Tuple[Tensor, Optional[np.ndarray]]:
    """Validate a recurrent layer's ``(T, d)`` / ``(B, T, d)`` input and mask."""
    x = as_tensor(x)
    if x.ndim < 2:
        raise ValueError("LSTM expects input of shape (T, d) or (B, T, d)")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape[:-1]:
            raise ValueError(f"mask shape {mask.shape} does not match input {x.shape[:-1]}")
    return x, mask


class LSTMCell(Module):
    """A single LSTM step.

    Gate layout in the fused weight matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to 1.0 (standard trick that helps
    gradient flow early in training).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init.xavier_uniform(rng, (input_dim, 4 * hidden_dim)))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal(rng, (hidden_dim, hidden_dim)) for _ in range(4)], axis=1
            )
        )
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate bias
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        h_prev, c_prev = state
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        h = self.hidden_dim
        i_gate = gates[..., 0:h].sigmoid()
        f_gate = gates[..., h : 2 * h].sigmoid()
        g_gate = gates[..., 2 * h : 3 * h].tanh()
        o_gate = gates[..., 3 * h : 4 * h].sigmoid()
        c = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c.tanh()
        return h_new, (h_new, c)

    def initial_state(self, batch_shape: Tuple[int, ...] = ()) -> Tuple[Tensor, Tensor]:
        shape = tuple(batch_shape) + (self.hidden_dim,)
        # Zeros in the parameters' dtype so a float32 cell does not silently
        # upcast its first step.
        dtype = self.w_x.data.dtype
        return Tensor(np.zeros(shape, dtype=dtype)), Tensor(np.zeros(shape, dtype=dtype))

    def step_inference(
        self,
        x: Optional[np.ndarray],
        state: Tuple[np.ndarray, np.ndarray],
        xw: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One fused no-grad step on raw numpy arrays.

        Computes the same arithmetic as :meth:`forward` — gate sum order
        ``(x·Wx) + h·Wh + b`` preserved — but without building autograd graph
        nodes, which is the decode hot path's per-step cost.  Callers that
        already hold the input projection (``X @ w_x`` hoisted for all
        timesteps as one GEMM) pass it via ``xw`` and may leave ``x`` as
        ``None``.  Returns the raw ``(h_new, c_new)`` pair.
        """
        if xw is None:
            xw = x @ self.w_x.data
        return _lstm_step(xw, state[0], state[1], self.w_h.data, self.bias.data)


class LSTM(Module):
    """Unidirectional LSTM over a sequence.

    Input of shape ``(T, d)`` (or ``(B, T, d)``) produces hidden states of
    shape ``(T, h)`` (or ``(B, T, h)``).  The time loop runs *once* for the
    whole batch — batching B documents into one padded ``(B, T, d)`` tensor
    turns B Python loops over T into one.

    ``mask`` (shape ``(T,)`` or ``(B, T)``) marks real timesteps of padded
    batches: masked steps do not update the carried state, so the reverse
    direction of a padded sequence starts from its true last token and the
    final state equals the state at each sequence's true end.

    This Tensor loop is the reference recurrence in both grad modes; the
    no-grad fast path lives in :class:`BiLSTM`, the layer every model uses.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.cell = LSTMCell(input_dim, hidden_dim, rng)

    def forward(
        self,
        x: Tensor,
        initial_state: Optional[Tuple[Tensor, Tensor]] = None,
        reverse: bool = False,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        x, mask = _checked(x, mask)
        seq_len = x.shape[-2]
        state = initial_state or self.cell.initial_state(x.shape[:-2])
        indices = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
        outputs = [None] * seq_len
        for t in indices:
            step = x[..., t, :]
            h, new_state = self.cell(step, state)
            if mask is not None:
                # Exact carry: keep (1.0 * new + 0.0 * old) at real steps and
                # (0.0 * new + 1.0 * old) at padded ones.
                keep = Tensor(mask[..., t : t + 1].astype(x.data.dtype))
                drop = Tensor((~mask[..., t : t + 1]).astype(x.data.dtype))
                state = (
                    new_state[0] * keep + state[0] * drop,
                    new_state[1] * keep + state[1] * drop,
                )
            else:
                state = new_state
            outputs[t] = h
        return stack(outputs, axis=-2), state


class BiLSTM(Module):
    """Bidirectional LSTM; concatenates forward and backward hidden states.

    Output dimensionality is ``2 * hidden_dim``.  Under ``no_grad`` both
    directions step together in one time loop (:meth:`_forward_no_grad`),
    with the same floats as the two :class:`LSTM` loops of the grad path.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = 2 * hidden_dim
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        if not is_grad_enabled():
            return self._forward_no_grad(*_checked(x, mask))
        fwd, _ = self.forward_lstm(x, mask=mask)
        bwd, _ = self.backward_lstm(x, reverse=True, mask=mask)
        return concatenate([fwd, bwd], axis=-1)

    def _forward_no_grad(self, x: Tensor, mask: Optional[np.ndarray]) -> Tensor:
        """Inference fast path: both directions stacked as ``(2, B, ...)``.

        The backward half of the hoisted input projection is stored
        time-reversed, so step ``t`` advances the forward direction at ``t``
        and the backward one at ``T-1-t`` through one :func:`_lstm_step`.
        """
        cells = (self.forward_lstm.cell, self.backward_lstm.cell)
        data = x.data
        seq_len, hd = data.shape[-2], self.hidden_dim
        rows = data.reshape((math.prod(data.shape[:-2]),) + data.shape[-2:])  # (B, T, d)
        projected = [rows @ cell.w_x.data for cell in cells]
        xw = np.stack([projected[0], projected[1][:, ::-1]])  # (2, B, T, 4h)
        w_h = np.stack([cell.w_h.data for cell in cells])
        bias = np.stack([cell.bias.data for cell in cells])[:, None]
        keep = None
        if mask is not None and not mask.all():
            keep = mask.reshape(len(rows), seq_len)
            keep = np.stack([keep, keep[:, ::-1]])[..., None]  # (2, B, T, 1)
        h = np.zeros((2, len(rows), hd), dtype=data.dtype)
        c = np.zeros_like(h)
        out = np.empty((2, len(rows), seq_len, hd), dtype=xw.dtype)
        for t in range(seq_len):
            h_new, c_new = _lstm_step(xw[:, :, t], h, c, w_h, bias)
            if keep is None:
                h, c = h_new, c_new
            else:
                h = np.where(keep[:, :, t], h_new, h)
                c = np.where(keep[:, :, t], c_new, c)
            out[:, :, t] = h_new
        out = np.concatenate([out[0], out[1, :, ::-1]], axis=-1)
        return Tensor(out.reshape(data.shape[:-1] + (2 * hd,)))
