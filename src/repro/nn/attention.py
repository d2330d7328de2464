"""Attention mechanisms.

Two families are needed by the paper:

* :class:`BilinearAttention` — ``softmax(H W R^T)`` — used by the
  identification distillation (attention of webpage representations over the
  seen-topic matrix ``R``, paper Eq. for ``A_T``/``A_S``) and by the
  dual-aware signal-exchange mechanisms of Joint-WB.
* :class:`MultiHeadSelfAttention` — standard scaled dot-product self
  attention, the building block of the MiniBert encoder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["BilinearAttention", "MultiHeadSelfAttention", "attend", "masked_softmax"]


def masked_softmax(scores: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over ``axis`` restricted to positions where ``mask`` is True.

    Masked positions receive weight *exactly* zero (not a large-negative-bias
    approximation), so padded batch entries cannot leak probability mass into
    real ones — the property the batched inference engine relies on.  Rows
    whose positions are all masked come back as all zeros.  When the mask is
    all-True the result is bitwise identical to :meth:`Tensor.softmax`.
    """
    scores = as_tensor(scores)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.data.shape)
    # One temporary; the shift, exp and normalisation run in place on it, so
    # the caller's ``scores.data`` is never written.
    out_data = np.where(mask, scores.data, np.array(-np.inf, dtype=scores.data.dtype))
    row_max = out_data.max(axis=axis, keepdims=True)
    # Fully-masked rows have max -inf; substitute 0 so they stay -inf and
    # exp() gives exact zeros.
    row_max[np.isneginf(row_max)] = 0.0
    out_data -= row_max
    np.exp(out_data, out=out_data)
    total = out_data.sum(axis=axis, keepdims=True)
    total[total == 0.0] = 1.0
    out_data /= total

    def backward(grad: np.ndarray) -> None:
        if scores.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            scores._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (scores,), backward)


class BilinearAttention(Module):
    """Bilinear attention ``A = softmax(H W K^T)``.

    Parameters
    ----------
    query_dim:
        Dimensionality of the query rows ``H``.
    key_dim:
        Dimensionality of the key rows ``K``.
    """

    def __init__(self, query_dim: int, key_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.query_dim = query_dim
        self.key_dim = key_dim
        self.weight = Parameter(init.xavier_uniform(rng, (query_dim, key_dim)))

    def scores(self, queries: Tensor, keys: Tensor) -> Tensor:
        """Raw (pre-softmax) bilinear scores ``H W K^T``.

        ``keys`` is ``(k, key_dim)``, or ``(B, k, key_dim)`` with queries
        ``(B, n, query_dim)`` for one key set per batch entry.
        """
        queries = as_tensor(queries)
        keys = as_tensor(keys)
        keys_t = keys.transpose() if keys.ndim == 2 else keys.transpose(0, 2, 1)
        return (queries @ self.weight) @ keys_t

    def precompute_keys(self, keys: np.ndarray) -> np.ndarray:
        """Project the key side once: ``K W^T``, reusable across queries.

        ``H W K^T == H (K W^T)^T``, so projecting an encoded page's keys once
        lets every decoder step and beam score against the cached projection
        with a single small matmul instead of re-running the bilinear form.
        Raw numpy in, raw numpy out — this is an inference fast path and does
        not build autograd nodes.  Accepts ``(m, key_dim)`` or any batched
        ``(..., m, key_dim)`` stack of key sets.
        """
        keys = keys.data if isinstance(keys, Tensor) else np.asarray(keys)
        return keys @ self.weight.data.T

    def scores_from_keys(self, queries: np.ndarray, projected_keys: np.ndarray) -> np.ndarray:
        """Raw bilinear scores against keys cached by :meth:`precompute_keys`.

        ``queries`` of shape ``(..., query_dim)`` against ``projected_keys``
        of shape ``(..., m, query_dim)`` (batch axes broadcasting) yields
        scores of shape ``(..., m)``.  Raw numpy, no autograd.
        """
        queries = queries.data if isinstance(queries, Tensor) else np.asarray(queries)
        return np.einsum("...d,...md->...m", queries, projected_keys)

    def forward(
        self, queries: Tensor, keys: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tensor:
        """Attention distribution of each query row over the key rows.

        ``mask`` (optional, shape broadcastable to the score matrix with the
        key axis last) excludes padded key rows with exactly zero weight.
        """
        scores = self.scores(queries, keys)
        if mask is None:
            return scores.softmax(axis=-1)
        return masked_softmax(scores, mask, axis=-1)


def attend(weights: Tensor, values: Tensor) -> Tensor:
    """Weighted combination of ``values`` rows by attention ``weights``."""
    return as_tensor(weights) @ as_tensor(values)


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention.

    Accepts a single sequence ``(T, d)`` or a padded batch ``(B, T, d)``;
    padded key positions are excluded exactly via :func:`masked_softmax`.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} not divisible by num_heads={num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Parameter(init.xavier_uniform(rng, (dim, dim)))
        self.w_k = Parameter(init.xavier_uniform(rng, (dim, dim)))
        self.w_v = Parameter(init.xavier_uniform(rng, (dim, dim)))
        self.w_o = Parameter(init.xavier_uniform(rng, (dim, dim)))

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        x:
            Input of shape ``(T, dim)`` or a padded batch ``(B, T, dim)``.
        mask:
            Optional boolean array of shape ``(T,)`` (or ``(B, T)`` for
            batched input); ``False`` positions are excluded from attention
            with exactly zero weight (padding).
        """
        x = as_tensor(x)
        if x.ndim not in (2, 3):
            raise ValueError("self-attention expects (T, dim) or (B, T, dim) input")
        key_mask = None
        if mask is not None:
            key_mask = np.asarray(mask, dtype=bool)
            if key_mask.shape != x.shape[:-1]:
                raise ValueError(
                    f"mask shape {key_mask.shape} does not match input {x.shape[:-1]}"
                )
            # Broadcast over the head and query axes: every query sees the
            # same keys.
            key_mask = key_mask[..., None, None, :]
        # (..., T, dim) -> (..., H, T, hd): every head in one batched matmul.
        n = x.ndim
        split = x.shape[:-1] + (self.num_heads, self.head_dim)
        lead = tuple(range(n - 2))
        heads = lead + (n - 1, n - 2, n)  # swaps T and H; its own inverse
        q = (x @ self.w_q).reshape(split).transpose(*heads)
        k_t = (x @ self.w_k).reshape(split).transpose(*lead, n - 1, n, n - 2)
        v = (x @ self.w_v).reshape(split).transpose(*heads)
        scores = (q @ k_t) * (1.0 / float(np.sqrt(self.head_dim)))
        if key_mask is not None:
            attn = masked_softmax(scores, key_mask, axis=-1)
        else:
            attn = scores.softmax(axis=-1)
        merged = (attn @ v).transpose(*heads).reshape(x.shape)
        return merged @ self.w_o
