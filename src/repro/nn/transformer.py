"""Transformer encoder: MiniBert.

The paper fine-tunes BERT_base and BERTSUM (Liu & Lapata, 2019) as contextual
encoders.  :class:`MiniBert` reproduces the architecture at laptop scale:
token + position embeddings followed by ``N`` pre-norm transformer encoder
layers, producing contextual token representations.  The BERTSUM document
view (a ``[CLS]`` before every sentence, whose hidden states become the
sentence representations) is built on top of it by
:class:`repro.models.BertSumEncoder`.

The scale-down (2 layers, small hidden dim) is the documented substitution
for the paper's GPU-trained BERT_base; see DESIGN.md §2.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import init
from .attention import MultiHeadSelfAttention
from .layers import Dense, Dropout, LayerNorm
from .module import Module, ModuleList, Parameter
from .tensor import Tensor

__all__ = ["TransformerEncoderLayer", "MiniBert"]


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: LN → MHSA → residual → LN → FFN → residual."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        ffn_dim: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attention = MultiHeadSelfAttention(dim, num_heads, rng)
        self.norm2 = LayerNorm(dim)
        self.ffn_in = Dense(dim, ffn_dim, rng, activation="relu")
        self.ffn_out = Dense(ffn_dim, dim, rng)
        self.dropout = Dropout(dropout, rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.dropout(self.attention(self.norm1(x), mask=mask))
        x = x + self.dropout(self.ffn_out(self.ffn_in(self.norm2(x))))
        return x


class MiniBert(Module):
    """A small BERT-style contextual encoder.

    Parameters
    ----------
    vocab_size:
        Size of the token vocabulary (:class:`repro.data.Vocabulary`).
    dim:
        Hidden dimensionality.
    num_layers, num_heads, ffn_dim:
        Transformer stack hyperparameters.
    max_len:
        Maximum supported sequence length (positional table size); a longer
        input raises, as pages are not split into sub-documents.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int = 32,
        num_layers: int = 2,
        num_heads: int = 2,
        ffn_dim: Optional[int] = None,
        max_len: int = 512,
        rng: Optional[np.random.Generator] = None,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        ffn_dim = ffn_dim or 2 * dim
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_len = max_len
        self.token_embedding = Parameter(init.normal(rng, (vocab_size, dim)))
        self.position_embedding = Parameter(init.normal(rng, (max_len, dim)))
        self.layers = ModuleList(
            TransformerEncoderLayer(dim, num_heads, ffn_dim, rng, dropout=dropout)
            for _ in range(num_layers)
        )
        self.final_norm = LayerNorm(dim)

    def forward(self, token_ids: Sequence[int], mask: Optional[np.ndarray] = None) -> Tensor:
        """Encode token ids to contextual vectors.

        A single sequence ``(T,)`` yields ``(T, dim)``; a padded id matrix
        ``(B, T)`` with a boolean ``(B, T)`` mask yields ``(B, T, dim)`` where
        padded positions are excluded from attention with exactly zero weight
        (representations at padded positions are garbage and must be sliced
        away by the caller).
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise ValueError("MiniBert expects token ids of shape (T,) or (B, T)")
        seq_len = ids.shape[-1]
        if seq_len > self.max_len:
            raise ValueError(f"sequence length {seq_len} exceeds max_len {self.max_len}")
        x = self.token_embedding[ids] + self.position_embedding[np.arange(seq_len)]
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)
