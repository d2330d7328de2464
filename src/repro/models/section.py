"""Informative section predictor ``P`` with the Markov dependency mechanism.

Paper §III-C: whether sentence ``j`` lies in an informative section is decided
from its neighbours:

    p_j = sigmoid( c⁰_{j-1} W¹_P c⁰_j  +  c⁰_j W²_P c⁰_{j+1} ) ≥ 0.5

Boundary sentences use a zero vector for the missing neighbour.  The module
returns *soft* probabilities — Joint-WB injects them (differentiably) into the
extractor and generator — and exposes the hard 0/1 decision for evaluation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn

__all__ = ["SectionPredictor"]


class SectionPredictor(nn.Module):
    """Markov-dependency sentence classifier over sentence states ``C^0``.

    ``markov=False`` is the ablation switch (DESIGN.md §5): the neighbour
    bilinear terms are replaced by a per-sentence linear score, removing the
    location-pattern signal the paper's mechanism is designed to capture.
    """

    def __init__(self, dim: int, rng: np.random.Generator, markov: bool = True) -> None:
        super().__init__()
        self.dim = dim
        self.markov = markov
        # Small random init keeps initial probabilities near 0.5 while
        # breaking symmetry.
        self.w_prev = nn.Parameter(rng.normal(0.0, 0.05, size=(dim, dim)))
        self.w_next = nn.Parameter(rng.normal(0.0, 0.05, size=(dim, dim)))
        # Drawn from a spawned child generator so adding the ablation head
        # does not shift the main init stream (keeps trained checkpoints and
        # experiment seeds reproducible across versions).
        self.w_self = nn.Parameter(rng.spawn(1)[0].normal(0.0, 0.05, size=(dim,)))
        self.bias = nn.Parameter(np.zeros(1))

    def probabilities(
        self, sentence_states: nn.Tensor, mask: Optional[np.ndarray] = None
    ) -> nn.Tensor:
        """Soft informative-section probabilities, shape ``(m,)``.

        Also takes a padded bucket ``(B, M, d)`` with the ``(B, M)`` mask of
        its real sentences and returns ``(B, M)``.  Padded rows are zeroed
        first, so a page's last sentence sees the same zero neighbour it has
        on its own; padded entries come back as 0.
        """
        states = nn.as_tensor(sentence_states)
        if mask is not None:
            states = states * mask[..., None].astype(states.dtype)
        if not self.markov:
            probs = (states @ self.w_self + self.bias).sigmoid()
        else:
            m = states.shape[-2]
            zero = nn.Tensor(np.zeros(states.shape[:-2] + (1, states.shape[-1]), dtype=states.dtype))
            prev = nn.concatenate([zero, states[..., : m - 1, :]], axis=-2) if m > 1 else zero
            nxt = nn.concatenate([states[..., 1:, :], zero], axis=-2) if m > 1 else zero
            left = ((prev @ self.w_prev) * states).sum(axis=-1)
            right = ((states @ self.w_next) * nxt).sum(axis=-1)
            probs = (left + right + self.bias).sigmoid()
        if mask is not None:
            probs = probs * mask.astype(probs.dtype)
        return probs

    def forward(self, sentence_states: nn.Tensor) -> nn.Tensor:
        return self.probabilities(sentence_states)

    def predict(self, sentence_states: nn.Tensor) -> np.ndarray:
        """Hard 0/1 section decisions (paper's thresholded ``p_j``)."""
        with nn.no_grad():
            probs = self.probabilities(sentence_states)
        return (probs.data >= 0.5).astype(np.int64)

    def loss(self, sentence_states: nn.Tensor, labels: Sequence[int]) -> nn.Tensor:
        """Binary cross-entropy against gold informative-section labels."""
        return nn.binary_cross_entropy(self.probabilities(sentence_states), np.asarray(labels, dtype=np.float64))
