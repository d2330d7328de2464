"""``repro.nn`` — from-scratch neural network substrate on numpy.

Provides reverse-mode autograd (:mod:`repro.nn.tensor`), modules and layers,
recurrent and transformer encoders, losses (including the paper's
identification/understanding distillation losses), optimisers with the
paper's warm-up schedule, and beam search.
"""

from .attention import BilinearAttention, MultiHeadSelfAttention, attend, masked_softmax
from .beam import (
    BeamHypothesis,
    batched_beam_search,
    batched_beam_search_many,
    batched_beam_search_many_fast,
    beam_search,
    gather_beam_state,
    greedy_decode,
)
from .layers import Activation, Dense, Dropout, Embedding, LayerNorm, Sequential
from .losses import (
    binary_cross_entropy,
    cross_entropy,
    kl_divergence,
    l1_attention_loss,
    nll_loss,
)
from .module import Module, ModuleList, Parameter
from .optim import SGD, Adam, LinearWarmupSchedule, clip_grad_norm, clip_grad_value
from .rnn import BiLSTM, LSTM, LSTMCell
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    stack,
)
from .transformer import MiniBert, TransformerEncoderLayer

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "ModuleList",
    "Parameter",
    "Dense",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "Activation",
    "LSTMCell",
    "LSTM",
    "BiLSTM",
    "BilinearAttention",
    "MultiHeadSelfAttention",
    "attend",
    "masked_softmax",
    "TransformerEncoderLayer",
    "MiniBert",
    "cross_entropy",
    "binary_cross_entropy",
    "kl_divergence",
    "l1_attention_loss",
    "nll_loss",
    "SGD",
    "Adam",
    "LinearWarmupSchedule",
    "clip_grad_norm",
    "clip_grad_value",
    "BeamHypothesis",
    "beam_search",
    "batched_beam_search",
    "batched_beam_search_many",
    "batched_beam_search_many_fast",
    "gather_beam_state",
    "greedy_decode",
]
