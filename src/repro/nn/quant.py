"""Quantized weights: an int8/float16 codec plus float32 inference.

The serving stack already trades precision for speed once (float64 training
→ float32 inference via ``Module.astype`` + ``nn.default_dtype``).  This
module adds a weight codec on top:

* :func:`quantize_array` — per-channel symmetric int8 (scale = absmax/127
  per output channel) or float16 weight payloads.  Payloads are the
  *pickled* representation: a quantized snapshot ships int8 bytes + float32
  scales across the process transport instead of float64 matrices.
* :class:`QuantizedDense` / :class:`QuantizedLSTMCell` /
  :class:`QuantizedEmbedding` — drop-in subclasses whose ``Parameter``
  objects hold the *dequantized* float32 weights, rebuilt deterministically
  from the payload on unpickle — restore is bit-consistent across
  processes.  They add no kernels: a quantized model decodes through the
  same reference step, LSTM no-grad kernel and beam host as a float one.
* :func:`record_activation_ranges` — the calibration pass: runs any forward
  under instrumented layers and records per-layer input absmax, which
  :func:`quantize_module` uses to fall back to float16 where int8 rounding
  would perturb calibrated activations beyond the error budget.
* :func:`quantize_module` / ``Module.quantize()`` — deep-copies a model,
  swaps the quantizable layers, casts the remainder to float32 and pins
  float32 inference.

Tolerance contract: quantized weights are **not** the float weights — the
float model stays the executable reference and the acceptance gate is task
metrics (extraction F1 drop ≤ 0.5 abs, topic exact-match drop ≤ 1 % rel),
checked by ``repro bench --quantized``.

Calibration and quantization never leak dtype state: both capture the
process-wide override *and* the thread-local override on entry and restore
them on exit (the same test-order-pollution class fixed for distill's
``verify_roundtrip``).
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .layers import Dense, Embedding
from .module import Module, Parameter
from .rnn import LSTMCell
from .tensor import (
    _MODE,
    _UNSET,
    default_dtype,
    get_dtype_override,
    set_default_dtype,
)

__all__ = [
    "quantize_array",
    "dequantize_array",
    "QuantizedDense",
    "QuantizedEmbedding",
    "QuantizedLSTMCell",
    "record_activation_ranges",
    "calibrate",
    "quantize_module",
]

_MODES = ("int8", "float16")


@contextmanager
def _preserve_dtype_state():
    """Restore both the process-wide and thread-local dtype overrides on exit.

    Quantization runs model forwards (calibration) and builds float32
    parameters under a thread-local override; none of that may leak into the
    caller's dtype state — pytest order must not matter.
    """
    prior_process = get_dtype_override()
    prior_thread = getattr(_MODE, "dtype_override", _UNSET)
    try:
        yield
    finally:
        set_default_dtype(prior_process)
        if prior_thread is _UNSET:
            if hasattr(_MODE, "dtype_override"):
                del _MODE.dtype_override
        else:
            _MODE.dtype_override = prior_thread


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------
def quantize_array(array: np.ndarray, mode: str = "int8") -> dict:
    """Quantize a weight matrix into a compact payload dict.

    ``int8`` is per-channel symmetric over the **last** axis (the output
    channel of every weight layout in this codebase: ``Dense.weight`` is
    ``(in, out)``, ``LSTMCell.w_x``/``w_h`` are ``(d, 4h)``, embeddings are
    ``(V, d)``): ``scale_c = absmax_c / 127``, ``q = clip(round(w / scale),
    -127, 127)``.  Channels that are exactly zero get scale 1.0 so they
    dequantize back to exact zeros.  ``float16`` is a plain downcast.
    """
    array = np.asarray(array)
    if mode == "float16":
        return {"mode": "float16", "data": array.astype(np.float16)}
    if mode != "int8":
        raise ValueError(f"unknown quantization mode {mode!r} (use {_MODES})")
    mat = array.astype(np.float64)
    reduce_axes = tuple(range(mat.ndim - 1)) if mat.ndim > 1 else ()
    absmax = np.max(np.abs(mat), axis=reduce_axes) if mat.ndim > 1 else np.abs(mat)
    scale = np.where(absmax == 0.0, 1.0, absmax / 127.0)
    quantized = np.clip(np.rint(mat / scale), -127, 127).astype(np.int8)
    return {"mode": "int8", "data": quantized, "scale": scale.astype(np.float32)}


def dequantize_array(payload: dict) -> np.ndarray:
    """The float32 weights a payload stands for (deterministic everywhere)."""
    if payload["mode"] == "float16":
        return payload["data"].astype(np.float32)
    return payload["data"].astype(np.float32) * payload["scale"]


def _quantization_error(payload: dict, array: np.ndarray) -> float:
    """Max absolute elementwise error of the payload vs the float weights."""
    return float(np.max(np.abs(dequantize_array(payload) - np.asarray(array, dtype=np.float64))))


# ----------------------------------------------------------------------
# Quantized layers
# ----------------------------------------------------------------------
class _QuantizedMixin:
    """Shared pickle protocol: ship payloads, rebuild float params on load.

    ``__getstate__`` drops the dequantized float ``Parameter`` arrays so the
    blob carries only int8/float16 payloads
    plus float32 biases; ``__setstate__`` rebuilds them deterministically —
    the restored weights are bit-identical on every host and process.
    """

    _PARAM_FIELDS: Tuple[str, ...] = ()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_parameters"] = {}
        for field in self._PARAM_FIELDS:
            state.pop(field, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_parameters", {})
        self.__dict__.setdefault("_modules", {})
        self._rebuild()

    def _rebuild(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class QuantizedDense(_QuantizedMixin, Dense):
    """A :class:`Dense` whose weights live as an int8/float16 payload.

    The ``weight`` Parameter holds the dequantized float32 matrix so both
    the autograd ``forward`` and every raw ``weight.data`` fast path (e.g.
    the generator's output projection) work unchanged.
    """

    _PARAM_FIELDS = ("weight", "bias")

    @classmethod
    def from_dense(cls, dense: Dense, mode: str = "int8") -> "QuantizedDense":
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.training = dense.training
        layer.in_features = dense.in_features
        layer.out_features = dense.out_features
        layer.activation = dense.activation
        layer.quant_mode = mode
        layer._payload = {
            "weight": quantize_array(dense.weight.data, mode),
            "bias": None if dense.bias is None else dense.bias.data.astype(np.float32),
        }
        layer._rebuild()
        return layer

    def _rebuild(self) -> None:
        with default_dtype(np.float32):
            self.weight = Parameter(dequantize_array(self._payload["weight"]))
            bias = self._payload["bias"]
            self.bias = None if bias is None else Parameter(bias.copy())


class QuantizedEmbedding(_QuantizedMixin, Embedding):
    """An :class:`Embedding` backed by a quantized payload (frozen)."""

    _PARAM_FIELDS = ("weight",)

    @classmethod
    def from_embedding(cls, embedding: Embedding, mode: str = "int8") -> "QuantizedEmbedding":
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.training = embedding.training
        layer.num_embeddings = embedding.num_embeddings
        layer.embedding_dim = embedding.embedding_dim
        layer.padding_idx = embedding.padding_idx
        layer.quant_mode = mode
        payload = quantize_array(embedding.weight.data, mode)
        layer._payload = {"weight": payload}
        layer._rebuild()
        return layer

    def _rebuild(self) -> None:
        with default_dtype(np.float32):
            weight = dequantize_array(self._payload["weight"])
            if self.padding_idx is not None:
                weight[self.padding_idx] = 0.0  # padding stays an exact zero row
            self.weight = Parameter(weight)

    def load_pretrained(self, vectors: np.ndarray, freeze: bool = False) -> None:
        raise RuntimeError("quantized embeddings are frozen; quantize after loading vectors")


class QuantizedLSTMCell(_QuantizedMixin, LSTMCell):
    """An :class:`LSTMCell` whose gate weights live as int8/float16 payloads.

    ``w_x``/``w_h`` hold the dequantized float32 matrices, so the inherited
    ``forward`` and ``step_inference`` run unchanged.
    """

    _PARAM_FIELDS = ("w_x", "w_h", "bias")

    @classmethod
    def from_cell(cls, cell: LSTMCell, mode: str = "int8") -> "QuantizedLSTMCell":
        layer = cls.__new__(cls)
        Module.__init__(layer)
        layer.training = cell.training
        layer.input_dim = cell.input_dim
        layer.hidden_dim = cell.hidden_dim
        layer.quant_mode = mode
        layer._payload = {
            "w_x": quantize_array(cell.w_x.data, mode),
            "w_h": quantize_array(cell.w_h.data, mode),
            "bias": cell.bias.data.astype(np.float32),
        }
        layer._rebuild()
        return layer

    def _rebuild(self) -> None:
        with default_dtype(np.float32):
            self.w_x = Parameter(dequantize_array(self._payload["w_x"]))
            self.w_h = Parameter(dequantize_array(self._payload["w_h"]))
            self.bias = Parameter(self._payload["bias"].copy())


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def _named_modules(module: Module, prefix: str = ""):
    yield prefix[:-1], module
    for name, child in module._modules.items():
        yield from _named_modules(child, f"{prefix}{name}.")


@contextmanager
def record_activation_ranges(module: Module):
    """Record per-layer input absmax while the body runs forwards.

    Yields a dict mapping dotted layer names (within ``module``) to
    ``{"absmax": float, "calls": int}``.  Instrumentation patches
    ``Dense.forward`` / ``Embedding.forward`` / ``LSTMCell`` at class level
    for the duration of the block — calibrate single-threaded.  Dtype state
    (thread and process overrides) is restored on exit.
    """
    stats: Dict[str, Dict[str, float]] = {}
    names = {id(m): name for name, m in _named_modules(module) if name}

    def record(layer: Module, value) -> None:
        name = names.get(id(layer))
        if name is None or value is None:
            return
        if isinstance(value, np.ndarray):
            data = value
        elif hasattr(value, "data"):  # Tensor
            data = value.data
        else:
            data = np.asarray(value)
        if data.size == 0 or not np.issubdtype(data.dtype, np.floating):
            return
        absmax = float(np.max(np.abs(data)))
        entry = stats.setdefault(name, {"absmax": 0.0, "calls": 0})
        entry["absmax"] = max(entry["absmax"], absmax)
        entry["calls"] += 1

    original_dense = Dense.forward
    original_embed = Embedding.forward
    original_cell = LSTMCell.forward
    original_step = LSTMCell.step_inference

    def dense_forward(self, x):
        record(self, x)
        return original_dense(self, x)

    def embed_forward(self, token_ids):
        record(self, None)
        return original_embed(self, token_ids)

    def cell_forward(self, x, state):
        record(self, x)
        return original_cell(self, x, state)

    def cell_step(self, x, state, xw=None):
        record(self, x)
        return original_step(self, x, state, xw=xw)

    with _preserve_dtype_state():
        Dense.forward = dense_forward
        Embedding.forward = embed_forward
        LSTMCell.forward = cell_forward
        LSTMCell.step_inference = cell_step
        try:
            yield stats
        finally:
            Dense.forward = original_dense
            Embedding.forward = original_embed
            LSTMCell.forward = original_cell
            LSTMCell.step_inference = original_step


def calibrate(module: Module, forward: Callable[[], object]) -> Dict[str, Dict[str, float]]:
    """Run ``forward()`` under instrumentation; return the activation ranges."""
    with record_activation_ranges(module) as stats:
        forward()
    return stats


# ----------------------------------------------------------------------
# Module-tree quantization
# ----------------------------------------------------------------------
def _layer_mode(
    weight: np.ndarray,
    requested: str,
    stats: Optional[Dict[str, float]],
    error_budget: float,
) -> str:
    """int8 unless calibrated ranges say the rounding error is too hot.

    The bound is Hölder's: a pre-activation perturbation is at most
    ``max|ΔW| · absmax(x) · fan_in``.  Layers whose bound exceeds
    ``error_budget`` fall back to float16 (error ~2^-11, effectively free).
    """
    if requested != "int8":
        return requested
    if not stats:
        return "int8"
    payload = quantize_array(weight, "int8")
    worst = _quantization_error(payload, weight) * stats["absmax"] * weight.shape[0]
    return "int8" if worst <= error_budget else "float16"


def _swap_quantizable(
    parent: Module,
    prefix: str,
    requested: str,
    calibration: Optional[Dict[str, Dict[str, float]]],
    error_budget: float,
) -> None:
    for name, child in list(parent._modules.items()):
        dotted = f"{prefix}{name}"
        stats = calibration.get(dotted) if calibration else None
        replacement = None
        if type(child) is Dense:
            mode = _layer_mode(child.weight.data, requested, stats, error_budget)
            replacement = QuantizedDense.from_dense(child, mode)
        elif type(child) is Embedding:
            replacement = QuantizedEmbedding.from_embedding(child, requested)
        elif type(child) is LSTMCell:
            mode = _layer_mode(child.w_x.data, requested, stats, error_budget)
            replacement = QuantizedLSTMCell.from_cell(child, mode)
        if replacement is None:
            _swap_quantizable(child, f"{dotted}.", requested, calibration, error_budget)
            continue
        parent._modules[name] = replacement
        if getattr(parent, name, None) is child:
            object.__setattr__(parent, name, replacement)
        items = parent.__dict__.get("_items")
        if isinstance(items, list):
            for index, item in enumerate(items):
                if item is child:
                    items[index] = replacement


def quantize_module(
    module: Module,
    mode: str = "int8",
    calibration: Optional[Dict[str, Dict[str, float]]] = None,
    error_budget: float = 0.5,
) -> Module:
    """A quantized deep copy of ``module`` that infers in float32.

    The copy goes through pickle (the exact path a :class:`ModelSnapshot`
    takes), swaps every ``Dense``/``Embedding``/``LSTMCell`` for its
    quantized counterpart, casts all remaining parameters to float32, and —
    where the host model declares the hooks — pins float32 inference
    (``_inference_dtype``) and records the mode (``_quantized_mode``).  The
    original module is left untouched and stays the executable float
    reference.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown quantization mode {mode!r} (use {_MODES})")
    with _preserve_dtype_state():
        clone = pickle.loads(pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL))
        _swap_quantizable(clone, "", mode, calibration, error_budget)
        clone.astype(np.float32)
        clone.eval()
        clone.zero_grad()
        if hasattr(type(clone), "_inference_dtype"):
            clone._inference_dtype = np.float32
        if hasattr(type(clone), "_quantized_mode"):
            clone._quantized_mode = mode
    return clone
