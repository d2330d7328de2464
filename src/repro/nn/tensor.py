"""Reverse-mode automatic differentiation on top of numpy.

This module is the foundation of the neural substrate used by every model in
the reproduction.  It implements a small define-by-run autograd engine in the
style of PyTorch: a :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it; calling :meth:`Tensor.backward` walks the recorded
graph in reverse topological order and accumulates gradients.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``.
* Broadcasting is supported for elementwise binary operations; gradients are
  reduced back to the operand's shape by :func:`_unbroadcast`.
* The default dtype is ``float64`` — at the small model scales used in this
  repository the extra precision is cheap and makes finite-difference
  gradient checking reliable.  The data carries the precision: a tensor
  built from a float32 array stays float32, and a scalar or non-float
  operand takes the dtype of the tensor it meets, so a module whose
  parameters are float32 computes in float32 end to end.
* The engine is deliberately minimal: only the operations required by the
  models in the paper are implemented, each with an explicit backward rule.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
]

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

#: Per-thread autograd mode.  ``no_grad`` scopes its effect to the thread
#: that entered it, so a serving worker pool can run inference under
#: ``no_grad`` while other threads keep training — a process-wide flag would
#: let one thread's ``__exit__`` corrupt another's in-flight forward pass.
_MODE = threading.local()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _grad_enabled() -> bool:
    return getattr(_MODE, "grad_enabled", True)


def _check_dtype(dtype) -> np.dtype:
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported tensor dtype {dtype} (use float32 or float64)")
    return dtype


def _resolve_dtype(data, dtype) -> np.dtype:
    if dtype is not None:
        return _check_dtype(dtype)
    if isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES:
        return data.dtype
    return np.dtype(np.float64)


class no_grad:
    """Context manager that disables gradient recording on this thread.

    Mirrors ``torch.no_grad``.  While active, newly created result tensors do
    not require gradients and no backward functions are recorded, which makes
    inference cheaper.  The flag is thread-local, so concurrent inference
    threads never re-enable gradients under each other's feet.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _grad_enabled()
        _MODE.grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _MODE.grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for autograd."""
    return _grad_enabled()


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the corresponding gradient must be summed over
    those axes to match the operand's original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast (size-1) dimensions.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    __array_priority__ = 200  # make numpy defer to Tensor's operators

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype=None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_resolve_dtype(data, dtype))
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype`` (no graph, like detach)."""
        return Tensor(self.data.astype(dtype), dtype=dtype)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _operand(self, other: TensorLike) -> "Tensor":
        """``other`` as a tensor; a scalar or non-float operand takes this dtype.

        A Python float would otherwise become a float64 0-d array, which
        NumPy promotion lets upcast a float32 operation.
        """
        if isinstance(other, Tensor):
            return other
        if isinstance(other, np.ndarray) and other.dtype in _FLOAT_DTYPES:
            return Tensor(other)
        return Tensor(other, dtype=self.data.dtype)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Incoming gradient.  Defaults to ones (only valid for scalar
            outputs, matching the usual loss-backward idiom).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)

        # Iterative topological sort to avoid recursion-depth issues on long
        # RNN graphs.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._operand(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._operand(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix operations
    # ------------------------------------------------------------------
    def matmul(self, other: TensorLike) -> "Tensor":
        other = self._operand(other)
        out_data = self.data @ other.data
        a_was_1d = self.data.ndim == 1
        b_was_1d = other.data.ndim == 1

        def backward(grad: np.ndarray) -> None:
            # Promote 1-D operands to matrices so one rule covers all cases:
            # for C = A @ B, dA = dC @ B^T and dB = A^T @ dC.
            a = self.data[None, :] if a_was_1d else self.data
            b = other.data[:, None] if b_was_1d else other.data
            g = grad
            if b_was_1d:
                g = np.expand_dims(g, -1)
            if a_was_1d:
                g = np.expand_dims(g, -2)
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                if a_was_1d:
                    ga = ga.reshape(-1, self.data.shape[0]).sum(axis=0)
                self._accumulate(_unbroadcast(np.asarray(ga), self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                if b_was_1d:
                    gb = gb.reshape(-1, other.data.shape[0]).sum(axis=0) if gb.ndim > 2 else gb[:, 0]
                other._accumulate(_unbroadcast(np.asarray(gb), other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def __rmatmul__(self, other: TensorLike) -> "Tensor":
        return self._operand(other).matmul(self)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]] = tuple(axes) if axes else None
        out_data = np.transpose(self.data, axes_tuple)
        if axes_tuple is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes_tuple))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(np.float64)
                mask /= mask.sum(axis=axis, keepdims=True)
                g = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family (implemented stably at the tensor level because they
    # are used pervasively by the attention and distillation losses)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        softmax = np.exp(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparison helpers (non-differentiable, returned as numpy)
    # ------------------------------------------------------------------
    def argmax(self, axis: Optional[int] = None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def as_tensor(value: TensorLike, dtype=None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one).

    With ``dtype`` given, an existing tensor of a different dtype is cast
    (returning a detached copy); matching tensors pass through untouched.
    """
    if isinstance(value, Tensor):
        if dtype is not None and value.data.dtype != np.dtype(dtype):
            return value.astype(dtype)
        return value
    return Tensor(value, dtype=dtype)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, end)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)
