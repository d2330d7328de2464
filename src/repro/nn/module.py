"""Module and Parameter abstractions for the neural substrate.

Follows the familiar PyTorch contract: a :class:`Module` owns
:class:`Parameter` leaves and child modules, discovered automatically through
attribute assignment.  Supports train/eval mode switching, gradient zeroing
and flat ``state_dict`` serialisation to plain numpy arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)

    def __getstate__(self):
        """Pickle without the gradient, as ``state_dict``/``save`` already do.

        A gradient is scratch of the last backward pass: a pickled model
        (a ``ModelSnapshot``, a checkpoint) would otherwise ship one array
        per parameter that nothing reads after unpickling.  Built by hand
        because ``object.__getstate__`` only exists from Python 3.11.
        """
        slots = {name: getattr(self, name) for name in Tensor.__slots__}
        slots["grad"] = None
        return (self.__dict__ or None, slots)


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Attribute-based registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar weights in this module tree."""
        return sum(p.size for p in self.parameters())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------
    # Mode & gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def astype(self, dtype) -> "Module":
        """Cast every parameter in-place to ``dtype`` (e.g. ``np.float32``).

        The parameters carry the precision: every tensor a float32 module
        computes is float32, with no dtype switch.  The float64 default
        exists for reliable gradient checking; inference does not need it,
        so serving briefs with a float32 *copy*
        (:func:`repro.core.transport.serving_copy`) and leaves the float64
        model, the spec, as it was.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def save(self, path: str) -> None:
        """Save the parameters to an ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load parameters previously written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({k: archive[k] for k in archive.files})

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of modules whose parameters are registered with the parent."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
