"""What serving briefs with, and what crosses into a worker process.

Serving briefs in float32 while training, the scalar ``beam_search`` and the
sequential :class:`~repro.core.pipeline.BriefingPipeline` stay float64, the
executable spec.  :func:`serving_copy` makes the float32, eval-mode copy
once; its weights carry the precision, so no dtype switch is needed anywhere
else.

:class:`~repro.core.serving.WorkerPool` serves over threads or over worker
processes from one admission queue; the process transport needs one piece
of data the thread transport does not.  :class:`ModelSnapshot` is a
picklable, self-contained copy of the served model (its RNG state rides
inside the pickle).  Worker processes restore it exactly once at fork/spawn,
so process-transport outputs are bit-identical to thread-transport outputs.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np

from ..nn.module import Module, Parameter

__all__ = ["ModelSnapshot", "serving_copy"]


def serving_copy(model):
    """The model serving briefs with: a float32, eval-mode ``nn.Module``.

    Every parameter is cast into a fresh, gradient-free ``Parameter``; the
    rest of the model (vocabulary, config, RNG) is deep-copied and the copy
    is put in eval mode, so dropout never fires while serving and the
    caller's model is left as it was, ``training`` flag included.  A float32
    model already in eval mode is served as given, and so is anything that
    is not a ``Module`` (a wrapper that delegates to one).
    """
    if not isinstance(model, Module):
        return model
    parameters = model.parameters()
    training = any(module.training for module in model.modules())
    if not training and all(param.data.dtype == np.float32 for param in parameters):
        return model
    memo = {id(param): Parameter(param.data.astype(np.float32), name=param.name) for param in parameters}
    return copy.deepcopy(model, memo).eval()


class ModelSnapshot:
    """A picklable, self-contained copy of the served model.

    The model is cast by :func:`serving_copy` and serialised eagerly at
    construction (in the parent), so every worker process restores the
    *same* float32 weights and the same model RNG state regardless of when
    it spawns — a worker resurrected mid-run is bit-identical to one started
    at boot.
    """

    def __init__(self, model) -> None:
        self.blob = pickle.dumps(serving_copy(model), protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def num_bytes(self) -> int:
        return len(self.blob)

    def restore(self):
        """Deserialise the model (in a worker process)."""
        return pickle.loads(self.blob)
