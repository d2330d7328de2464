"""What crosses into a worker process: the model snapshot.

:class:`~repro.core.serving.WorkerPool` serves over threads or over worker
processes from one admission queue; the process transport needs one piece
of data the thread transport does not.  :class:`ModelSnapshot` is a
picklable, self-contained copy of the model plus the inference environment
(``nn`` default dtype, and the model's own RNG state, which rides inside the
pickle).  Worker processes restore it exactly once at fork/spawn, so
process-transport outputs are bit-identical to thread-transport outputs.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..nn.tensor import get_default_dtype, set_default_dtype

__all__ = ["ModelSnapshot"]


class ModelSnapshot:
    """A picklable, self-contained model + inference environment.

    The model is serialised eagerly at construction (in the parent), so
    every worker process restores the *same* weights and the same model RNG
    state regardless of when it spawns — a worker resurrected mid-run is
    bit-identical to one started at boot.  :meth:`restore` also re-applies
    the ``nn`` process default dtype captured at snapshot time, so a parent
    running under ``nn.set_default_dtype(np.float32)`` gets float32 workers.
    """

    def __init__(self, model, dtype=None) -> None:
        self.blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        #: dtype the serving pipeline runs inference under (or None).
        self.pipeline_dtype = None if dtype is None else np.dtype(dtype).str
        #: the nn-wide default dtype in effect when the snapshot was taken.
        self.default_dtype = np.dtype(get_default_dtype()).str

    @property
    def num_bytes(self) -> int:
        return len(self.blob)

    def restore(self):
        """Deserialise in a worker process: ``(model, pipeline_dtype)``.

        Sets the process-wide ``nn`` default dtype *before* unpickling, so
        any tensors materialised during restore already use it.
        """
        set_default_dtype(np.dtype(self.default_dtype))
        model = pickle.loads(self.blob)
        dtype = None if self.pipeline_dtype is None else np.dtype(self.pipeline_dtype)
        return model, dtype
