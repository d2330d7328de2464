"""What crosses into a worker process, and which worker a page goes to.

:class:`~repro.core.serving.WorkerPool` serves over threads or over worker
processes; the process transport needs two pieces of data the thread
transport does not:

* :class:`ModelSnapshot` — a picklable, self-contained copy of the model
  plus the inference environment (``nn`` default dtype, and the model's own
  RNG state, which rides inside the pickle).  Worker processes restore it
  exactly once at fork/spawn, so process-transport outputs are bit-identical
  to thread-transport outputs.
* :class:`ConsistentHashRouter` — a hash ring over worker shards.  Page
  content-hashes map stably to shards (stable across processes *and* worker
  restarts, because ring position depends on the shard index, not on any
  process identity), so each worker process's local brief cache stays hot
  for the pages routed to it.
"""

from __future__ import annotations

import bisect
import hashlib
import pickle
from typing import Dict, Iterable

import numpy as np

from ..nn.tensor import get_default_dtype, set_default_dtype

__all__ = ["ModelSnapshot", "ConsistentHashRouter"]


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
        #: quantization provenance ("int8" / "float16" / None), readable
        #: without unpickling the blob.
        self.quantized_mode = getattr(model, "_quantized_mode", None)
        self.is_quantized = self.quantized_mode is not None

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


def _ring_point(key: str) -> int:
    """A stable 64-bit ring coordinate (sha256, so identical cross-process)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRouter:
    """Consistent-hash ring mapping content-hash keys to worker shards.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key routes to the
    shard owning the first point at or after the key's own ring coordinate.
    Points are derived from the shard *index* only, so the mapping is stable
    across processes, runs and worker restarts (a resurrected shard keeps
    its keys), and virtual nodes keep the split close to uniform.
    """

    def __init__(self, num_shards: int, vnodes: int = 64) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.num_shards = num_shards
        self.vnodes = vnodes
        ring = [
            (_ring_point(f"shard-{shard}/vnode-{vnode}"), shard)
            for shard in range(num_shards)
            for vnode in range(vnodes)
        ]
        ring.sort()
        self._points = [point for point, _ in ring]
        self._shards = [shard for _, shard in ring]

    def route(self, key: str) -> int:
        """The shard index owning ``key`` (deterministic)."""
        index = bisect.bisect_left(self._points, _ring_point(key))
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._shards[index]

    def distribution(self, keys: Iterable[str]) -> Dict[int, int]:
        """Keys-per-shard histogram (for tests and capacity checks)."""
        counts: Dict[int, int] = {shard: 0 for shard in range(self.num_shards)}
        for key in keys:
            counts[self.route(key)] += 1
        return counts
