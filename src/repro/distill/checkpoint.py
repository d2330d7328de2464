"""Student checkpointing: freeze a distilled student for serving.

A student coming out of :class:`~repro.distill.DualDistiller` /
:class:`~repro.distill.TriDistiller` is a live training object: dropout is
armed (``training=True``) and every parameter may still hold its last
gradient array.  Shipping that object straight into the process transport
*works* — everything pickles — but:

* a student serving with dropout active decodes **nondeterministically**,
  breaking the serving stack's bit-identical-outputs contract the moment the
  snapshot crosses a process boundary;
* the gradient arrays never reach the blob (a
  :class:`~repro.nn.Parameter` pickles without its gradient), yet the live
  student keeps them in memory — as much again as the weights — until
  something drops them.

:class:`StudentCheckpoint` is the explicit freeze step between distillation
and serving: it puts the student in eval mode, drops the gradients, and
hands out :class:`~repro.core.transport.ModelSnapshot`-ready state.  The
regression suite pins the round-trip: a checkpointed student restored from a
snapshot decodes bit-identically to the float32 copy a thread worker serves,
on any transport.
"""

from __future__ import annotations

import pickle
from typing import Optional, Sequence

from ..models.joint_wb import JointWBModel

__all__ = ["StudentCheckpoint"]


class StudentCheckpoint:
    """A distilled student frozen for serving.

    Construction normalises the model *in place* — ``eval()`` (dropout off)
    and ``zero_grad()`` (gradient arrays dropped) — because a checkpoint is
    a statement that training is over; ``metadata`` carries free-form
    provenance (distiller name, epochs, corpus seed) that rides along
    through pickling.
    """

    def __init__(self, model: JointWBModel, metadata: Optional[dict] = None) -> None:
        self.model = model.eval()
        self.model.zero_grad()
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The checkpoint (model + metadata) as a self-contained pickle."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "StudentCheckpoint":
        checkpoint = pickle.loads(blob)
        if not isinstance(checkpoint, cls):
            raise TypeError(f"blob does not hold a {cls.__name__}")
        return checkpoint

    def to_snapshot(self):
        """A :class:`~repro.core.transport.ModelSnapshot` of the frozen model.

        This is the object the process transport ships to worker processes;
        going through the checkpoint (rather than snapshotting the live
        student) is what guarantees eval mode inside the blob.
        """
        from ..core.transport import ModelSnapshot  # distill must not hard-import core

        return ModelSnapshot(self.model)

    # ------------------------------------------------------------------
    def verify_roundtrip(
        self, documents: Sequence, beam_size: int = 2, batch_size: int = 8
    ) -> bool:
        """Decode ``documents`` before and after a snapshot round-trip.

        Returns ``True`` when the restored model's briefs are bit-identical
        to those of the float32 copy the thread transport serves — the
        property the serving stack depends on.
        """
        from ..core.transport import serving_copy

        restored = self.to_snapshot().restore()
        original = serving_copy(self.model).predict_batch(
            documents, beam_size=beam_size, batch_size=batch_size
        )
        replayed = restored.predict_batch(
            documents, beam_size=beam_size, batch_size=batch_size
        )
        for left, right in zip(original, replayed):
            if left.topic != right.topic or left.attributes != right.attributes:
                return False
            if (left.sections != right.sections).any():
                return False
        return True
