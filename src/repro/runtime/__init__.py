"""``repro.runtime`` — fault tolerance for the briefing serving path.

The briefing pipeline must survive bad pages and failing model stages
instead of crashing, and the concurrent serving layer must survive failing
workers.  This package holds what both degrade on:

* :mod:`~repro.runtime.errors` — structured exception taxonomy
  (``FetchError`` / ``ParseError`` / ``RenderError`` / ``ModelError`` and the
  serving errors ``QueueFull`` / ``DeadlineExceeded`` / ``Overloaded`` under
  a common ``BriefingError``);
* :mod:`~repro.runtime.chaos` — ``ChaosModel`` / ``ChaosWorker`` seeded fault
  injection (model-stage faults, worker stalls/exceptions/deaths), so
  robustness is testable offline;
* :mod:`~repro.runtime.stats` — ``RuntimeStats`` counters threaded through
  the briefing pipelines and the serving worker pool.

The package depends only on the standard library — it sits *below*
``repro.html`` and ``repro.core`` in the layer diagram and never imports them.
"""

from .chaos import ChaosModel, ChaosWorker, WorkerDeath
from .errors import (
    BriefingError,
    DeadlineExceeded,
    FetchError,
    ModelError,
    Overloaded,
    ParseError,
    QueueFull,
    RenderError,
)
from .stats import RuntimeStats

__all__ = [
    "BriefingError",
    "FetchError",
    "ParseError",
    "RenderError",
    "ModelError",
    "QueueFull",
    "DeadlineExceeded",
    "Overloaded",
    "ChaosModel",
    "ChaosWorker",
    "WorkerDeath",
    "RuntimeStats",
]
