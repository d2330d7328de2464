"""Fault injection: make robustness testable offline.

:class:`ChaosModel` wraps a WB model and makes its inference stages fail with
seeded :class:`~repro.runtime.errors.ModelError` faults, so the briefing
pipeline's degradation ladder can be exercised.  :class:`ChaosWorker` aims
the same treatment at the concurrent serving layer: injected exceptions,
stalls and outright *deaths* in :class:`~repro.core.serving.WorkerPool`
worker loops (on either transport), so the supervisor / re-queue /
conservation machinery is testable without real crashes.  All randomness
comes from ``random.Random(seed)``: the same seed yields the same fault
schedule, so chaos tests are ordinary deterministic tests.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, Optional

from .errors import ModelError
from .stats import RuntimeStats

__all__ = ["ChaosModel", "ChaosWorker", "WorkerDeath"]


class ChaosModel:
    """Wrap a WB model so each inference stage can fail with seeded faults."""

    def __init__(self, model, failure_rate: float = 0.0, seed: int = 0, stats=None) -> None:
        self.model = model
        self.failure_rate = failure_rate
        self.stats = stats if stats is not None else RuntimeStats()
        self._rng = random.Random(seed)

    def _maybe_fail(self, stage: str) -> None:
        if self._rng.random() < self.failure_rate:
            self.stats.inc("faults_injected")
            raise ModelError(f"injected {stage} failure", transient=True)

    def predict_topic(self, document, beam_size: int = 4):
        self._maybe_fail("topic")
        return self.model.predict_topic(document, beam_size=beam_size)

    def predict_attributes(self, document, *args, **kwargs):
        self._maybe_fail("attributes")
        return self.model.predict_attributes(document, *args, **kwargs)

    def predict_attributes_scored(self, document, *args, **kwargs):
        self._maybe_fail("attributes")
        return self.model.predict_attributes_scored(document, *args, **kwargs)

    def predict_sections(self, document):
        self._maybe_fail("sections")
        return self.model.predict_sections(document)

    def __getattr__(self, name: str):
        return getattr(self.model, name)


class WorkerDeath(BaseException):
    """Injected crash of a serving worker thread.

    Deliberately a ``BaseException`` (outside the :class:`BriefingError`
    family and outside ``Exception``) so no degradation ladder or last-resort
    handler can swallow it: the worker thread genuinely dies mid-batch, the
    way a segfaulting native extension or an OOM kill would take it out, and
    the supervisor has to notice, resurrect the worker and re-queue the work.
    """


class ChaosWorker:
    """Seeded fault injection inside serving worker threads.

    Installed into :class:`~repro.core.serving.WorkerPool`; each worker's
    loop calls :meth:`on_batch` once per dispatched micro-batch, parent-side
    on both transports, which (per the independent rates) may

    * **stall** — hand ``stall_seconds`` to the sleep hook, simulating a
      wedged model call (heartbeats go stale, latency spikes);
    * **raise** a transient :class:`~repro.runtime.errors.ModelError` —
      the batch degrades through the worker's last-resort handler, the
      worker survives;
    * **die** — raise :class:`WorkerDeath`: the worker is lost while it
      still holds the batch (its loop returns; a worker process is killed).

    Each worker index draws from its own seeded ``random.Random`` stream
    (the shared seed mixed with the index), so a worker's fault schedule is
    deterministic regardless of how the threads interleave.  ``only_worker`` restricts injection to a single
    worker index (handy for targeted tests); ``max_deaths`` caps total
    injected deaths across the pool (so a bounded soak cannot spiral).
    """

    def __init__(
        self,
        exception_rate: float = 0.0,
        stall_rate: float = 0.0,
        death_rate: float = 0.0,
        stall_seconds: float = 0.05,
        seed: int = 0,
        stats: Optional[RuntimeStats] = None,
        sleep: Optional[Callable[[float], None]] = None,
        only_worker: Optional[int] = None,
        max_deaths: Optional[int] = None,
    ) -> None:
        for name, rate in (
            ("exception_rate", exception_rate),
            ("stall_rate", stall_rate),
            ("death_rate", death_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.exception_rate = exception_rate
        self.stall_rate = stall_rate
        self.death_rate = death_rate
        self.stall_seconds = stall_seconds
        self.seed = seed
        self.stats = stats if stats is not None else RuntimeStats()
        self._sleep = sleep
        self.only_worker = only_worker
        self.max_deaths = max_deaths
        self.deaths = 0
        # Concurrent workers share this injector: the lock keeps the shared
        # stats/death counters exact; the per-worker rngs keep schedules
        # deterministic regardless of thread interleaving.
        self._lock = threading.Lock()
        self._rngs: Dict[int, random.Random] = {}

    def __getstate__(self):
        # The lock is process-local and unpicklable; everything else (the
        # per-worker rng streams included) crosses a process boundary
        # intact.  Note a pickled copy has *independent* death/stats
        # counters — parent-side injection is how the serving layer keeps
        # the shared caps exact across worker processes.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _rng(self, worker_index: int) -> random.Random:
        rng = self._rngs.get(worker_index)
        if rng is None:
            # Mix the shared seed with the worker index so each worker gets
            # its own deterministic stream (Random only accepts int seeds).
            rng = self._rngs[worker_index] = random.Random(self.seed * 1_000_003 + worker_index)
        return rng

    def on_batch(self, worker_index: int, batch_size: int) -> None:
        """One injection opportunity; called by the worker loop per batch."""
        if self.only_worker is not None and worker_index != self.only_worker:
            return
        with self._lock:
            rng = self._rng(worker_index)
            # Draw all three decisions every call so a worker's schedule is a
            # pure function of its call count, not of which faults fired.
            stall = rng.random() < self.stall_rate
            fail = rng.random() < self.exception_rate
            die = rng.random() < self.death_rate
            if die and (self.max_deaths is None or self.deaths < self.max_deaths):
                self.deaths += 1
            else:
                die = False
            for fired in (stall, fail, die):
                if fired:
                    self.stats.inc("faults_injected")
            if stall:
                self.stats.inc("latency_spikes")
        if stall and self._sleep is not None:
            self._sleep(self.stall_seconds)
        if die:
            raise WorkerDeath(f"injected death of worker {worker_index}")
        if fail:
            raise ModelError(
                f"injected worker {worker_index} failure ({batch_size} pages)",
                transient=True,
            )
