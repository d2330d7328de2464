"""Concurrent serving: a micro-batching scheduler, a worker pool, one front cache.

This module scales :class:`~repro.core.batched.BatchedBriefingPipeline` from
one thread to a pool, without giving up the two contracts the serving stack
already guarantees: *never raise* (faults degrade to
:class:`~repro.core.briefing.PartialBrief`) and *bit-identical outputs*
(concurrent briefs match the sequential pipeline's exactly — the test suite's
``DeterminismHarness`` proves worker-count invariance).

Layers, bottom up:

* :class:`RequestScheduler` — a bounded admission queue with micro-batching:
  a worker asking for work receives up to ``max_batch`` pending requests,
  waiting at most ``max_wait_ms`` for stragglers, so one
  ``predict_batch`` call amortises the encoder across concurrent requests.
  A full queue rejects with :class:`~repro.runtime.errors.QueueFull`
  (backpressure, the serving stack's one overload policy); ``close()``
  starts a clean drain — queued work is always served, new work is
  rejected, workers exit once the queue is empty.  Requests that carry an
  absolute ``deadline`` are swept out of batches before dispatch and
  resolved via the scheduler's ``on_expired`` hook.
* :class:`WorkerPool` — N briefing workers draining one scheduler, one
  record and one loop each, over either transport: threads whose pipelines
  share one read-only float32 copy of the model, or worker processes that
  each restore a :class:`~repro.core.transport.ModelSnapshot` of it.  Every
  loop feeds :func:`_serve_payload` — in-thread, or inside the child through
  the pipe channel of :mod:`repro.core.process_pool` — folds each reply's
  stats and telemetry delta into the worker's record and fills the front
  brief cache; merged reads combine the records.  Workers heartbeat and record
  the batch they hold, so a supervisor can spot dead/wedged ones.
* :class:`WorkerSupervisor` — resurrects dead or wedged workers with fresh
  per-worker state, re-queues the batch the dead worker held (at-most-once
  re-dispatch: resolved futures are never double-set), and quarantines
  *poison* requests — content that repeatedly kills workers — by bisecting
  the blast radius down to a single request.
* :class:`ConcurrentBriefingPipeline` — the facade: thread-safe
  ``submit``/``brief_many`` with per-request deadlines,
  hits in the one brief cache of the serving stack (a
  :class:`~repro.core.batched.BriefCache` of :data:`FRONT_CACHE_SIZE`
  entries, served without touching the queue), and a
  single-flight in-flight map so concurrent requests for the same content
  run the model exactly once — followers wait on the leader's computation
  and receive defensive copies, each checked against its *own* deadline.
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..models.joint_wb import JointWBModel
from ..obs import (
    NOOP_REGISTRY,
    NOOP_SPAN,
    NOOP_TRACER,
    EventJournal,
    MetricsRegistry,
    MetricsSnapshot,
    SLOTracker,
    TraceContext,
    Tracer,
)
from ..runtime.chaos import WorkerDeath
from ..runtime.errors import DeadlineExceeded, Overloaded, QueueFull
from ..runtime.stats import RuntimeStats
from .batched import BatchedBriefingPipeline, BriefCache, Page, _copy_brief, content_hash
from .briefing import Degradation, PartialBrief
from .pipeline import _reason
from .process_pool import PipeChannel
from .transport import ModelSnapshot, serving_copy

__all__ = [
    "RequestScheduler",
    "WorkerPool",
    "WorkerSupervisor",
    "ConcurrentBriefingPipeline",
]

#: Entries in the front brief cache, the only brief cache in serving: three
#: 256-entry budgets, the front door's and one per worker at the default two.
FRONT_CACHE_SIZE = 768

#: Worker deaths any request may survive before it is quarantined.
MAX_ATTEMPTS = 5

#: Deaths a request may cause riding *alone* before it is quarantined.
POISON_THRESHOLD = 2


def _resolve(future: "Future[PartialBrief]", brief: PartialBrief) -> bool:
    """Set a future's result exactly once; lose gracefully if already set.

    The supervisor and the worker it replaces can race to resolve the same
    request (a wedged worker may finish late, after its batch was re-queued).
    Whoever gets there first wins; the loser is a no-op, so re-dispatch is
    at-most-once from the caller's point of view.
    """
    try:
        future.set_result(brief)
        return True
    except InvalidStateError:
        return False


def _deadline_partial(where: str) -> PartialBrief:
    """The typed brief an expired request resolves to (never raises)."""
    exc = DeadlineExceeded(f"deadline expired {where}")
    return PartialBrief(
        topic=[],
        attributes=[],
        degradations=[Degradation("deadline", "expired", _reason(exc))],
    )


def _empty_brief(exc: BaseException) -> PartialBrief:
    """The typed brief a request the serving layer could not brief resolves to."""
    return PartialBrief(
        topic=[],
        attributes=[],
        degradations=[Degradation("serve", "empty_brief", _reason(exc))],
    )


class RequestScheduler:
    """Bounded admission queue with micro-batching and drain-on-close.

    ``submit`` enqueues one request (any object) or raises
    :class:`~repro.runtime.errors.QueueFull` when the queue holds
    ``max_queue`` pending requests or the scheduler is closed — backpressure
    instead of unbounded memory.  ``next_batch`` is the worker side: it
    blocks for work, then collects up to ``max_batch`` requests, waiting at
    most ``max_wait_ms`` for stragglers once it holds at least one, and
    returns the batch.  After :meth:`close`, queued requests keep being
    handed out (a drain never drops admitted work) and ``next_batch``
    returns ``None`` once the queue is empty — the worker exit signal.

    Requests may carry three optional attributes the scheduler understands:

    * ``deadline`` — absolute clock value after which the request is dead.
      Expired requests are swept out while collecting a batch and handed to
      the ``on_expired`` callback (fired *outside* the scheduler lock, so
      the callback may resolve futures that fan out into other locks).
    * ``batch_limit`` — cap on the size of any batch containing this
      request.  The supervisor halves it on re-queued survivors of a worker
      death, bisecting a poison batch down to the single bad request.
    * (anything else is opaque to the scheduler.)

    The idle wait is event-driven: a worker with an empty queue sleeps on
    the condition with **no timeout** and is woken exactly by ``submit``,
    ``requeue`` or ``close`` — no 100 ms polling spin.  ``idle_wakeups``
    counts waits that returned with nothing to do (spurious wakeups); a
    regression test pins it at zero for a quiet scheduler.

    ``clock`` is any zero-argument monotonic callable (default
    ``time.monotonic``); inject a fake one to make the ``max_wait_ms`` flush
    deterministic in tests, mirroring :class:`repro.obs.trace.Tracer`.
    """

    def __init__(
        self,
        max_queue: int = 256,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
        on_expired: Optional[Callable[[object], None]] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self._clock = clock if clock is not None else time.monotonic
        self._on_expired = on_expired
        #: idle waits that woke with no work and no close — spurious wakeups.
        self.idle_wakeups = 0
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet handed to a worker)."""
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def submit(self, request) -> None:
        """Admit one request, or raise :class:`QueueFull` (backpressure)."""
        with self._cond:
            if self._closed:
                raise QueueFull("scheduler is shut down")
            if len(self._items) >= self.max_queue:
                raise QueueFull(f"admission queue full ({self.max_queue} pending)")
            self._items.append(request)
            self._cond.notify()

    def requeue(self, requests: Iterable[object]) -> None:
        """Put re-dispatched requests back at the *front* of the queue.

        Used by the supervisor for a dead worker's batch: the work was
        admitted long ago, so it goes ahead of newer arrivals.  Works even
        after :meth:`close` — a drain must still serve re-queued work.
        """
        items = list(requests)
        if not items:
            return
        with self._cond:
            for request in reversed(items):
                self._items.appendleft(request)
            self._cond.notify_all()

    def drain(self) -> list:
        """Remove and return everything still queued (shutdown sweeper)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            return items

    # ------------------------------------------------------------------
    def _is_expired(self, item) -> bool:
        deadline = getattr(item, "deadline", None)
        return deadline is not None and self._clock() >= deadline

    def _pop_live(self, expired: list):
        """Pop queue items, diverting expired ones; None if none live."""
        while self._items:
            item = self._items.popleft()
            if self._is_expired(item):
                expired.append(item)
                continue
            return item
        return None

    def next_batch(self) -> Optional[list]:
        """Block for the next micro-batch; ``None`` once closed and drained.

        Expired requests never reach a worker: they are swept into the
        ``on_expired`` callback (fired after the lock is released) both when
        popped and when skipped over while batching.
        """
        while True:
            batch, expired, done = self._collect()
            if self._on_expired is not None:
                for item in expired:
                    try:
                        self._on_expired(item)
                    except Exception:  # callback faults must not kill workers
                        pass
            if done:
                return None
            if batch:
                return batch
            # Everything popped this round was expired — go wait again.

    def _collect(self) -> Tuple[list, list, bool]:
        """One locked pass: (batch, expired items, exit signal)."""
        expired: list = []
        with self._cond:
            first = None
            while first is None:
                first = self._pop_live(expired)
                if first is not None:
                    break
                if expired:
                    # Release the lock so expired futures resolve promptly
                    # before we block again.
                    return [], expired, False
                if self._closed:
                    return [], expired, True
                # Event-driven idle wait: woken exactly by submit/requeue/
                # close.  A wakeup that finds nothing is spurious.
                self._cond.wait()
                if not self._items and not self._closed:
                    self.idle_wakeups += 1
            batch = [first]
            effective_max = min(self.max_batch, getattr(first, "batch_limit", self.max_batch))
            if effective_max <= 1:
                return batch, expired, False
            deadline = self._clock() + self.max_wait_ms / 1000.0
            while len(batch) < effective_max:
                if self._items:
                    nxt = self._items[0]
                    if self._is_expired(nxt):
                        expired.append(self._items.popleft())
                        continue
                    # A request's batch_limit caps the whole batch: stop
                    # before adding it would exceed its cap, else tighten.
                    limit = getattr(nxt, "batch_limit", self.max_batch)
                    if limit < len(batch) + 1:
                        break
                    batch.append(self._items.popleft())
                    effective_max = min(effective_max, limit)
                    continue
                if self._closed:
                    break  # draining — no stragglers are coming
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                # Bounded real wait even under a fake clock: poll in small
                # slices and re-check the (possibly injected) deadline.
                self._cond.wait(timeout=min(remaining, 0.05))
                if not self._items and self._clock() >= deadline:
                    break
            return batch, expired, False

    def close(self) -> None:
        """Stop admitting; wake every waiter so workers can drain and exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _Request:
    """One admitted briefing request: payload plus its resolution future.

    ``future`` is the *computation* future — the single-flight leader that a
    worker resolves; per-waiter futures live in the pipeline's ``_Flight``.
    ``deadline`` is the effective deadline: the max over every waiter's
    (``None`` = unbounded), so the scheduler/worker only drop the request
    when *all* waiters have expired.  ``attempts`` counts worker deaths this
    request survived; ``batch_limit`` caps the batch it may ride in
    (halved by the supervisor to bisect poison batches).  ``trace`` is the
    admission span's :class:`~repro.obs.TraceContext` (``None`` untraced):
    it rides through scheduler batching and the worker pipe so
    decode spans join the request's trace wherever they are recorded.
    """

    __slots__ = (
        "doc_id",
        "html",
        "future",
        "deadline",
        "attempts",
        "batch_limit",
        "trace",
    )

    def __init__(
        self,
        doc_id: str,
        html: str,
        future: "Future[PartialBrief]",
        deadline: Optional[float] = None,
        trace=None,
    ) -> None:
        self.doc_id = doc_id
        self.html = html
        self.future = future
        self.deadline = deadline
        self.attempts = 0
        self.batch_limit = 1_000_000_000
        self.trace = trace

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def extend_deadline(self, deadline: Optional[float]) -> None:
        """A new waiter joined: the effective deadline is the max (None = ∞)."""
        if self.deadline is None:
            return
        if deadline is None:
            self.deadline = None
        else:
            self.deadline = max(self.deadline, deadline)


def _worker_pipeline(model, index: int, generation: int, observe: bool, **options):
    """One worker's private pipeline (and, observing, its own tracer and registry).

    Worker pipelines on both transports are built here: in-thread by the
    pool, in a worker process by :mod:`repro.core.process_pool`.  The front
    cache is the only brief cache, so the pipeline keeps none; its render
    cache is its own.  Span ids carry a ``w{index}g{generation}.`` prefix so
    they stay unique across the pool, resurrected workers included.
    """
    return BatchedBriefingPipeline(
        model,
        brief_cache_size=0,
        tracer=Tracer(id_prefix=f"w{index}g{generation}.") if observe else NOOP_TRACER,
        registry=MetricsRegistry() if observe else NOOP_REGISTRY,
        **options,
    )


def _serve_payload(pipeline: BatchedBriefingPipeline, payload: list, clock):
    """Brief one batch payload: ``(briefs, stats_delta, telemetry)``.

    The one place a worker pipeline runs ``brief_many``, whichever channel
    feeds it: a thread worker calls it directly, a worker process once per
    ``serve`` frame.  ``payload`` holds ``(doc_id, html, remaining_s,
    trace)`` tuples; remaining budgets are re-anchored to ``clock`` (the
    pool clock in-thread, ``time.monotonic`` in a child) and traces become
    :class:`~repro.obs.TraceContext`\\ s again.  ``stats_delta`` holds the
    counters the batch moved; ``telemetry`` is the pipeline's
    :meth:`~repro.core.batched.BatchedBriefingPipeline.telemetry_delta`.
    """
    before = pipeline.stats.as_dict()
    now = clock()
    try:
        briefs = pipeline.brief_many(
            [(doc_id, html) for doc_id, html, _, _ in payload],
            deadlines=[None if remaining is None else now + remaining for _, _, remaining, _ in payload],
            clock=clock,
            trace_contexts=[None if trace is None else TraceContext(*trace) for _, _, _, trace in payload],
        )
    except Exception as exc:  # brief_many never raises; last resort
        briefs = [_empty_brief(exc) for _ in payload]
    after = pipeline.stats.as_dict()
    delta = {name: after[name] - before[name] for name in after if after[name] != before[name]}
    return briefs, delta, pipeline.telemetry_delta()


class _Worker:
    """One pool member: the record its loop updates and the supervisor scans.

    ``heartbeat`` (a clock sample) and ``current_batch`` are the supervisor's
    window into the worker: a live loop with a stale heartbeat and a held
    batch is *wedged*; a finished loop with ``exited`` unset *died*
    mid-batch.  ``generation`` increments on every resurrection.

    ``channel`` serves one batch payload: :func:`_serve_payload` on the
    worker's own pipeline for a thread worker, a
    :class:`~repro.core.process_pool.PipeChannel` for a worker process
    (``process``; ``None`` for threads).  ``stats``, ``snapshot`` and
    ``spans`` accumulate what the channel's replies ship; ``tracer`` and
    ``registry`` are the loop's own — the per-request ``serve`` spans (ids
    prefixed ``d{index}g{generation}.``) and the dispatch-time deadline
    histogram.
    """

    __slots__ = (
        "index",
        "generation",
        "channel",
        "process",
        "thread",
        "heartbeat",
        "current_batch",
        "exited",
        "handled",
        "stats",
        "tracer",
        "registry",
        "deadline_hist",
        "snapshot",
        "spans",
    )

    def __init__(self, index: int, generation: int, channel, observe: bool) -> None:
        self.index = index
        self.generation = generation
        self.channel = channel
        self.process = getattr(channel, "process", None)
        self.thread: Optional[threading.Thread] = None
        self.heartbeat: Optional[float] = None
        self.current_batch: Optional[List[_Request]] = None
        self.exited = False
        self.handled = False
        self.stats = RuntimeStats()
        self.tracer = Tracer(id_prefix=f"d{index}g{generation}.") if observe else NOOP_TRACER
        self.registry = MetricsRegistry() if observe else NOOP_REGISTRY
        self.deadline_hist = self.registry.histogram(
            "request_deadline_remaining_seconds",
            help="remaining deadline budget sampled at worker dispatch",
        )
        self.snapshot = MetricsSnapshot()
        self.spans: list = []

    @property
    def started(self) -> bool:
        """Whether this worker was ever started (supervisor scans skip it otherwise)."""
        return self.thread is not None

    def alive(self) -> bool:
        """Liveness on both transports: the worker's loop thread."""
        return self.thread is not None and self.thread.is_alive()


class WorkerPool:
    """N briefing workers: one ``scheduler``, and one record, loop and channel per worker.

    Every worker drains the one :class:`RequestScheduler`.  The transports
    differ only in the channel the loop calls: ``thread`` builds each
    worker's pipeline here over one shared, read-only float32 copy of the
    model (:func:`~repro.core.transport.serving_copy`), ``process`` runs it
    in a worker process that restores a :class:`ModelSnapshot` of that copy.

    Each loop heartbeats, takes a micro-batch, sweeps expired requests,
    runs ``chaos`` (a :class:`~repro.runtime.chaos.ChaosWorker`), opens the
    per-request ``serve`` spans, calls the channel, folds the reply's stats
    and telemetry into the record, fills the front cache and resolves the
    futures.  A lost worker — :class:`WorkerDeath` raised
    in the thread or injected, or a dead pipe — kills its process (if any)
    and leaves the loop holding the batch with ``exited`` unset: the
    signature :class:`WorkerSupervisor` scans for.  A replaced worker's loop
    exits before taking another batch.

    ``merged_stats()`` / ``metrics_snapshot()`` / ``trace_spans()`` combine
    every worker's record, retired ones included, so resurrection never
    loses counts; metric series and spans are stamped with ``worker`` /
    ``transport`` / ``generation`` provenance at read time.  Without
    ``observe`` the last two return empty data and warn once.
    """

    def __init__(
        self,
        model,
        num_workers: int = 2,
        *,
        transport: str = "thread",
        beam_size: int = 4,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        front_cache=None,
        observe: bool = False,
        chaos=None,
        clock: Optional[Callable[[], float]] = None,
        on_expired: Optional[Callable[[object], None]] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.transport_name = transport
        self.observe = observe
        self.chaos = chaos
        self.clock = clock if clock is not None else time.monotonic
        self._front_cache = front_cache
        self._warned_blind = False
        self._options = dict(beam_size=beam_size, batch_size=max_batch)
        if transport == "process":
            methods = multiprocessing.get_all_start_methods()
            self.start_method = mp_context or ("fork" if "fork" in methods else methods[0])
            self._ctx = multiprocessing.get_context(self.start_method)
            self._model = ModelSnapshot(model)
        else:
            self.start_method = None
            self._model = serving_copy(model)
        self.scheduler = RequestScheduler(
            max_queue=max_queue,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            clock=clock,
            on_expired=on_expired,
        )
        self._lock = threading.Lock()
        self._retired: List[_Worker] = []
        # Worker processes spawn here, before any loop or supervisor thread
        # starts, so a ``fork`` never copies a multi-threaded parent.
        self._workers = [self._make_worker(index, 0) for index in range(num_workers)]

    def _make_worker(self, index: int, generation: int) -> _Worker:
        if self.transport_name == "process":
            config = dict(self._options, index=index, generation=generation, observe=self.observe)
            channel = PipeChannel(self._ctx, self._model, config)
        else:
            pipeline = _worker_pipeline(self._model, index, generation, self.observe, **self._options)
            channel = functools.partial(_serve_payload, pipeline, clock=self.clock)
        return _Worker(index, generation, channel, self.observe)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> List[_Worker]:
        """Live worker records (for the supervisor; treat as read-only)."""
        with self._lock:
            return list(self._workers)

    def _all_workers(self) -> List[_Worker]:
        with self._lock:
            return list(self._workers) + list(self._retired)

    def _is_current(self, worker: _Worker) -> bool:
        with self._lock:
            return self._workers[worker.index] is worker

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start one loop per worker (idempotent)."""
        for worker in self.workers:
            if worker.thread is None:
                self._start_worker(worker)

    def _start_worker(self, worker: _Worker) -> None:
        if worker.process is not None:
            worker.channel.wait_ready()
        worker.thread = threading.Thread(
            target=self._run,
            args=(worker,),
            name=f"brief-worker-{worker.index}-g{worker.generation}",
            daemon=True,
        )
        worker.thread.start()

    def restart_worker(self, worker: _Worker) -> Optional[_Worker]:
        """Replace a dead/wedged worker with a fresh generation.

        The old record is retired (still counted in merged reads); the
        replacement gets entirely fresh per-worker state.  A wedged worker
        process is *not* terminated: like a wedged thread it finishes late
        (``_resolve`` is idempotent), its loop then exits, and :meth:`reap`
        catches anything left.  Returns ``None`` if ``worker`` was already
        replaced (two supervision passes racing).
        """
        with self._lock:
            if self._workers[worker.index] is not worker:
                return None
            replacement = self._make_worker(worker.index, worker.generation + 1)
            self._retired.append(worker)
            self._workers[worker.index] = replacement
        self._start_worker(replacement)
        return replacement

    def join(self, timeout: Optional[float] = None) -> List[str]:
        """Wait for every started worker to exit (the scheduler must be closed).

        A single absolute deadline is shared across all joins — ``timeout``
        bounds the *total* wall time, not each worker's.  Returns the names
        of threads still alive when the deadline hit (empty on clean exit).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Fresh snapshot each round: the supervisor may have swapped in
            # replacement workers while we were joining the previous ones.
            alive = [worker.thread for worker in self.stuck_workers()]
            if not alive:
                return []
            for thread in alive:
                if deadline is None:
                    thread.join()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    thread.join(timeout=remaining)
            if deadline is not None and time.monotonic() >= deadline:
                return [thread.name for thread in alive if thread.is_alive()]

    def stuck_workers(self) -> List[_Worker]:
        """Workers whose loop is still running (after a failed join)."""
        return [worker for worker in self.workers if worker.alive()]

    def reap(self) -> None:
        """Terminate every worker process still alive and release the pipes."""
        for worker in self._all_workers():
            if worker.process is not None:
                worker.channel.close()

    # -- the worker loop ---------------------------------------------------
    def _run(self, worker: _Worker) -> None:
        while True:
            worker.heartbeat = self.clock()
            if not self._is_current(worker):
                batch = None  # replaced after a wedge: the replacement serves on
            else:
                batch = self.scheduler.next_batch()
            if batch is None:
                if worker.process is not None:
                    worker.channel.stop()
                worker.exited = True
                return
            worker.heartbeat = self.clock()
            worker.current_batch = batch
            try:
                self._serve_batch(worker, batch)
            except (WorkerDeath, EOFError, OSError):
                # A lost worker: return holding the batch, ``exited`` unset.
                if worker.process is not None:
                    worker.channel.kill()
                return
            worker.current_batch = None

    def _serve_batch(self, worker: _Worker, batch: List[_Request]) -> None:
        worker.stats.inc("batches_dispatched")
        now = self.clock()
        live: List[_Request] = []
        for request in batch:
            if request.expired(now):
                worker.stats.inc("deadline_expirations")
                _resolve(request.future, _deadline_partial("before dispatch"))
                continue
            if request.deadline is not None:
                worker.deadline_hist.observe(request.deadline - now)
            live.append(request)
        if not live:
            return
        if self.chaos is not None:
            # An injected WorkerDeath (a BaseException) propagates: the
            # worker is lost exactly as if the model had crashed it.
            try:
                self.chaos.on_batch(worker.index, len(live))
            except Exception as exc:  # injected transient fault — degrade
                for request in live:
                    _resolve(request.future, _empty_brief(exc))
                return
        started = self.clock()
        # One detached "serve" span per traced request, under its admission
        # span: the per-request view of the shared batch.
        spans = []
        if worker.tracer.enabled:
            spans = [
                worker.tracer.open(
                    "serve",
                    trace=request.trace,
                    doc_id=request.doc_id,
                    batch_pages=len(live),
                )
                for request in live
                if request.trace is not None
            ]
        payload = [
            (
                request.doc_id,
                request.html,
                None if request.deadline is None else max(0.0, request.deadline - started),
                None if request.trace is None else tuple(request.trace),
            )
            for request in live
        ]
        try:
            briefs, delta, telemetry = worker.channel(payload)
        except (WorkerDeath, EOFError, OSError) as exc:
            for span in spans:
                span.record_error(exc).finish()
            raise
        for name, amount in delta.items():
            worker.stats.inc(name, amount)
        self._fold(worker, telemetry)
        for request, brief in zip(live, briefs):
            if self._front_cache is not None and brief.complete:
                self._front_cache.put(request.html, _copy_brief(brief))
            _resolve(request.future, brief)
        for span in spans:
            span.finish()

    def _fold(self, worker: _Worker, telemetry) -> None:
        """Merge one shipped ``(metrics delta, spans)`` increment into the record."""
        if telemetry is not None:
            with self._lock:  # a flush probe may fold concurrently
                worker.snapshot = worker.snapshot.merge(telemetry[0])
                worker.spans.extend(telemetry[1])

    # -- merged reads ------------------------------------------------------
    def merged_stats(self) -> RuntimeStats:
        """Element-wise sum of every worker's counters (retired included)."""
        merged = RuntimeStats()
        for worker in self._all_workers():
            merged = merged.merge(worker.stats)
        return merged

    def _observed_workers(self) -> List[_Worker]:
        """Every record after a flush probe; warns once (and is empty) when blind."""
        if not self.observe:
            if not self._warned_blind:
                self._warned_blind = True
                warnings.warn(
                    "WorkerPool was built with observe=False: metrics_snapshot() and "
                    "trace_spans() return empty data. Pass observe=True "
                    "(ConcurrentBriefingPipeline(..., observe=True)) to collect worker telemetry.",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return []
        workers = self._all_workers()
        for worker in workers:
            if worker.process is not None:
                self._fold(worker, worker.channel.flush())
        return workers

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Associative merge of every worker's shipped and loop-side series.

        Each worker's series are stamped with ``worker`` / ``transport`` /
        ``generation`` provenance labels at merge time (recorded labels win);
        use :meth:`MetricsSnapshot.aggregate` to collapse them back into
        pool-wide totals.
        """
        merged = MetricsSnapshot()
        for worker in self._observed_workers():
            merged = merged.merge(
                worker.snapshot.merge(worker.registry.snapshot()).with_labels(
                    worker=worker.index,
                    transport=self.transport_name,
                    generation=worker.generation,
                )
            )
        return merged

    def trace_spans(self) -> list:
        """Finished spans from every worker, both halves, retired included.

        Span ids are unique across the pool (``w``/``d`` prefixes per worker
        and generation), and every span carries ``worker`` / ``transport`` /
        ``generation`` attributes; spans recorded in a worker process come
        back as :class:`~repro.obs.SpanRecord`\\ s with the same surface.
        """
        spans = []
        for worker in self._observed_workers():
            for span in list(worker.spans) + list(worker.tracer.spans):
                span.attributes.setdefault("worker", worker.index)
                span.attributes.setdefault("transport", self.transport_name)
                span.attributes.setdefault("generation", worker.generation)
                spans.append(span)
        return spans


class WorkerSupervisor:
    """Detect dead/wedged workers, resurrect them, re-queue their batches.

    Runs a daemon loop (or is driven manually via :meth:`check` in tests)
    over a :class:`WorkerPool`'s worker records, the same on both
    transports:

    * a worker that is **dead** (``alive()`` false — its loop returned
      after a thread death or a lost worker process) without having seen
      the exit signal died mid-batch (e.g. :class:`~repro.runtime.chaos.WorkerDeath`);
    * a worker that is **alive** but has held the same batch past
      ``wedge_timeout`` seconds with a stale heartbeat is *wedged*.

    Either way the worker is replaced via
    :meth:`WorkerPool.restart_worker` (fresh stats/tracer/registry) and its
    held batch is re-queued at the front of the scheduler.  Re-dispatch is
    at-most-once per request: futures a late-finishing wedged worker already
    resolved are skipped (:func:`_resolve` loses that race gracefully), and
    the pipeline's content-hash cache makes a duplicated model pass
    idempotent.

    Poison handling: every re-queued request's ``attempts`` increments and
    its ``batch_limit`` is halved (``max(1, len(batch) // 2)``), so a batch
    that keeps killing workers bisects down to single-request batches.  A
    request that dies *alone* :data:`POISON_THRESHOLD` times (or anyone at
    :data:`MAX_ATTEMPTS`) is quarantined — resolved with a
    ``serve → quarantined`` degradation, reported to ``on_quarantine`` and
    counted.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        poll_interval: float = 0.02,
        wedge_timeout: Optional[float] = None,
        on_quarantine: Optional[Callable[[_Request], None]] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        journal: Optional[EventJournal] = None,
    ) -> None:
        self.pool = pool
        self.poll_interval = poll_interval
        self.wedge_timeout = wedge_timeout
        self.on_quarantine = on_quarantine
        self.stats = RuntimeStats()
        self.registry = registry if registry is not None else NOOP_REGISTRY
        self.journal = journal
        self._clock = clock if clock is not None else pool.clock
        self._restarts = self.registry.counter(
            "serving_worker_restarts_total", help="dead/wedged workers resurrected"
        )
        self._requeued = self.registry.counter(
            "serving_batches_requeued_total", help="held batches re-queued after a death"
        )
        self._quarantined = self.registry.counter(
            "serving_poison_quarantined_total", help="poison requests quarantined"
        )
        self._heartbeat_age = self.registry.gauge(
            "serving_worker_heartbeat_age_seconds", help="per-worker heartbeat staleness"
        )
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Spawn the supervision loop (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._loop, name="brief-supervisor", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.check()
            except Exception:  # supervision faults must not kill supervision
                pass

    def stop(self) -> None:
        """Stop the loop; run one last pass that resolves instead of restarting."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Final sweep: any worker that died right at shutdown still holds a
        # batch; resolve those futures (degraded) rather than resurrecting.
        self.check(restart=False)

    # ------------------------------------------------------------------
    def check(self, restart: bool = True) -> int:
        """One supervision pass; returns the number of failures handled."""
        handled = 0
        now = self._clock()
        for worker in self.pool.workers:
            if not worker.started or worker.handled:
                continue
            if worker.heartbeat is not None:
                self._heartbeat_age.set(
                    max(0.0, now - worker.heartbeat), worker=str(worker.index)
                )
            if worker.alive():
                if (
                    self.wedge_timeout is not None
                    and worker.current_batch is not None
                    and worker.heartbeat is not None
                    and now - worker.heartbeat >= self.wedge_timeout
                ):
                    worker.handled = True
                    self._handle_failure(worker, "wedged", restart)
                    handled += 1
                continue
            if not worker.exited:
                worker.handled = True
                self._handle_failure(worker, "died", restart)
                handled += 1
        return handled

    def _handle_failure(self, worker: _Worker, kind: str, restart: bool) -> None:
        batch = worker.current_batch or []
        survivors: List[_Request] = []
        for request in batch:
            if request.future.done():
                continue  # resolved before the crash — nothing to redo
            request.attempts += 1
            solo = len(batch) == 1
            if (solo and request.attempts >= POISON_THRESHOLD) or (
                request.attempts >= MAX_ATTEMPTS
            ):
                self._quarantine(request)
                continue
            if len(batch) > 1:
                # Bisection: survivors of a multi-request death ride in
                # batches at most half the size that died.
                request.batch_limit = min(request.batch_limit, max(1, len(batch) // 2))
            survivors.append(request)
        if restart:
            replacement = self.pool.restart_worker(worker)
            if replacement is not None:
                self.stats.inc("worker_restarts")
                self._restarts.inc(reason=kind)
                if self.journal is not None:
                    self.journal.record(
                        "worker_restart",
                        worker=worker.index,
                        reason=kind,
                        old_generation=worker.generation,
                        new_generation=replacement.generation,
                    )
            if survivors:
                self.stats.inc("batches_requeued")
                self._requeued.inc()
                if self.journal is not None:
                    self.journal.record(
                        "batch_requeued", worker=worker.index, requests=len(survivors)
                    )
                self.pool.scheduler.requeue(survivors)
        else:
            # Shutdown path: no replacement worker is coming, so the held
            # work resolves degraded instead of being re-queued.
            exc = Overloaded("worker lost at shutdown", reason="shutdown")
            for request in survivors:
                _resolve(request.future, _empty_brief(exc))

    def _quarantine(self, request: _Request) -> None:
        self.stats.inc("poison_quarantined")
        self._quarantined.inc()
        if self.journal is not None:
            self.journal.record(
                "poison_quarantine", doc_id=request.doc_id, attempts=request.attempts
            )
        exc = Overloaded(
            f"request quarantined after {request.attempts} worker deaths", reason="poison"
        )
        _resolve(
            request.future,
            PartialBrief(
                topic=[],
                attributes=[],
                degradations=[Degradation("serve", "quarantined", _reason(exc))],
            ),
        )
        if self.on_quarantine is not None:
            try:
                self.on_quarantine(request)
            except Exception:
                pass


class _Flight:
    """Single-flight record: the computation request plus waiting futures.

    ``waiters`` holds ``(future, deadline)`` pairs — every submit for this
    content, leader included.  The computation's result fans out to each
    waiter at publish time, where each is checked against its *own*
    deadline: a waiter whose deadline passed gets a ``DeadlineExceeded``
    brief even though the shared computation finished (and was cached).
    """

    __slots__ = ("request", "waiters")

    def __init__(self, request: _Request) -> None:
        self.request = request
        self.waiters: List[Tuple["Future[PartialBrief]", Optional[float]]] = []


class ConcurrentBriefingPipeline:
    """Thread-safe HTML → brief serving over a scheduler + worker pool.

    Drop-in for :meth:`BatchedBriefingPipeline.brief_many` semantics —
    results align with input order, faults degrade, nothing raises — but
    requests may be served by any of ``num_workers`` threads, coalesced into
    micro-batches by the scheduler, and deduplicated in flight: while one
    request for a page is being computed, further requests for the same
    content wait on the first one's future instead of re-running the model.

    Request lifecycle::

        submit(html) ──▶ brief cache? ──hit──▶ resolved future (copy)
                           │ miss
                           ▼
                        in-flight? ──yes──▶ waiter future (copy on publish)
                           │ no
                           ▼
                        expired? poison? ──yes──▶ degraded brief (typed)
                           │ no (leader)
                           ▼
                        scheduler.submit ──QueueFull──▶ degraded PartialBrief
                           │ admitted
                           ▼
                        worker micro-batch ─▶ brief_many ─▶ future resolved

    Fault tolerance on top of the original contracts:

    * ``deadline_ms`` per request (or ``default_deadline_ms``): expired
      requests are dropped in the queue, at worker dispatch and per pipeline
      stage, and resolve to typed ``DeadlineExceeded`` briefs — never hang.
    * the bounded queue is the one overload policy: a full queue rejects
      with ``QueueFull`` while cache hits and coalesced followers still flow;
    * a :class:`WorkerSupervisor` (``supervise=True``) resurrects dead or
      wedged workers, re-queues their held batches and quarantines poison
      content (whose hash is then shed at the front door).

    ``submit`` never blocks and the returned future always completes, so
    ``brief_many`` (submit all, then wait) cannot deadlock.  Use as a
    context manager, or call :meth:`shutdown` — close admission, drain the
    queue, join the workers; it returns (and records in ``stuck_workers``)
    the names of workers that failed to exit in time.
    """

    def __init__(
        self,
        model: JointWBModel,
        num_workers: int = 2,
        *,
        transport: str = "thread",
        beam_size: int = 4,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        stats: Optional[RuntimeStats] = None,
        observe: bool = False,
        clock: Optional[Callable[[], float]] = None,
        start: bool = True,
        default_deadline_ms: Optional[float] = None,
        supervise: bool = True,
        supervisor_poll_ms: float = 20.0,
        wedge_timeout_ms: Optional[float] = None,
        chaos=None,
        mp_context: Optional[str] = None,
    ) -> None:
        if transport not in ("thread", "process"):
            raise ValueError(f"transport must be 'thread' or 'process', got {transport!r}")
        self.transport = transport
        self.stats = stats if stats is not None else RuntimeStats()
        self._clock = clock if clock is not None else time.monotonic
        self.default_deadline_ms = default_deadline_ms
        self.brief_cache = BriefCache(FRONT_CACHE_SIZE)
        self.pool = WorkerPool(
            model,
            num_workers,
            transport=transport,
            beam_size=beam_size,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            front_cache=self.brief_cache,
            observe=observe,
            chaos=chaos,
            clock=clock,
            on_expired=self._on_queue_expired,
            mp_context=mp_context,
        )
        #: the one admission queue every worker drains.
        self.scheduler = self.pool.scheduler
        self.registry = MetricsRegistry() if observe else NOOP_REGISTRY
        # Frontend tracer: one detached "admission" span per submit, the root
        # of each request's trace.  Shared across submitting threads, so
        # open/finish happen under the pipeline lock.
        self.tracer = Tracer(id_prefix="f", clock=clock) if observe else NOOP_TRACER
        self.slo = SLOTracker(clock=clock) if observe else None
        self.journal = EventJournal() if observe else None
        self._request_counter = self.registry.counter(
            "serving_requests_total", help="front-door requests, by outcome"
        )
        self._queue_depth = self.registry.gauge(
            "serving_queue_depth", help="admission queue depth sampled at submit"
        )
        self._shed_counter = self.registry.counter(
            "serving_shed_total", help="requests shed at admission, by reason"
        )
        self.supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self.supervisor = WorkerSupervisor(
                self.pool,
                poll_interval=supervisor_poll_ms / 1000.0,
                wedge_timeout=None if wedge_timeout_ms is None else wedge_timeout_ms / 1000.0,
                on_quarantine=self._on_quarantine,
                registry=self.registry,
                clock=clock,
                journal=self.journal,
            )
        # One lock guards the in-flight map *and* the frontend counters —
        # submissions are cheap, so contention here is negligible next to a
        # model pass.
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._poison: Set[str] = set()
        #: thread names that failed to exit during the last shutdown().
        self.stuck_workers: List[str] = []
        if self.journal is not None:
            self.journal.record(
                "serving_started", transport=self.transport, workers=self.num_workers
            )
        if start:
            self.pool.start()
            if self.supervisor is not None:
                self.supervisor.start()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ConcurrentBriefingPipeline":
        self.pool.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    @property
    def num_workers(self) -> int:
        return self.pool.num_workers

    def shutdown(self, timeout: Optional[float] = None) -> List[str]:
        """Close admission, drain every queued request, join the workers.

        Admitted work is never dropped: workers keep pulling batches until
        the queue is empty, and only then observe the exit signal.  Requests
        submitted after shutdown are rejected as degraded briefs.  Returns
        the names of worker threads that failed to exit within ``timeout``
        (also kept in :attr:`stuck_workers`); their held requests are
        resolved degraded so no future is left hanging.
        """
        self.scheduler.close()
        stuck = self.pool.join(timeout=timeout)
        if self.supervisor is not None:
            self.supervisor.stop()
        # Conservation sweep: anything still queued (e.g. re-queued work
        # that no worker picked up before the deadline) resolves degraded.
        exc = Overloaded("pipeline shut down before the request was served", reason="shutdown")
        for request in self.scheduler.drain():
            _resolve(request.future, _empty_brief(exc))
        # A worker that never let go of its batch — stuck (alive past the
        # join deadline) or dead without supervision (e.g. a worker process
        # lost with ``supervise=False``) — still holds admitted futures;
        # resolve them too so every submitted future completes even on a
        # dirty shutdown.
        leftovers = {id(worker): worker for worker in self.pool.stuck_workers()}
        for worker in self.pool.workers:
            if worker.started and not worker.alive() and not worker.exited:
                leftovers.setdefault(id(worker), worker)
        for worker in leftovers.values():
            for request in list(worker.current_batch or []):
                _resolve(request.future, _empty_brief(exc))
        self.pool.reap()
        self.stuck_workers = stuck
        if self.journal is not None:
            self.journal.record("serving_shutdown", stuck_workers=len(stuck))
        return stuck

    # ------------------------------------------------------------------
    def _degraded(self, exc: BaseException) -> PartialBrief:
        return PartialBrief(
            topic=[],
            attributes=[],
            degradations=[Degradation("admission", "rejected", _reason(exc))],
        )

    def _on_quarantine(self, request: _Request) -> None:
        """Supervisor found poison: shed this content at the front door."""
        with self._lock:
            self._poison.add(content_hash(request.html))

    def _on_queue_expired(self, request: _Request) -> None:
        """Scheduler swept an expired request out of the admission queue."""
        if _resolve(request.future, _deadline_partial("in the admission queue")):
            with self._lock:
                self.stats.inc("deadline_expirations")

    def _publish(self, html: str, computation: "Future[PartialBrief]") -> None:
        """Computation finished: release the in-flight entry, feed waiters.

        Each waiter is checked against its *own* deadline: a follower whose
        budget ran out gets a ``DeadlineExceeded`` brief even though the
        shared computation finished (the result is still cached for future
        hits).  When the result itself is a deadline brief the per-waiter
        check is skipped — the expiration was already counted once.
        """
        with self._lock:
            flight = self._inflight.pop(html, None)
        if flight is None:
            return
        result = computation.result()
        result_is_deadline = any(d.stage == "deadline" for d in result.degradations)
        now = self._clock()
        expired_waiters = 0
        for future, waiter_deadline in flight.waiters:
            if (
                not result_is_deadline
                and waiter_deadline is not None
                and now >= waiter_deadline
            ):
                if _resolve(future, _deadline_partial("before publish")):
                    expired_waiters += 1
            else:
                _resolve(future, _copy_brief(result))
        if expired_waiters:
            with self._lock:
                self.stats.inc("deadline_expirations", expired_waiters)

    def _effective_deadline(self, deadline_ms: Optional[float]) -> Optional[float]:
        ms = deadline_ms if deadline_ms is not None else self.default_deadline_ms
        if ms is None:
            return None
        return self._clock() + ms / 1000.0

    @staticmethod
    def _slo_outcome(brief: PartialBrief) -> str:
        if not brief.degradations:
            return "ok"
        stage = brief.degradations[0].stage
        if stage == "deadline":
            return "expired"
        if stage == "admission":
            return "shed"
        return "error"

    def _record_slo(self, future: "Future[PartialBrief]", submitted: float) -> None:
        latency = self._clock() - submitted
        try:
            brief = future.result()
        except BaseException:  # futures here never raise; belt and braces
            self.slo.record("error", latency)
            return
        self.slo.record(self._slo_outcome(brief), latency)

    def submit(
        self,
        html: str,
        doc_id: str = "adhoc",
        *,
        deadline_ms: Optional[float] = None,
    ) -> "Future[PartialBrief]":
        """Admit one page; returns a future that always completes.

        Cache hits resolve immediately; duplicates of an in-flight page
        attach to the leader's computation (their deadline *extends* the
        shared request's effective deadline, so the computation only drops
        when every waiter has expired); a full (or shut down) queue resolves
        the future with a degraded ``admission → rejected`` brief, and
        quarantined content is shed with a typed ``Overloaded`` reason —
        never raising either way.  ``deadline_ms`` is relative to now
        (``None`` falls back to ``default_deadline_ms``; both ``None`` =
        unbounded).

        When observing, every submit opens a detached ``admission`` span
        (the root of the request's trace, ``trace_id`` = ``req-<span id>``)
        and the resolved future feeds the :class:`~repro.obs.SLOTracker`.
        """
        span = NOOP_SPAN
        if self.tracer.enabled:
            with self._lock:
                span = self.tracer.open("admission", doc_id=doc_id)
            span.trace_id = f"req-{span.span_id}"
        submitted = self._clock()
        try:
            future = self._submit(html, doc_id, deadline_ms, span)
        finally:
            if span is not NOOP_SPAN:
                with self._lock:
                    span.finish()
        if self.slo is not None:
            future.add_done_callback(
                lambda done, submitted=submitted: self._record_slo(done, submitted)
            )
        return future

    def _submit(
        self,
        html: str,
        doc_id: str,
        deadline_ms: Optional[float],
        span,
    ) -> "Future[PartialBrief]":
        """One admission decision, made in a single pass under the lock.

        In order: a front-cache hit, a follower joining the in-flight
        computation of the same content, a request dead on arrival, content
        quarantined as poison, else a new flight whose leader request goes to
        the queue.  The content hash and the deadline are computed before the
        lock is taken, and futures resolve after it is released.
        """
        future: "Future[PartialBrief]" = Future()
        cached = self.brief_cache.get(html)
        key = None if cached is not None else content_hash(html)
        deadline = self._effective_deadline(deadline_ms)
        request: Optional[_Request] = None
        with self._lock:
            flight = self._inflight.get(html)
            if cached is not None:
                outcome = "cache_hit"
                self.stats.inc("cache_hits")
            elif flight is not None:
                outcome = "coalesced"
                self.stats.inc("cache_hits")
                flight.waiters.append((future, deadline))
                flight.request.extend_deadline(deadline)
            elif deadline is not None and self._clock() >= deadline:
                outcome = "expired"
                self.stats.inc("deadline_expirations")
            elif key in self._poison:
                outcome = "shed"
                self.stats.inc("requests_shed")
            else:
                outcome = "admitted"
                request = _Request(doc_id, html, Future(), deadline=deadline, trace=span.context())
                flight = _Flight(request)
                flight.waiters.append((future, deadline))
                self._inflight[html] = flight
        if request is not None:
            request.future.add_done_callback(lambda done, html=html: self._publish(html, done))
            try:
                self.scheduler.submit(request)
            except QueueFull as exc:
                outcome = "rejected"
                with self._lock:
                    self.stats.inc("queue_rejections")
                # Resolving the computation fires _publish, which serves every
                # waiter that attached while we were trying to enqueue.
                request.future.set_result(self._degraded(exc))
            else:
                self._queue_depth.set(self.scheduler.depth)
        elif outcome == "cache_hit":
            future.set_result(_copy_brief(cached))
        elif outcome == "expired":
            future.set_result(_deadline_partial("on arrival"))
        elif outcome == "shed":
            self._shed_counter.inc(reason="poison")
            span.set_attribute("shed_reason", "poison")
            exc = Overloaded("content quarantined after repeated worker deaths", reason="poison")
            future.set_result(self._degraded(exc))
        self._request_counter.inc(outcome=outcome)
        span.set_attribute("outcome", outcome)
        return future

    # ------------------------------------------------------------------
    def brief_html(
        self,
        html: str,
        doc_id: str = "adhoc",
        *,
        deadline_ms: Optional[float] = None,
    ) -> PartialBrief:
        """Single-page convenience wrapper; blocks until the brief is ready."""
        return self.submit(html, doc_id=doc_id, deadline_ms=deadline_ms).result()

    def brief_many(
        self,
        pages: Iterable[Page],
        *,
        deadline_ms: Optional[float] = None,
    ) -> List[PartialBrief]:
        """Brief many pages concurrently; results align with input order.

        Submits everything up front (so the scheduler can micro-batch
        aggressively), then waits.  Never raises: parse faults, model
        faults, queue rejections, shed requests and expired deadlines all
        surface as degraded briefs.
        """
        futures: List["Future[PartialBrief]"] = []
        for position, page in enumerate(pages):
            if isinstance(page, str):
                doc_id, html = f"page-{position}", page
            else:
                doc_id, html = page
            futures.append(self.submit(html, doc_id=doc_id, deadline_ms=deadline_ms))
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def merged_stats(self) -> RuntimeStats:
        """Frontend + supervisor + every worker's counters, element-wise summed.

        On a fault-free stream ``cache_hits + cache_misses`` equals the
        number of requests served: the front door counts hits and coalesced
        followers, each leader's miss is counted by exactly one worker.
        """
        merged = self.stats.merge(self.pool.merged_stats())
        if self.supervisor is not None:
            merged = merged.merge(self.supervisor.stats)
        return merged

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Frontend registry merged with every worker's, order-independent.

        Worker series carry ``worker`` / ``transport`` / ``generation``
        labels (both transports); frontend series are label-free.  The SLO
        gauges are re-synced into the frontend registry on every read.
        """
        if self.slo is not None:
            self.slo.export_to(self.registry)
        return self.registry.snapshot().merge(self.pool.metrics_snapshot())

    def trace_spans(self) -> list:
        """Every finished span: frontend admission spans plus worker spans.

        All spans carry a ``worker`` attribute (``"frontend"`` for admission)
        and requests admitted while tracing share a ``trace_id`` across their
        admission → serve → brief_many decode subtree, whichever transport
        recorded the inner spans.
        """
        spans = []
        for span in self.tracer.spans:
            span.attributes.setdefault("worker", "frontend")
            span.attributes.setdefault("transport", self.transport)
            spans.append(span)
        spans.extend(self.pool.trace_spans())
        return spans

    def status(self) -> dict:
        """One JSON-safe frame for the live status view (``repro top``).

        Collects queue depth, per-worker liveness and throughput, merged
        request counters, the SLO snapshot and the journal tail; :func:`repro.obs.render_status` renders it.
        """
        now = self._clock()
        workers = []
        for worker in self.pool.workers:
            heartbeat_age = None
            if worker.heartbeat is not None:
                heartbeat_age = max(0.0, now - worker.heartbeat)
            workers.append(
                {
                    "index": worker.index,
                    "generation": worker.generation,
                    "alive": worker.alive(),
                    "heartbeat_age_s": heartbeat_age,
                    "batches": worker.stats.as_dict().get("batches_dispatched", 0),
                }
            )
        return {
            "transport": self.transport,
            "queue_depth": self.scheduler.depth,
            "in_flight": self.in_flight(),
            "requests": self.merged_stats().as_dict(),
            "workers": workers,
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "events": self.journal.tail(8) if self.journal is not None else [],
        }

    def in_flight(self) -> int:
        """Distinct page contents currently being computed (for tests)."""
        with self._lock:
            return len(self._inflight)
