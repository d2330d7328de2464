"""Batched serving: many HTML pages → briefs, with content-addressed caching.

:class:`BatchedBriefingPipeline` is the high-throughput sibling of
:class:`~repro.core.pipeline.BriefingPipeline`.  It fans a list of pages
through render → tokenize → one :meth:`~repro.models.joint_wb.JointWBModel.
predict_batch` pass → briefs, with two bounded LRU caches keyed on a hash of
the page content:

* a **brief cache** for finished, *complete* briefs (degraded briefs are
  never cached, so a page corrupted by a transient fault is re-briefed from
  scratch on the next request);
* a **render cache** for parsed :class:`~repro.data.corpus.Document` objects,
  so a page whose briefing degraded still skips the parse/render work when it
  comes back.

Both caches are collision-safe: an entry stores the content alongside the
value, and a lookup whose hash matches but whose content differs is a miss.
Serving workers (:mod:`repro.core.serving`) build theirs with
``brief_cache_size=0``: the front door's cache is the one brief cache in
serving, and each worker keeps its own render cache.
Brief-level hits and misses are threaded into the shared
:class:`~repro.runtime.stats.RuntimeStats` counters.

The pipeline briefs with a float32 copy of the model it is given
(:func:`~repro.core.transport.serving_copy`); the float64 model stays the
spec its briefs are checked against.

Like the sequential pipeline, :meth:`BatchedBriefingPipeline.brief_many`
never raises: unparseable pages yield empty degraded briefs, and a failure
inside the batched model falls back to the sequential per-document
degradation ladder for that batch.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..data.corpus import Document
from ..models.joint_wb import BriefPrediction, JointWBModel
from ..obs import NOOP_REGISTRY, NOOP_TRACER, MetricsSnapshot, snapshot_delta
from ..runtime.errors import BriefingError, DeadlineExceeded
from ..runtime.stats import RuntimeStats
from .briefing import Degradation, PartialBrief
from .pipeline import BriefingPipeline, _fit_encoder, _reason, document_from_raw_html
from .transport import serving_copy

__all__ = ["BriefCache", "BatchedBriefingPipeline", "content_hash"]

#: A page is raw HTML, or ``(doc_id, html)`` when the caller wants stable ids.
Page = Union[str, Tuple[str, str]]


def content_hash(content: str) -> str:
    """Default cache key: SHA-256 hex digest of the page content."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def _copy_brief(brief: PartialBrief) -> PartialBrief:
    """Defensive copy so callers can't mutate cached briefs (or vice versa)."""
    return PartialBrief(
        topic=list(brief.topic),
        attributes=list(brief.attributes),
        extra_levels={level: list(items) for level, items in brief.extra_levels.items()},
        informative_sentences=list(brief.informative_sentences),
        degradations=list(brief.degradations),
    )


class BriefCache:
    """Bounded LRU mapping page content to a value, keyed on a content hash.

    Entries store the original content next to the value; a lookup whose hash
    matches a stored entry but whose content differs counts as a miss, so a
    weak (or adversarial) ``hash_fn`` can cost performance but never serves
    the wrong page's value.  ``capacity=0`` disables the cache entirely.

    Every operation (including the hit/miss counters) runs under one
    per-instance lock, so a cache shared by concurrent serving workers stays
    consistent: the LRU ``move_to_end``/evict pair can otherwise race an
    eviction and raise ``KeyError``, and the ``+=`` counter updates silently
    lose increments.
    """

    def __init__(self, capacity: int, hash_fn: Optional[Callable[[str], Hashable]] = None) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hash_fn = hash_fn if hash_fn is not None else content_hash
        #: lookups served from the cache / lookups that fell through.
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[str, object]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, content: str) -> bool:
        key = self.hash_fn(content)
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[0] == content

    def keys(self) -> List[Hashable]:
        """Cache keys, least- to most-recently used (for tests/introspection)."""
        with self._lock:
            return list(self._entries)

    def get(self, content: str):
        """Value cached for ``content``, or ``None``; refreshes recency."""
        key = self.hash_fn(content)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != content:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, content: str, value) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        if self.capacity == 0:
            return
        key = self.hash_fn(content)
        with self._lock:
            self._entries[key] = (content, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


class BatchedBriefingPipeline:
    """Batched HTML → brief serving with LRU caching; never raises.

    Repeated content is served from the brief cache (or coalesced in flight
    when the same page appears twice in one call), and each batch runs the
    model once via :meth:`predict_batch` instead of once per document per
    task head.  ``model`` is cast once, at construction, to a float32 copy
    (:func:`~repro.core.transport.serving_copy`); discrete outputs match the
    float64 model's, and every activation is half the size.
    """

    def __init__(
        self,
        model: JointWBModel,
        beam_size: int = 4,
        stats: Optional[RuntimeStats] = None,
        batch_size: int = 8,
        brief_cache_size: int = 256,
        render_cache_size: int = 256,
        tracer=None,
        registry=None,
    ) -> None:
        model = serving_copy(model)
        self.model = model
        self.beam_size = beam_size
        self.batch_size = batch_size
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.registry = registry if registry is not None else NOOP_REGISTRY
        self._observing = bool(self.tracer.enabled or self.registry.enabled)
        self._shipped = MetricsSnapshot()
        self._stage_seconds = self.registry.histogram(
            "briefing_stage_seconds", help="wall time per briefing pipeline stage"
        )
        self._cache_counter = self.registry.counter(
            "serving_cache_requests_total", help="brief-cache lookups, by result"
        )
        self._batch_pages = self.registry.histogram(
            "serving_batch_pages",
            help="pages per brief_many call",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.brief_cache = BriefCache(brief_cache_size)
        self.render_cache = BriefCache(render_cache_size)
        self._fallback = BriefingPipeline(
            model,
            beam_size=beam_size,
            stats=self.stats,
            tracer=self.tracer,
            registry=self.registry,
        )

    def telemetry_delta(self):
        """``(metrics delta, finished spans)`` since the last call; ``None`` when blind.

        The unit a serving worker ships with each reply: the registry's
        increment (a mergeable :func:`~repro.obs.snapshot_delta`) and the
        spans the tracer finished, which it then forgets.
        """
        if not self._observing:
            return None
        current = self.registry.snapshot()
        delta = snapshot_delta(current, self._shipped)
        self._shipped = current
        spans = self.tracer.spans
        self.tracer.clear()
        return delta, spans

    # ------------------------------------------------------------------
    def _empty_brief(self, stage: str, exc: BaseException) -> PartialBrief:
        self.stats.inc("degradations")
        self._fallback._degradation_counter.inc(stage=stage, fallback="empty_brief")
        self.tracer.event("degradation", stage=stage, fallback="empty_brief", reason=_reason(exc))
        return PartialBrief(
            topic=[],
            attributes=[],
            degradations=[Degradation(stage, "empty_brief", _reason(exc))],
        )

    def _deadline_brief(self, stage: str) -> PartialBrief:
        """Typed ``DeadlineExceeded`` degradation for a request whose budget ran out."""
        self.stats.inc("deadline_expirations")
        exc = DeadlineExceeded(f"deadline expired before {stage}")
        self.tracer.event("degradation", stage="deadline", fallback="expired", reason=_reason(exc))
        return PartialBrief(
            topic=[],
            attributes=[],
            degradations=[Degradation("deadline", "expired", _reason(exc))],
        )

    @staticmethod
    def _brief_from_prediction(prediction: BriefPrediction) -> PartialBrief:
        informative = [int(i) for i in np.nonzero(prediction.sections)[0]]
        return PartialBrief(
            topic=list(prediction.topic),
            attributes=list(prediction.attributes),
            informative_sentences=informative,
            degradations=[],
        )

    def _predict_briefs(self, documents: List[Document]) -> List[PartialBrief]:
        """Batched prediction; falls back to the sequential ladder on failure."""
        start = time.perf_counter() if self._observing else 0.0
        with self.tracer.span(
            "predict_batch",
            documents=len(documents),
            bucket_lengths=sorted({d.num_tokens for d in documents}) if self._observing else [],
        ) as span:
            try:
                predictions = self.model.predict_batch(
                    documents, beam_size=self.beam_size, batch_size=self.batch_size
                )
            except Exception as exc:
                # The batched path raises as a unit; re-run the batch through the
                # per-document degradation ladder so brief_many never raises and
                # partial results survive (matching BriefingPipeline semantics).
                self.stats.inc("model_failures")
                span.record_error(exc)
                span.add_event("sequential_fallback", documents=len(documents))
                return [self._fallback.brief_document(document) for document in documents]
            finally:
                if self._observing:
                    self._stage_seconds.observe(time.perf_counter() - start, stage="predict_batch")
        return [self._brief_from_prediction(prediction) for prediction in predictions]

    # ------------------------------------------------------------------
    def brief_html(self, html: str, doc_id: str = "adhoc") -> PartialBrief:
        """Single-page convenience wrapper over :meth:`brief_many`."""
        return self.brief_many([(doc_id, html)])[0]

    def brief_many(
        self,
        pages: Iterable[Page],
        *,
        deadlines: Optional[List[Optional[float]]] = None,
        clock: Optional[Callable[[], float]] = None,
        trace_contexts: Optional[List[Optional["object"]]] = None,
    ) -> List[PartialBrief]:
        """Brief many pages; results align with the input order.

        Cache lookups and in-flight coalescing of duplicate content both
        count as ``cache_hits``; first sightings count as ``cache_misses``.
        Only complete briefs are cached, so degraded pages (corrupt HTML,
        model faults) are re-briefed in full on their next request.

        ``deadlines`` (aligned with ``pages``) carries each request's
        absolute deadline on ``clock`` (default ``time.monotonic``); the
        remaining budget is re-checked *per pipeline stage* — before a page
        is parsed/rendered, and again just before the batched model call —
        so a request whose deadline expires mid-pipeline degrades to a typed
        ``deadline → expired`` brief instead of burning model time on an
        answer nobody is waiting for.  Cache hits are served regardless
        (they are effectively free).

        ``trace_contexts`` (aligned with ``pages``) carries each request's
        :class:`~repro.obs.TraceContext`.  The batch's ``brief_many`` span is
        parented under the first traced request (the batch leader), so the
        shared decode subtree joins that request's trace — the per-request
        view is the worker's ``serve`` span.
        """
        page_list: List[Tuple[str, str]] = []
        for position, page in enumerate(pages):
            if isinstance(page, str):
                page_list.append((f"page-{position}", page))
            else:
                doc_id, html = page
                page_list.append((doc_id, html))
        if deadlines is None:
            deadline_list: List[Optional[float]] = [None] * len(page_list)
        else:
            deadline_list = list(deadlines)
            if len(deadline_list) != len(page_list):
                raise ValueError(
                    f"deadlines length {len(deadline_list)} != pages length {len(page_list)}"
                )
        read_clock = clock if clock is not None else time.monotonic
        any_deadline = any(deadline is not None for deadline in deadline_list)

        def expired(index: int, now: Optional[float] = None) -> bool:
            deadline = deadline_list[index]
            if deadline is None:
                return False
            return (read_clock() if now is None else now) >= deadline

        leader_context = None
        if trace_contexts is not None and self.tracer.enabled:
            leader_context = next(
                (context for context in trace_contexts if context is not None), None
            )
        if leader_context is not None:
            batch_cm = self.tracer.child_span(
                leader_context, "brief_many", pages=len(page_list)
            )
        else:
            batch_cm = self.tracer.span("brief_many", pages=len(page_list))
        with batch_cm as batch_span:
            hits_before, misses_before = self.stats.cache_hits, self.stats.cache_misses
            briefs: List[Optional[PartialBrief]] = [None] * len(page_list)
            # In-flight work, keyed by page content: one model pass per unique page.
            pending: "Dict[str, Tuple[Document, List[int]]]" = {}
            for index, (doc_id, html) in enumerate(page_list):
                if html in pending:
                    self.stats.inc("cache_hits")
                    self._cache_counter.inc(result="coalesced")
                    pending[html][1].append(index)
                    continue
                cached = self.brief_cache.get(html)
                if cached is not None:
                    self.stats.inc("cache_hits")
                    self._cache_counter.inc(result="hit")
                    briefs[index] = _copy_brief(cached)
                    continue
                if expired(index):
                    briefs[index] = self._deadline_brief("render")
                    continue
                self.stats.inc("cache_misses")
                self._cache_counter.inc(result="miss")
                document = self.render_cache.get(html)
                if document is None:
                    try:
                        document = _fit_encoder(
                            document_from_raw_html(
                                html, doc_id=doc_id, tracer=self.tracer, registry=self.registry
                            ),
                            self.model,
                        )
                    except BriefingError as exc:
                        briefs[index] = self._empty_brief(exc.stage, exc)
                        continue
                    except Exception as exc:  # substrate bug — degrade, keep serving
                        briefs[index] = self._empty_brief("parse", exc)
                        continue
                    self.render_cache.put(html, document)
                pending[html] = (document, [index])

            if pending and any_deadline:
                # Budget re-check at the model-stage boundary: indices whose
                # deadline lapsed during render drop out; a unique page only
                # skips the model when *every* request for it has expired.
                now = read_clock()
                for content in list(pending):
                    document, indices = pending[content]
                    live = [i for i in indices if not expired(i, now)]
                    for index in indices:
                        if index not in live:
                            briefs[index] = self._deadline_brief("predict_batch")
                    if live:
                        pending[content] = (document, live)
                    else:
                        del pending[content]

            if pending:
                contents = list(pending)
                computed = self._predict_briefs([pending[content][0] for content in contents])
                for content, brief in zip(contents, computed):
                    if brief.complete:
                        self.brief_cache.put(content, _copy_brief(brief))
                    for index in pending[content][1]:
                        briefs[index] = _copy_brief(brief)
            if self._observing:
                self._batch_pages.observe(len(page_list))
                batch_span.set_attribute("unique_documents", len(pending))
                batch_span.set_attribute("cache_hits", self.stats.cache_hits - hits_before)
                batch_span.set_attribute("cache_misses", self.stats.cache_misses - misses_before)
        return briefs
