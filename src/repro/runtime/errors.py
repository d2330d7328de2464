"""Structured error taxonomy for the briefing runtime.

Every failure mode on the serving path (crawl → parse → render → model) gets
a typed exception carrying machine-readable context instead of a bare
``ValueError``/``None``:

* :class:`FetchError` — the host could not serve the URL (the crawler records
  it in ``CrawlResult.failed_urls`` and moves on);
* :class:`ParseError` — the HTML could not be parsed into a DOM;
* :class:`RenderError` — the DOM rendered to no usable visible text (also a
  ``ValueError`` for backwards compatibility with the seed API);
* :class:`ModelError` — a model stage (topic / attributes / sections) failed;
* :class:`QueueFull` — the serving admission queue rejected a request
  (backpressure); transient by definition — the same request may be admitted
  a moment later once workers drain the queue;
* :class:`DeadlineExceeded` — a request's absolute deadline expired before a
  worker could finish it (in the admission queue, before the model call, or
  mid-pipeline); retrying with a fresh deadline may succeed;
* :class:`Overloaded` — the serving layer gave up on the request: its
  content was quarantined as poison, or the pipeline shut down before a
  worker could serve it; permanent, since resubmitting either meets the
  same answer;
* :class:`BriefingError` — the common base, so callers can catch the whole
  family with one clause.

The ``transient`` flag is the retry contract: transient errors are worth
retrying (the next attempt may succeed), permanent ones are not.  Each class
carries a ``stage`` name used by degradation records and stats counters.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "BriefingError",
    "FetchError",
    "ParseError",
    "RenderError",
    "ModelError",
    "QueueFull",
    "DeadlineExceeded",
    "Overloaded",
]


class BriefingError(Exception):
    """Base class for all briefing-runtime failures."""

    stage = "briefing"

    def __init__(self, message: str = "", *, url: Optional[str] = None, transient: bool = False):
        super().__init__(message)
        self.url = url
        self.transient = transient

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "transient" if self.transient else "permanent"
        where = f" url={self.url!r}" if self.url else ""
        return f"{type(self).__name__}({str(self)!r}, {kind}{where})"


class FetchError(BriefingError):
    """A host could not serve a URL; the crawler skips it and moves on."""

    stage = "fetch"


class ParseError(BriefingError):
    """HTML could not be parsed into a DOM."""

    stage = "parse"


class RenderError(BriefingError, ValueError):
    """A page rendered to no usable visible text.

    Inherits :class:`ValueError` so seed-era callers of
    ``document_from_raw_html`` that catch ``ValueError`` keep working.
    """

    stage = "render"


class ModelError(BriefingError):
    """A model inference stage (topic / attributes / sections) failed."""

    stage = "model"


class QueueFull(BriefingError):
    """The serving admission queue rejected a request (backpressure).

    Raised by :meth:`repro.core.serving.RequestScheduler.submit` when the
    bounded queue is at capacity or the scheduler has been closed.  Always
    transient: the same request may succeed once workers drain the backlog.
    """

    stage = "admission"

    def __init__(self, message: str = "", *, url: Optional[str] = None, transient: bool = True):
        super().__init__(message, url=url, transient=transient)


class DeadlineExceeded(BriefingError):
    """A request's absolute deadline expired before its brief was computed.

    Raised (or recorded as a degradation) wherever the serving layer drops
    expired work: the scheduler's pre-dispatch sweep, the worker's budget
    check before the model call, and the per-stage checks inside
    :meth:`~repro.core.batched.BatchedBriefingPipeline.brief_many`.  Always
    transient — the identical request with a fresh deadline may succeed.
    """

    stage = "deadline"

    def __init__(self, message: str = "", *, url: Optional[str] = None, transient: bool = True):
        super().__init__(message, url=url, transient=transient)


class Overloaded(BriefingError):
    """The serving layer gave up on this request without a model answer.

    Carried by the degraded brief the request resolves to.  ``reason`` says
    why: ``poison`` for content quarantined after repeatedly killing
    workers (shed at admission from then on), ``shutdown`` for work still
    held or queued when the pipeline shut down.  Permanent by default: the
    quarantine set never forgets a content hash and a shut-down pipeline
    admits nothing, so a retry meets the same answer.  A full admission
    queue is :class:`QueueFull` (transient), not this.
    """

    stage = "admission"

    def __init__(
        self,
        message: str = "",
        *,
        reason: str = "overloaded",
        url: Optional[str] = None,
        transient: bool = False,
    ):
        super().__init__(message, url=url, transient=transient)
        self.reason = reason
