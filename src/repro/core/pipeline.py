"""End-to-end webpage briefing: HTML in, :class:`PartialBrief` out.

:class:`BriefingPipeline` glues the substrate together the way a deployed WB
system would (the paper's motivating browser use case): parse + render the
HTML (Selenium substitute), tokenize, run the trained Joint-WB model, return
the hierarchical brief.

The pipeline is the last line of the fault-tolerant runtime: whatever a model
stage or the HTML substrate throws, ``brief_html`` / ``brief_document`` never
raise.  They walk a graceful-degradation ladder instead and return a
:class:`~repro.core.briefing.PartialBrief` whose ``degradations`` list names
every fallback taken:

* unparseable / empty-rendering HTML → empty brief with the reason;
* topic generation fails → the highest-scoring extracted attribute stands in
  as the topic;
* attribute extraction fails → empty attribute list;
* section classification fails → every sentence treated as informative.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from ..data.corpus import Document
from ..data.preprocessing import word_tokenize
from ..html.parser import HtmlParseError, parse_html
from ..html.render import render_page
from ..models.encoders import BertSumEncoder, truncate_document
from ..models.joint_wb import JointWBModel
from ..obs import NOOP_REGISTRY, NOOP_TRACER
from ..runtime.errors import BriefingError, ParseError, RenderError
from ..runtime.stats import RuntimeStats
from .briefing import Degradation, PartialBrief

__all__ = ["BriefingPipeline", "document_from_raw_html"]


def document_from_raw_html(
    html: str, doc_id: str = "adhoc", tracer=NOOP_TRACER, registry=NOOP_REGISTRY
) -> Document:
    """Build an *unlabelled* document from arbitrary HTML.

    Unlike the corpus builder this assumes no supervision markers: every
    rendered line becomes a sentence, labels are placeholders.  Used at
    inference time on pages outside the corpus.  Pass a
    :class:`~repro.obs.Tracer` / :class:`~repro.obs.MetricsRegistry` to wrap
    the parse and render stages in spans and ``briefing_stage_seconds``
    timings.

    Raises :class:`~repro.runtime.errors.ParseError` on unparseable input and
    :class:`~repro.runtime.errors.RenderError` (a ``ValueError`` subclass)
    when the page renders to no visible text.
    """
    observing = bool(tracer.enabled or registry.enabled)
    stage_seconds = registry.histogram(
        "briefing_stage_seconds", help="wall time per briefing pipeline stage"
    )
    start = time.perf_counter() if observing else 0.0
    with tracer.span("parse", doc_id=doc_id):
        try:
            root = parse_html(html)
        except HtmlParseError as exc:
            raise ParseError(str(exc), url=doc_id) from exc
        finally:
            if observing:
                stage_seconds.observe(time.perf_counter() - start, stage="parse")
    start = time.perf_counter() if observing else 0.0
    with tracer.span("render", doc_id=doc_id):
        try:
            rendered = render_page(root)
            sentences: List[List[str]] = []
            for line in rendered.lines:
                tokens = word_tokenize(line)
                if tokens:
                    sentences.append(tokens)
            if not sentences:
                raise RenderError("page rendered to no visible text", url=doc_id)
        finally:
            if observing:
                stage_seconds.observe(time.perf_counter() - start, stage="render")
    return Document(
        doc_id=doc_id,
        url="",
        source="adhoc",
        topic_id=-1,
        family="unknown",
        website="unknown",
        topic_tokens=(),
        sentences=sentences,
        section_labels=[0] * len(sentences),
    )


def _fit_encoder(document: Document, model) -> Document:
    """Clip ``document`` to the whole sentences ``model``'s encoder can take.

    A stream longer than the encoder's ``max_len`` (word tokens, plus one
    [CLS] per sentence for a BERTSUM encoder) would fail every head.  The
    experiments clip with :func:`~repro.models.truncate_document`; serving
    clips by the same rule instead of degrading the page.
    """
    encoder = getattr(model, "encoder", None)
    bert = getattr(encoder, "bert", None)
    if bert is None:
        return document
    overhead = 1 if isinstance(encoder, BertSumEncoder) else 0
    return truncate_document(document, bert.max_len, sentence_overhead=overhead)


def _reason(exc: BaseException) -> str:
    text = str(exc)
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


class BriefingPipeline:
    """HTML → hierarchical brief, powered by a trained joint model.

    Pass a shared :class:`~repro.runtime.stats.RuntimeStats` to fold the
    pipeline's degradation counters into the rest of the serving runtime, and
    a :class:`~repro.obs.Tracer` / :class:`~repro.obs.MetricsRegistry` to get
    per-stage spans, ``briefing_stage_seconds`` timings and a labelled
    ``briefing_degradations_total`` counter.  Both default to the shared
    no-op singletons, so the un-observed hot path is unchanged.
    """

    def __init__(
        self,
        model: JointWBModel,
        beam_size: int = 4,
        stats: Optional[RuntimeStats] = None,
        tracer=None,
        registry=None,
    ) -> None:
        self.model = model
        self.beam_size = beam_size
        self.stats = stats if stats is not None else RuntimeStats()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.registry = registry if registry is not None else NOOP_REGISTRY
        self._observing = bool(self.tracer.enabled or self.registry.enabled)
        self._stage_seconds = self.registry.histogram(
            "briefing_stage_seconds", help="wall time per briefing pipeline stage"
        )
        self._degradation_counter = self.registry.counter(
            "briefing_degradations_total",
            help="degradation-ladder fallbacks taken, by stage and fallback",
        )

    # ------------------------------------------------------------------
    @contextmanager
    def _stage(self, name: str, **attributes):
        """Span + ``briefing_stage_seconds`` timing around one stage."""
        if not self._observing:
            yield None
            return
        start = time.perf_counter()
        with self.tracer.span(name, **attributes) as span:
            try:
                yield span
            finally:
                self._stage_seconds.observe(time.perf_counter() - start, stage=name)

    def _record(
        self,
        degradations: List[Degradation],
        step: Degradation,
        span=None,
    ) -> None:
        """Count one ladder rung: stats + labelled counter + warning event.

        Degraded briefs stay countable (the never-raises contract holds) —
        the swallowed exception surfaces as an ``error`` span status and a
        ``degradation`` event instead of disappearing.
        """
        degradations.append(step)
        self.stats.inc("degradations")
        self._degradation_counter.inc(stage=step.stage, fallback=step.fallback)
        if span is not None:
            span.record_error(step.reason or step.fallback)
            span.add_event(
                "degradation",
                stage=step.stage,
                fallback=step.fallback,
                reason=step.reason,
            )

    def _predict_attributes(self, document: Document):
        """Attributes plus (when the model exposes them) confidence scores."""
        scored_fn = getattr(self.model, "predict_attributes_scored", None)
        if scored_fn is not None:
            try:
                scored = scored_fn(document)
            except AttributeError:
                scored = None  # wrapper advertises the method, model lacks it
            else:
                return [attr for attr, _ in scored], scored
        return self.model.predict_attributes(document), None

    def brief_document(self, document: Document) -> PartialBrief:
        """Brief a corpus document; degrade instead of raising."""
        degradations: List[Degradation] = []

        attributes: List[str] = []
        scored = None
        with self._stage("attributes", doc_id=document.doc_id) as span:
            try:
                attributes, scored = self._predict_attributes(document)
            except Exception as exc:
                self.stats.inc("model_failures")
                self._record(
                    degradations,
                    Degradation("attributes", "empty_attributes", _reason(exc)),
                    span=span,
                )

        with self._stage("sections", doc_id=document.doc_id) as span:
            try:
                sections = self.model.predict_sections(document)
                informative = [int(i) for i in np.nonzero(sections)[0]]
            except Exception as exc:
                self.stats.inc("model_failures")
                informative = list(range(document.num_sentences))
                self._record(
                    degradations,
                    Degradation("sections", "all_sentences", _reason(exc)),
                    span=span,
                )

        topic: List[str] = []
        with self._stage("topic", doc_id=document.doc_id) as span:
            try:
                topic = self.model.predict_topic(document, beam_size=self.beam_size)
            except Exception as exc:
                self.stats.inc("model_failures")
                if attributes:
                    # Highest-scoring extracted attribute stands in as the topic.
                    if scored:
                        best = max(scored, key=lambda pair: pair[1])[0]
                    else:
                        best = attributes[0]
                    topic = best.split()
                    self._record(
                        degradations,
                        Degradation("topic", "topic_from_attribute", _reason(exc)),
                        span=span,
                    )
                else:
                    self._record(
                        degradations,
                        Degradation("topic", "empty_topic", _reason(exc)),
                        span=span,
                    )

        return PartialBrief(
            topic=topic,
            attributes=attributes,
            informative_sentences=informative,
            degradations=degradations,
        )

    def brief_html(self, html: str, doc_id: str = "adhoc") -> PartialBrief:
        """Brief raw HTML (parse → render → tokenize → model); never raises.

        Garbled, truncated or empty HTML yields an empty
        :class:`PartialBrief` whose ``degradations`` carry the reason.
        """
        with self.tracer.span("brief", doc_id=doc_id):
            with self._stage("prepare", doc_id=doc_id) as span:
                try:
                    document = _fit_encoder(
                        document_from_raw_html(
                            html, doc_id=doc_id, tracer=self.tracer, registry=self.registry
                        ),
                        self.model,
                    )
                except BriefingError as exc:
                    degradations: List[Degradation] = []
                    self._record(
                        degradations,
                        Degradation(exc.stage, "empty_brief", _reason(exc)),
                        span=span,
                    )
                    return PartialBrief(topic=[], attributes=[], degradations=degradations)
                except Exception as exc:  # substrate bug — still degrade, keep serving
                    degradations = []
                    self._record(
                        degradations,
                        Degradation("parse", "empty_brief", _reason(exc)),
                        span=span,
                    )
                    return PartialBrief(topic=[], attributes=[], degradations=degradations)
            return self.brief_document(document)
