"""Synthetic website & corpus construction — the dataset substitute.

The paper's dataset (§IV-A1) cannot be re-scraped offline: 620K pages from
305 Jasmine-Directory websites (153 topics × 2 websites) plus 30K pages from
7 SWDE-listed websites.  This module reproduces the construction *process* at
configurable scale:

1. for each topic, synthesise websites (template style + boilerplate) that
   serve index pages, media pages and content-rich pages;
2. run the :class:`~repro.html.crawler.StructureDrivenCrawler` against each
   website exactly as the paper runs the structure-driven crawler of [24];
3. render each harvested page (:func:`repro.html.render.render_page` — the
   Selenium substitute) and recover supervision from the in-HTML markers;
4. assemble a :class:`~repro.data.corpus.Corpus` with the same *shape* as the
   paper's data: topic-labelled pages, four key attributes per page,
   ~3-token topic phrases, informative/boilerplate sections.

Everything is driven by one seeded ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..html.crawler import StructureDrivenCrawler
from ..html.render import RenderedPage, render_page
from .corpus import AttributeSpan, Corpus, Document
from .preprocessing import word_tokenize
from .taxonomy import Topic, build_taxonomy
from .templates import (
    WebsiteStyle,
    content_page_html,
    index_page_html,
    make_style,
    media_page_html,
    sample_page_values,
)

__all__ = [
    "SyntheticWebsite",
    "synthesize_serving_corpus",
    "DatasetConfig",
    "document_from_rendered",
    "document_from_html",
    "build_corpus",
    "build_jasmine_corpus",
    "build_swde_corpus",
]


class SyntheticWebsite:
    """A deterministic website serving index, media and content pages.

    Implements the :class:`~repro.html.crawler.WebsiteHost` protocol.
    """

    def __init__(
        self,
        name: str,
        topic: Topic,
        num_pages: int,
        rng: np.random.Generator,
        noise_sentences: int = 2,
        num_media_pages: int = 2,
    ) -> None:
        self.name = name
        self.topic = topic
        self.style: WebsiteStyle = make_style(rng)
        self._pages: Dict[str, str] = {}
        base = f"https://{name}"
        content_urls = [f"{base}/page-{i}.html" for i in range(num_pages)]
        media_urls = [f"{base}/clip-{i}.html" for i in range(num_media_pages)]
        self._root = f"{base}/"
        self._pages[self._root] = index_page_html(self.style, content_urls + media_urls)
        for index, url in enumerate(content_urls):
            values = sample_page_values(topic, rng)
            self._pages[url] = content_page_html(
                topic, values, self.style, rng, page_index=index, noise_sentences=noise_sentences
            )
        for index, url in enumerate(media_urls):
            self._pages[url] = media_page_html(self.style, f"clip-{index}")

    @property
    def root_url(self) -> str:
        return self._root

    def fetch(self, url: str) -> Optional[str]:
        return self._pages.get(url)

    @property
    def urls(self) -> List[str]:
        return sorted(self._pages)


def synthesize_serving_corpus(
    num_pages: int,
    seed: int = 7,
    duplicate_fraction: float = 0.25,
) -> List[Tuple[str, str]]:
    """``(doc_id, html)`` pages from synthetic websites, with repeats.

    Roughly ``duplicate_fraction`` of the stream re-serves earlier content
    under a fresh ``doc_id`` (same bytes, new request) to exercise the
    serving cache; the rest are unique pages drawn from as many synthetic
    websites as needed.
    """
    if num_pages <= 0:
        raise ValueError(f"num_pages must be positive, got {num_pages}")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError(f"duplicate_fraction must be in [0, 1), got {duplicate_fraction}")
    rng = np.random.default_rng(seed)
    topics = build_taxonomy()
    num_unique = max(1, num_pages - int(round(num_pages * duplicate_fraction)))

    unique: List[str] = []
    site_index = 0
    while len(unique) < num_unique:
        topic = topics[site_index % len(topics)]
        website = SyntheticWebsite(
            f"bench-{site_index}.example", topic, num_pages=4, rng=rng
        )
        for url in website.urls:
            html = website.fetch(url)
            if html:
                unique.append(html)
            if len(unique) == num_unique:
                break
        site_index += 1

    stream = list(unique)
    while len(stream) < num_pages:
        stream.append(unique[int(rng.integers(len(unique)))])
    rng.shuffle(stream)
    return [(f"page-{position:04d}", html) for position, html in enumerate(stream)]


def document_from_rendered(
    rendered: RenderedPage,
    doc_id: str,
    url: str,
    source: str,
    topic_id: int,
    family: str,
    website: str,
    topic_tokens: Sequence[str],
) -> Document:
    """Recover a supervised :class:`Document` from a rendered page.

    Sentences are the rendered lines; a sentence is informative when any of
    its segments descends from a ``wb-informative`` element; attribute spans
    are the token ranges contributed by ``wb-attr`` segments.
    """
    sentences: List[List[str]] = []
    section_labels: List[int] = []
    attributes: List[AttributeSpan] = []

    for line_segments in rendered.segments_by_line():
        tokens: List[str] = []
        informative = 0
        sentence_index = len(sentences)
        for segment in line_segments:
            segment_tokens = word_tokenize(segment.text)
            if not segment_tokens:
                continue
            if "wb-informative" in segment.marker_classes:
                informative = 1
            if "wb-attr" in segment.marker_classes:
                attr_type = segment.element.get("data-attr-type", "unknown")
                attributes.append(
                    AttributeSpan(
                        sentence_index=sentence_index,
                        start=len(tokens),
                        end=len(tokens) + len(segment_tokens),
                        attribute_type=attr_type,
                    )
                )
            tokens.extend(segment_tokens)
        if tokens:
            sentences.append(tokens)
            section_labels.append(informative)

    return Document(
        doc_id=doc_id,
        url=url,
        source=source,
        topic_id=topic_id,
        family=family,
        website=website,
        topic_tokens=tuple(topic_tokens),
        sentences=sentences,
        section_labels=section_labels,
        attributes=attributes,
    )


def document_from_html(html: str, doc_id: str, url: str, source: str, topic: Topic, website: str) -> Document:
    """Parse + render an HTML page and recover its supervised document."""
    rendered = render_page(html)
    topic_tokens = [t for token in topic.phrase for t in word_tokenize(token)]
    return document_from_rendered(
        rendered,
        doc_id=doc_id,
        url=url,
        source=source,
        topic_id=topic.topic_id,
        family=topic.family,
        website=website,
        topic_tokens=topic_tokens,
    )


@dataclass
class DatasetConfig:
    """Scale knobs for corpus construction.

    The paper-scale values are in comments; defaults are laptop scale.
    """

    num_topics: int = 12          # paper: 153 (jasmine) + 7 (swde)
    sites_per_topic: int = 2      # paper: 2
    pages_per_site: int = 8       # paper: 1500-2200
    noise_sentences: int = 2
    seed: int = 7
    source: str = "jasmine"
    #: Offset into the taxonomy so jasmine/swde corpora use disjoint topics.
    topic_offset: int = 0
    #: Explicit taxonomy topic ids; overrides offset/num_topics when set.
    topic_ids: Optional[Tuple[int, ...]] = None


def build_corpus(config: DatasetConfig) -> Corpus:
    """Synthesise websites, crawl them and assemble the corpus."""
    taxonomy = build_taxonomy()
    if config.topic_ids is not None:
        bad = [t for t in config.topic_ids if not 0 <= t < len(taxonomy)]
        if bad:
            raise ValueError(f"topic ids {bad} out of taxonomy range [0, {len(taxonomy)})")
        topics = [taxonomy[t] for t in config.topic_ids]
    else:
        end = config.topic_offset + config.num_topics
        if end > len(taxonomy):
            raise ValueError(
                f"requested topics [{config.topic_offset}, {end}) but taxonomy has {len(taxonomy)}"
            )
        topics = taxonomy[config.topic_offset : end]
    rng = np.random.default_rng(config.seed)
    crawler = StructureDrivenCrawler(max_pages=config.pages_per_site + 4)
    documents: List[Document] = []
    topic_phrases: Dict[int, Tuple[str, ...]] = {}

    for topic in topics:
        topic_phrases[topic.topic_id] = tuple(
            t for token in topic.phrase for t in word_tokenize(token)
        )
        for site_index in range(config.sites_per_topic):
            site_name = f"{topic.family}-{topic.category}-{site_index}.example"
            website = SyntheticWebsite(
                name=site_name,
                topic=topic,
                num_pages=config.pages_per_site,
                rng=rng,
                noise_sentences=config.noise_sentences,
            )
            result = crawler.crawl(website)
            for page in result.pages:
                doc_id = f"{config.source}:{site_name}:{page.url.rsplit('/', 1)[-1]}"
                documents.append(
                    document_from_html(
                        page.html,
                        doc_id=doc_id,
                        url=page.url,
                        source=config.source,
                        topic=topic,
                        website=site_name,
                    )
                )
    return Corpus(documents, topic_phrases)


def build_jasmine_corpus(
    num_topics: int = 12, pages_per_site: int = 8, seed: int = 7
) -> Corpus:
    """The D_jasmine analogue (topic-directory websites)."""
    return build_corpus(
        DatasetConfig(
            num_topics=num_topics,
            pages_per_site=pages_per_site,
            seed=seed,
            source="jasmine",
            topic_offset=0,
        )
    )


def build_swde_corpus(
    num_topics: int = 7, pages_per_site: int = 8, seed: int = 11
) -> Corpus:
    """The D_swde analogue: 7 websites / 7 topics with labelled attributes."""
    return build_corpus(
        DatasetConfig(
            num_topics=num_topics,
            sites_per_topic=1,
            pages_per_site=pages_per_site,
            seed=seed,
            source="swde",
            topic_offset=120,  # disjoint from the default jasmine range
        )
    )
