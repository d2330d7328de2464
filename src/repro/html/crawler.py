"""Structure-driven crawler over (synthetic) websites.

The paper downloads 1,500–2,000 *content-rich* pages per website with the
structure-driven crawler of [24], excluding index and multimedia pages.  This
module reproduces that behaviour against any object implementing the
:class:`WebsiteHost` protocol (our synthetic websites implement it):

* breadth-first link expansion from the site root;
* pages are bucketed by a *structure signature* (the multiset of tag paths in
  the DOM), the crawler's proxy for "pages generated from the same template";
* index pages (many links, little text) and multimedia pages are skipped;
* the dominant content-rich template cluster is harvested up to ``max_pages``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple
from urllib.parse import urljoin, urlsplit, urlunsplit

from ..runtime.errors import FetchError
from .dom import ElementNode
from .parser import HtmlParseError, parse_html
from .render import render_visible_text

__all__ = [
    "WebsiteHost",
    "CrawledPage",
    "CrawlResult",
    "StructureDrivenCrawler",
    "structure_signature",
    "normalize_url",
]

_MEDIA_EXTENSIONS = (".jpg", ".jpeg", ".png", ".gif", ".mp3", ".mp4", ".avi", ".webm", ".svg", ".pdf")


class WebsiteHost(Protocol):
    """Anything that can serve HTML by URL (synthetic site or fixture)."""

    def fetch(self, url: str) -> Optional[str]:
        """Return HTML for ``url`` or ``None`` for a 404."""
        ...

    @property
    def root_url(self) -> str:
        ...


@dataclass
class CrawledPage:
    """A downloaded page with its parsed artefacts."""

    url: str
    html: str
    signature: Tuple[Tuple[str, int], ...]
    visible_text: str


@dataclass
class CrawlResult:
    """Outcome of a crawl: harvested content pages plus bookkeeping."""

    pages: List[CrawledPage]
    visited: int
    skipped_index: int
    skipped_media: int
    clusters: Dict[Tuple[Tuple[str, int], ...], int] = field(default_factory=dict)
    #: URLs whose fetch raised ``FetchError`` or whose HTML failed to parse.
    failed_urls: List[str] = field(default_factory=list)


def structure_signature(root: ElementNode, depth: int = 3) -> Tuple[Tuple[str, int], ...]:
    """Multiset of tag paths down to ``depth`` — the page's template fingerprint.

    Pages produced by the same server-side template share this signature even
    when their text differs, which is exactly the invariant the
    structure-driven crawler exploits.
    """
    counter: Counter = Counter()

    def walk(element: ElementNode, path: Tuple[str, ...]) -> None:
        new_path = path + (element.tag,)
        if len(new_path) <= depth:
            counter[("/".join(new_path))] += 1
            for child in element.children:
                if isinstance(child, ElementNode):
                    walk(child, new_path)

    walk(root, ())
    return tuple(sorted(counter.items()))


def normalize_url(url: str) -> str:
    """Canonical form for dedup: drop query string and fragment."""
    parts = urlsplit(url)
    return urlunsplit((parts.scheme, parts.netloc, parts.path, "", ""))


def _extract_links(root: ElementNode, page_url: str) -> List[str]:
    """Outgoing links, resolved against the *current page's* URL.

    Relative hrefs follow standard ``urljoin`` semantics (``sub/item.html`` on
    ``https://s/a/b.html`` → ``https://s/a/sub/item.html``); query strings and
    fragments are stripped so the same page is never queued twice.
    """
    links: List[str] = []
    seen: Set[str] = set()
    for anchor in root.find_all("a"):
        href = anchor.get("href")
        if not href or href.startswith("#") or href.startswith("javascript:"):
            continue
        resolved = normalize_url(urljoin(page_url, href))
        if resolved not in seen:
            seen.add(resolved)
            links.append(resolved)
    return links


class StructureDrivenCrawler:
    """Crawl a website and harvest its content-rich template cluster."""

    def __init__(
        self,
        max_pages: int = 2000,
        max_visits: int = 5000,
        min_text_length: int = 80,
        index_link_ratio: float = 0.5,
    ) -> None:
        self.max_pages = max_pages
        self.max_visits = max_visits
        self.min_text_length = min_text_length
        self.index_link_ratio = index_link_ratio

    # ------------------------------------------------------------------
    def _classify(self, url: str, root: ElementNode, text: str) -> str:
        """Classify a page as ``content`` / ``index`` / ``media``."""
        if url.lower().endswith(_MEDIA_EXTENSIONS):
            return "media"
        media_tags = len(root.find_all("video")) + len(root.find_all("audio"))
        if media_tags > 0:
            return "media"
        links = root.find_all("a")
        words = max(1, len(text.split()))
        if len(text) < self.min_text_length or (links and len(links) / words > self.index_link_ratio):
            return "index"
        return "content"

    def crawl(self, host: WebsiteHost) -> CrawlResult:
        """Breadth-first crawl from the host root; return content pages.

        The crawler never raises on a failing URL: a ``FetchError`` from the
        host, or HTML that fails to parse, is recorded in
        ``CrawlResult.failed_urls`` and the crawl moves on.
        """
        queue = deque([host.root_url])
        seen: Set[str] = {host.root_url}
        pages: List[CrawledPage] = []
        failed: List[str] = []
        visited = skipped_index = skipped_media = 0
        clusters: Counter = Counter()

        while queue and visited < self.max_visits and len(pages) < self.max_pages:
            url = queue.popleft()
            # Media URLs are recognisable from the extension alone — skip
            # them before spending a fetch on bytes we would discard anyway.
            if url.lower().endswith(_MEDIA_EXTENSIONS):
                skipped_media += 1
                continue
            try:
                html = host.fetch(url)
            except FetchError:
                failed.append(url)
                continue
            if html is None:
                continue
            visited += 1
            try:
                root = parse_html(html)
            except HtmlParseError:
                failed.append(url)
                continue
            text = render_visible_text(root)
            for link in _extract_links(root, url):
                if link not in seen:
                    seen.add(link)
                    queue.append(link)
            kind = self._classify(url, root, text)
            if kind == "media":
                skipped_media += 1
                continue
            if kind == "index":
                skipped_index += 1
                continue
            signature = structure_signature(root)
            clusters[signature] += 1
            pages.append(CrawledPage(url=url, html=html, signature=signature, visible_text=text))

        # Keep only the dominant template cluster (content template).
        if pages:
            dominant, _ = clusters.most_common(1)[0]
            pages = [p for p in pages if p.signature == dominant]
        return CrawlResult(
            pages=pages,
            visited=visited,
            skipped_index=skipped_index,
            skipped_media=skipped_media,
            clusters=dict(clusters),
            failed_urls=failed,
        )
