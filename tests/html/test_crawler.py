"""Structure-driven crawler tests against synthetic websites."""

import numpy as np
import pytest

from repro.data.synthesizer import SyntheticWebsite
from repro.data.taxonomy import build_taxonomy
from repro.html import StructureDrivenCrawler, parse_html, structure_signature
from repro.runtime import FetchError


@pytest.fixture()
def website():
    topic = build_taxonomy()[0]
    return SyntheticWebsite("site.example", topic, num_pages=6, rng=np.random.default_rng(3))


def test_crawl_harvests_content_pages_only(website):
    result = StructureDrivenCrawler().crawl(website)
    assert len(result.pages) == 6
    assert result.skipped_media == 2
    assert result.skipped_index >= 1
    assert all("page-" in p.url for p in result.pages)


def test_content_pages_share_template_signature(website):
    result = StructureDrivenCrawler().crawl(website)
    signatures = {p.signature for p in result.pages}
    assert len(signatures) == 1


def test_max_pages_respected(website):
    result = StructureDrivenCrawler(max_pages=3).crawl(website)
    assert len(result.pages) <= 3


def test_crawl_visits_are_bounded(website):
    result = StructureDrivenCrawler(max_visits=2).crawl(website)
    assert result.visited <= 2


def test_structure_signature_distinguishes_templates():
    a = parse_html("<html><body><div><p>x</p></div></body></html>")
    b = parse_html("<html><body><ul><li>x</li></ul></body></html>")
    c = parse_html("<html><body><div><p>completely different words</p></div></body></html>")
    assert structure_signature(a) != structure_signature(b)
    assert structure_signature(a) == structure_signature(c)  # same template


def test_404_urls_are_skipped(website):
    class Host:
        root_url = website.root_url

        def fetch(self, url):
            if url == website.root_url:
                return '<html><body><a href="/missing.html">m</a>' + website.fetch(url) + "</body></html>"
            return website.fetch(url)

    result = StructureDrivenCrawler().crawl(Host())
    assert all(p.html is not None for p in result.pages)


class FailingHost:
    """Serve ``website`` but raise ``FetchError`` for the URLs in ``dead``."""

    def __init__(self, website, dead):
        self.website = website
        self.dead = set(dead)

    @property
    def root_url(self):
        return self.website.root_url

    def fetch(self, url):
        if url in self.dead:
            raise FetchError("host unreachable", url=url, transient=True)
        return self.website.fetch(url)


def test_failing_content_url_is_recorded_and_crawl_goes_on(website):
    baseline = {p.url for p in StructureDrivenCrawler().crawl(website).pages}
    dead = sorted(baseline)[0]
    result = StructureDrivenCrawler().crawl(FailingHost(website, [dead]))
    assert result.failed_urls == [dead]
    assert {p.url for p in result.pages} == baseline - {dead}


def test_failing_root_yields_empty_result(website):
    result = StructureDrivenCrawler().crawl(FailingHost(website, [website.root_url]))
    assert result.pages == []
    assert result.failed_urls == [website.root_url]


def test_media_classification_by_extension():
    crawler = StructureDrivenCrawler()
    root = parse_html("<html><body><p>some long enough textual content here for sure, " + "x " * 50 + "</p></body></html>")
    assert crawler._classify("http://a/video.mp4", root, "text " * 60) == "media"
    assert crawler._classify("http://a/page.html", root, "text " * 60) == "content"


def test_index_classification_by_link_density():
    crawler = StructureDrivenCrawler()
    links = "".join(f'<a href="/p{i}">l</a>' for i in range(30))
    root = parse_html(f"<html><body>{links}</body></html>")
    text = "l " * 50  # enough text length, but one link per word
    assert crawler._classify("http://a/", root, text) == "index"


# ----------------------------------------------------------------------
# Edge cases: cycles, 404 roots, empty clusters, budget exhaustion, links.
_CONTENT = "<p>plenty of meaningful textual content right here, " + "word " * 40 + "</p>"


class DictHost:
    """WebsiteHost over a dict; records every URL actually fetched."""

    def __init__(self, pages, root):
        self.pages = pages
        self._root = root
        self.fetch_log = []

    @property
    def root_url(self):
        return self._root

    def fetch(self, url):
        self.fetch_log.append(url)
        return self.pages.get(url)


def test_link_cycles_terminate():
    root = "https://cyc.example/"
    host = DictHost(
        {
            root: f'<html><body><a href="a.html">a</a>{_CONTENT}</body></html>',
            root + "a.html": f'<html><body><a href="b.html">b</a>{_CONTENT}</body></html>',
            root + "b.html": f'<html><body><a href="a.html">a</a><a href="/">home</a>{_CONTENT}</body></html>',
        },
        root,
    )
    result = StructureDrivenCrawler().crawl(host)
    assert result.visited == 3
    assert len(host.fetch_log) == 3  # each URL fetched exactly once despite the cycle


def test_404_root_yields_empty_result():
    host = DictHost({}, "https://gone.example/")
    result = StructureDrivenCrawler().crawl(host)
    assert result.pages == []
    assert result.visited == 0
    assert result.clusters == {}


def test_no_content_pages_means_empty_dominant_cluster():
    # Every reachable page classifies as index -> the cluster map stays empty
    # and the dominant-cluster selection must not crash.
    root = "https://idx.example/"
    links = "".join(f'<a href="p{i}.html">l</a>' for i in range(20))
    host = DictHost({root: f"<html><body>{links}</body></html>"}, root)
    result = StructureDrivenCrawler().crawl(host)
    assert result.pages == []
    assert result.skipped_index == 1
    assert result.clusters == {}


def test_max_visits_exhaustion_mid_queue():
    root = "https://big.example/"
    pages = {root: "<html><body>" + "".join(f'<a href="p{i}.html">l</a>' for i in range(10)) + _CONTENT + "</body></html>"}
    for i in range(10):
        pages[f"{root}p{i}.html"] = f"<html><body>{_CONTENT}</body></html>"
    host = DictHost(pages, root)
    result = StructureDrivenCrawler(max_visits=4).crawl(host)
    assert result.visited == 4
    assert len(host.fetch_log) == 4  # the rest of the queue is abandoned, not fetched


def test_relative_links_resolve_against_page_url_not_root():
    root = "https://rel.example/"
    deep = root + "sub/dir/page.html"
    host = DictHost(
        {
            root: f'<html><body><a href="sub/dir/page.html">d</a>{_CONTENT}</body></html>',
            deep: f'<html><body><a href="sibling.html">s</a>{_CONTENT}</body></html>',
            root + "sub/dir/sibling.html": f"<html><body>{_CONTENT}</body></html>",
        },
        root,
    )
    result = StructureDrivenCrawler().crawl(host)
    # "sibling.html" on /sub/dir/page.html must resolve to /sub/dir/sibling.html
    assert root + "sub/dir/sibling.html" in host.fetch_log
    assert result.visited == 3


def test_query_strings_and_fragments_are_normalized_before_dedup():
    root = "https://q.example/"
    host = DictHost(
        {
            root: (
                '<html><body><a href="item.html?ref=1">a</a>'
                '<a href="item.html?ref=2">b</a>'
                '<a href="item.html#top">c</a>'
                f"{_CONTENT}</body></html>"
            ),
            root + "item.html": f"<html><body>{_CONTENT}</body></html>",
        },
        root,
    )
    result = StructureDrivenCrawler().crawl(host)
    assert host.fetch_log.count(root + "item.html") == 1
    assert result.visited == 2


def test_media_extension_urls_skipped_before_fetch():
    root = "https://m.example/"
    host = DictHost(
        {
            root: (
                '<html><body><a href="movie.mp4">m</a><a href="pic.JPG">p</a>'
                f'<a href="page.html">ok</a>{_CONTENT}</body></html>'
            ),
            root + "page.html": f"<html><body>{_CONTENT}</body></html>",
        },
        root,
    )
    result = StructureDrivenCrawler().crawl(host)
    assert result.skipped_media == 2  # counted without spending a fetch
    assert root + "movie.mp4" not in host.fetch_log
    assert root + "pic.JPG" not in host.fetch_log
    assert root + "page.html" in host.fetch_log
