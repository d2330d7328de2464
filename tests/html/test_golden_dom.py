"""Golden digests of the HTML front end: DOM, rendered text, segments, tokens.

The inputs are generated from fixed seeds: synthetic website pages at three
noise levels, plus thousands of short strings drawn from an alphabet of
markup fragments (stray ``<``, entities, comments, raw-text elements with
odd closes, hidden elements, attribute quoting styles).  Each input is
reduced to three short digests, so any change in what the parser builds,
what the renderer emits or how a line tokenizes fails here with the input
that diverged.

Regenerate after an intentional front-end change with::

    PYTHONPATH=src python -m pytest tests/html/test_golden_dom.py --regen-golden
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from repro.data.preprocessing import word_tokenize
from repro.data.synthesizer import SyntheticWebsite
from repro.data.taxonomy import build_taxonomy
from repro.html import ElementNode, parse_html, render_page

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "front_end_digests.txt"

NUM_FRAGMENT_STRINGS = 5000
PAGES_PER_NOISE = 64

FRAGMENTS = [
    # open, close and void tags, in several spellings
    "<div>", "<p>", "<span>", "<li>", "<ul>", "<h1>", "<td>", "<tr>", "<table>",
    "<body>", "<html>", "<head>", "<title>", "<noscript>", "<DIV>", "<P >", "< span>",
    "<custom-el>", "<x1>", "</div>", "</p>", "</span>", "</li>", "</ul>", "</h1>",
    "</td>", "</body>", "</html>", "</head>", "</title>", "</DIV>", "</ p>", "< / span >",
    "</custom-el>", "</nope>", "<br>", "<br/>", "<hr />", "<img src='x.png'>",
    "<input type=text>", "<meta charset=utf-8>", "<wbr>", "<p/>", "<span/>",
    # stray and malformed brackets
    "<", "<<p>>", "< >", "<1>", ">", "a<b", "<>", "</>", "<-p>", "<p", "</div",
    # known and unknown entities
    "&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&apos;", "&nbsp;", "&copy;", "&mdash;",
    "&ndash;", "&unknown;", "&", "&amp;lt;", "&#169;", "&AMP;",
    # comments and DOCTYPE
    "<!-- note -->", "<!--", "-->", "<!---->", "<!-- <p>x</p> -->", "<!DOCTYPE html>",
    "<!doctype html>", "<!DOCTYPE",
    # raw-text elements with upper-case or missing closes
    "<script>", "</script>", "</SCRIPT>", "< / script >", "<style>", "</style>",
    "</STYLE >", "<script type='x'>var a = '<p>';", "<style media=all>p{x:1}",
    # hidden and styled elements
    "<div hidden>", "<span hidden=''>", "<span style='display:none'>",
    '<p style="visibility: hidden">', "<div style='color:red'>", "<p style=\"display : none\">",
    # quoted, unquoted and entity-bearing attribute values
    '<a href="x?a=1&amp;b=2">', "<div class=wb-informative>",
    "<span class='wb-attr x' data-attr-type=price>", "<div id='a' class=\"wb-section other\">",
    "<td colspan=2>", "<div data-x='&lt;&quot;'>", "<li class='wb-attr wb-informative'>",
    "<P CLASS=Wb-Attr>", "<div class=''>", "<div a=1 b = '2' c=\"3\" d>", "<div x='a>b'>",
    # character data
    "hello", " world ", "Price: 12.50", "\n", "\t", "  ", " ", " ", "　",
    "\x1c", "\x85", " ", "Ünïcode Straße", "Room 101.", "x", ".", ",", "foo-bar",
    "123", "3.14", "e-mail: a@b.com", "(c)", "Tom's", "—", "ﬁne", "İstanbul",
]


def _serialize_dom(node):
    if isinstance(node, ElementNode):
        return [node.tag, list(node.attributes.items()), [_serialize_dom(c) for c in node.children]]
    return node.text


def _digest(value) -> str:
    blob = json.dumps(value, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:8]


def _digests(html: str) -> str:
    dom = _serialize_dom(parse_html(html))
    rendered = render_page(html)
    render = [
        rendered.text,
        [[s.text, s.line_index, s.marker_classes, s.element.tag] for s in rendered.segments],
    ]
    tokens = [word_tokenize(line) for line in rendered.text.split("\n")]
    return f"{_digest(dom)} {_digest(render)} {_digest(tokens)}"


def _site_pages():
    taxonomy = build_taxonomy()
    topics = [taxonomy[t] for t in range(0, 48, 4)]
    pages = []
    for noise in (0, 2, 6):
        rng = np.random.default_rng([35, noise])
        taken = []
        index = 0
        while len(taken) < PAGES_PER_NOISE:
            website = SyntheticWebsite(
                f"golden-{noise}-{index}.example",
                topics[index % len(topics)],
                num_pages=8,
                rng=rng,
                noise_sentences=noise,
            )
            taken.extend(website.fetch(url) for url in website.urls if "/page-" in url)
            index += 1
        pages.extend(taken[:PAGES_PER_NOISE])
    return pages


def _fragment_strings():
    rng = random.Random(35)
    return [
        "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 30)))
        for _ in range(NUM_FRAGMENT_STRINGS)
    ]


def test_front_end_matches_golden_digests(regen_golden):
    inputs = _site_pages() + _fragment_strings()
    got = [_digests(html) for html in inputs]

    if regen_golden:
        GOLDEN_DIGESTS.parent.mkdir(exist_ok=True)
        GOLDEN_DIGESTS.write_text("\n".join(got) + "\n")

    assert GOLDEN_DIGESTS.exists(), (
        "golden digests missing — run: python -m pytest tests/html/test_golden_dom.py --regen-golden"
    )
    want = GOLDEN_DIGESTS.read_text().split("\n")[:-1]
    assert len(got) == len(want)
    for index, (got_line, want_line) in enumerate(zip(got, want)):
        assert got_line == want_line, (
            f"input {index} ({inputs[index][:80]!r}) diverged from golden "
            f"(dom render tokens: {want_line} -> {got_line}); if the front end changed "
            f"intentionally, regenerate with --regen-golden"
        )
