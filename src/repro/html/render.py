"""Visible-text rendering — the offline substitute for Selenium.

The paper "use[s] an open-source automated rendering software to render the
webpages and collect visible texts" (§IV-A3).  This module reproduces the
relevant behaviour deterministically:

* text inside ``<script>/<style>/<head>`` etc. is invisible;
* elements with ``style="display:none"`` / ``visibility:hidden`` or the
  ``hidden`` attribute are skipped;
* block-level elements introduce line breaks, so sentence/section structure
  survives rendering;
* runs of whitespace are collapsed, as a browser layout engine would.

The output is a :class:`RenderedPage`: the visible text plus the list of
rendered *segments* (text runs with a pointer to their source element and
their rendered line index).  The dataset builder uses segments to carry
section/attribute labels from the HTML templates through to token-level
supervision, so every model consumes text that actually went through the
parse → render pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List

from .dom import BLOCK_ELEMENTS, ElementNode, INVISIBLE_ELEMENTS, TextNode
from .parser import parse_html

__all__ = ["RenderedSegment", "RenderedPage", "render_visible_text", "render_page"]

_HIDDEN_STYLE = re.compile(r"display\s*:\s*none|visibility\s*:\s*hidden")


@dataclass
class RenderedSegment:
    """One visible text run with provenance."""

    text: str
    element: ElementNode
    #: Index of the rendered line (block-level grouping) this run belongs to.
    line_index: int
    #: Marker classes inherited from ancestors (e.g. ``wb-informative``);
    #: used by the corpus builder to recover supervision labels.
    marker_classes: List[str] = field(default_factory=list)

    @property
    def data_attributes(self) -> Dict[str, str]:
        return {k: v for k, v in self.element.attributes.items() if k.startswith("data-")}


@dataclass
class RenderedPage:
    """The result of rendering a page: plain text and labelled segments."""

    text: str
    segments: List[RenderedSegment]

    @property
    def lines(self) -> List[str]:
        return [line for line in self.text.split("\n") if line.strip()]

    def segments_by_line(self) -> List[List[RenderedSegment]]:
        """Group segments into rendered lines; index ``i`` matches ``lines[i]``."""
        grouped: Dict[int, List[RenderedSegment]] = {}
        for segment in self.segments:
            grouped.setdefault(segment.line_index, []).append(segment)
        return [grouped[key] for key in sorted(grouped)]


def _is_hidden(element: ElementNode) -> bool:
    if element.tag in INVISIBLE_ELEMENTS:
        return True
    if "hidden" in element.attributes:
        return True
    style = element.attributes.get("style", "")
    return bool(style and _HIDDEN_STYLE.search(style))


class _LineTracker:
    """Assigns consecutive line indices as block boundaries are crossed."""

    def __init__(self) -> None:
        self.line = 0
        self.line_has_content = False

    def break_line(self) -> None:
        if self.line_has_content:
            self.line += 1
            self.line_has_content = False


def _walk(
    element: ElementNode,
    inherited_markers: List[str],
    segments: List[RenderedSegment],
    tracker: _LineTracker,
) -> None:
    """Append ``element``'s visible text runs to ``segments``, depth first.

    A module-level function rather than a closure over the segment list: a
    closure that recurses through itself is a reference cycle, which would
    keep each rendered page alive until the cyclic collector ran.
    """
    if _is_hidden(element):
        return
    markers = inherited_markers
    classes = element.attributes.get("class")
    if classes and "wb-" in classes:
        markers = inherited_markers + [c for c in classes.split() if c.startswith("wb-")]
    is_block = element.tag in BLOCK_ELEMENTS
    if is_block:
        tracker.break_line()
    for child in element.children:
        if isinstance(child, TextNode):
            # str.split() splits on the same Unicode whitespace as regex \s.
            text = " ".join(child.text.split())
            if text:
                segments.append(
                    RenderedSegment(
                        text=text,
                        element=element,
                        line_index=tracker.line,
                        marker_classes=list(markers),
                    )
                )
                tracker.line_has_content = True
        elif isinstance(child, ElementNode):
            _walk(child, markers, segments, tracker)
    if is_block:
        tracker.break_line()


def render_page(html_or_root) -> RenderedPage:
    """Render HTML (string or parsed root) to visible text with segments."""
    root = parse_html(html_or_root) if isinstance(html_or_root, str) else html_or_root
    segments: List[RenderedSegment] = []
    _walk(root, [], segments, _LineTracker())
    # Reconstruct text from segments so lines[i] corresponds exactly to
    # segments_by_line()[i].
    grouped: Dict[int, List[str]] = {}
    for segment in segments:
        grouped.setdefault(segment.line_index, []).append(segment.text)
    text = "\n".join(" ".join(grouped[key]) for key in sorted(grouped))
    return RenderedPage(text=text, segments=segments)


def render_visible_text(html: str) -> str:
    """Convenience wrapper: HTML string → visible text only."""
    return render_page(html).text
