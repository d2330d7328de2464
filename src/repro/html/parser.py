"""A small, forgiving HTML parser.

Parses the HTML produced by the synthetic website generator (and reasonable
real-world markup) into the :mod:`repro.html.dom` tree.  It is intentionally
lenient — unclosed tags are auto-closed, unknown entities pass through — in
the spirit of browser parsers, because the crawler substrate must never crash
on a page.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .dom import ElementNode, TextNode, VOID_ELEMENTS

__all__ = ["parse_html", "HtmlParseError"]

#: One pattern per tag: a close tag (group 1), else an open tag (name, raw
#: attributes, self-closing slash), tried in that order.
_TAG = re.compile(
    r"<\s*(?:/\s*([a-zA-Z][a-zA-Z0-9-]*)\s*>"
    r"|([a-zA-Z][a-zA-Z0-9-]*)((?:\s+[^<>]*?)?)\s*(/?)\s*>)"
)
_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
_DOCTYPE = re.compile(r"<!DOCTYPE[^>]*>", re.IGNORECASE)
_ATTRIBUTE = re.compile(
    r"""([a-zA-Z_:][a-zA-Z0-9_:.-]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s"'>]+))?"""
)
#: Raw-text elements: their content runs to the matching close tag unparsed.
_RAW_TEXT_END = {
    tag: re.compile(rf"<\s*/\s*{tag}\s*>", re.IGNORECASE) for tag in ("script", "style")
}

_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&#39;": "'",
    "&apos;": "'",
    "&nbsp;": " ",
    "&copy;": "(c)",
    "&mdash;": "—",
    "&ndash;": "–",
}


class HtmlParseError(ValueError):
    """Raised for input that cannot be interpreted as HTML at all."""


def _decode_entities(text: str) -> str:
    if "&" not in text:
        return text
    for entity, char in _ENTITIES.items():
        if entity in text:
            text = text.replace(entity, char)
    return text


def _parse_attributes(raw: str) -> Dict[str, str]:
    attributes: Dict[str, str] = {}
    for match in _ATTRIBUTE.finditer(raw):
        name = match.group(1).lower()
        value = match.group(2)
        if value is None:
            attributes[name] = ""
        else:
            if value[0] in "\"'" and value[-1] == value[0]:
                value = value[1:-1]
            attributes[name] = _decode_entities(value)
    return attributes


def parse_html(html: str) -> ElementNode:
    """Parse an HTML string into a DOM tree.

    Returns the root element (``<html>`` if present, otherwise a synthetic
    ``<document>`` wrapper).
    """
    if not isinstance(html, str):
        raise HtmlParseError("expected a string of HTML")
    if "<!" in html:
        html = _COMMENT.sub("", html)
        html = _DOCTYPE.sub("", html)

    root = ElementNode("document")
    html_node = None
    stack: List[ElementNode] = [root]
    top = root
    position = 0
    length = len(html)

    while position < length:
        lt = html.find("<", position)
        if lt == -1:
            top.children.append(TextNode(_decode_entities(html[position:])))
            break
        if lt > position:
            top.children.append(TextNode(_decode_entities(html[position:lt])))

        match = _TAG.match(html, lt)
        if match is None:
            # A stray '<' that is not a tag: a text node of its own.
            top.children.append(TextNode("<"))
            position = lt + 1
            continue
        position = match.end()
        close, tag, raw_attributes, slash = match.groups()
        if close is not None:
            close = close.lower()
            if close == top.tag and len(stack) > 1:
                stack.pop()
            else:
                _close_tag(stack, close)
            top = stack[-1]
            continue

        tag = tag.lower()
        element = ElementNode(tag, _parse_attributes(raw_attributes) if raw_attributes else {})
        top.children.append(element)
        if tag == "html" and html_node is None:
            html_node = element
        if slash or tag in VOID_ELEMENTS:
            continue
        raw_text_end = _RAW_TEXT_END.get(tag)
        if raw_text_end is not None:
            end = raw_text_end.search(html, position)
            if end:
                element.children.append(TextNode(html[position : end.start()]))
                position = end.end()
            else:
                element.children.append(TextNode(html[position:]))
                position = length
            continue
        stack.append(element)
        top = element

    # Elements are created in pre-order, so the first <html> opened is the
    # one a depth-first search from the root would find.
    return html_node if html_node is not None else root


def _close_tag(stack: List[ElementNode], tag: str) -> None:
    """Pop the stack to the nearest matching open tag (browser-style recovery)."""
    for index in range(len(stack) - 1, 0, -1):
        if stack[index].tag == tag:
            del stack[index:]
            return
    # No matching open tag: ignore the stray close tag.
