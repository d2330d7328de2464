"""A minimal DOM tree for the webpage substrate.

The paper renders webpages with Selenium and collects visible text; this repo
replaces that with a from-scratch HTML parser (:mod:`repro.html.parser`) and a
visible-text renderer (:mod:`repro.html.render`) operating on this DOM.

Nodes have no back-pointer to their parent: a tree links only downwards
through ``children``, so it holds no reference cycle and reference counting
frees a page's whole tree as soon as the caller drops its root.  A
child → parent link would make every parsed page garbage that only the
cyclic collector can reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Node", "ElementNode", "TextNode", "VOID_ELEMENTS", "INVISIBLE_ELEMENTS", "BLOCK_ELEMENTS"]

#: Elements that never have children / closing tags.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "source", "track", "wbr"}
)

#: Elements whose text content is never rendered (Selenium-visible-text rule).
INVISIBLE_ELEMENTS = frozenset({"script", "style", "head", "title", "noscript", "template"})

#: Elements that introduce a line break in rendered text.
BLOCK_ELEMENTS = frozenset(
    {
        "address", "article", "aside", "blockquote", "body", "dd", "div", "dl", "dt",
        "fieldset", "figcaption", "figure", "footer", "form", "h1", "h2", "h3", "h4",
        "h5", "h6", "header", "hr", "html", "li", "main", "nav", "ol", "p", "pre",
        "section", "table", "tbody", "td", "tfoot", "th", "thead", "tr", "ul", "br",
    }
)


class Node:
    """Base class for DOM nodes."""


@dataclass
class TextNode(Node):
    """A run of character data."""

    text: str

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"TextNode({preview!r})"


@dataclass
class ElementNode(Node):
    """An HTML element with a tag, attributes and children."""

    tag: str
    attributes: Dict[str, str] = field(default_factory=dict)
    children: List[Node] = field(default_factory=list)

    def append(self, child: Node) -> Node:
        self.children.append(child)
        return child

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter(self) -> Iterator[Node]:
        """Depth-first pre-order traversal including self."""
        yield self
        for child in self.children:
            if isinstance(child, ElementNode):
                yield from child.iter()
            else:
                yield child

    def find_all(self, tag: str) -> List["ElementNode"]:
        """All descendant elements with the given tag name."""
        return [n for n in self.iter() if isinstance(n, ElementNode) and n.tag == tag]

    def find(self, tag: str) -> Optional["ElementNode"]:
        """First descendant element with the given tag name, or ``None``."""
        for node in self.iter():
            if isinstance(node, ElementNode) and node.tag == tag:
                return node
        return None

    def get(self, attribute: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(attribute, default)

    @property
    def classes(self) -> List[str]:
        return self.attributes.get("class", "").split()

    def text_content(self) -> str:
        """Raw concatenated character data (ignores visibility rules)."""
        parts: List[str] = []
        for node in self.iter():
            if isinstance(node, TextNode):
                parts.append(node.text)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ElementNode(<{self.tag}>, {len(self.children)} children)"
