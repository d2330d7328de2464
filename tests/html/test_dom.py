"""DOM node API tests."""

from repro.html import ElementNode, TextNode


def test_append_sets_parent():
    parent = ElementNode("div")
    child = ElementNode("p")
    assert parent.append(child) is child
    assert parent.children == [child]
    text = parent.append(TextNode("x"))
    assert parent.children == [child, text]
    # Nodes keep no back-pointer, so a tree holds no reference cycle.
    assert not hasattr(child, "parent")


def test_iter_is_preorder():
    root = ElementNode("a")
    b = ElementNode("b")
    c = ElementNode("c")
    root.append(b)
    b.append(TextNode("x"))
    root.append(c)
    tags = [n.tag for n in root.iter() if isinstance(n, ElementNode)]
    assert tags == ["a", "b", "c"]


def test_find_returns_first_match():
    root = ElementNode("div")
    first = ElementNode("p", {"id": "1"})
    second = ElementNode("p", {"id": "2"})
    root.append(first)
    root.append(second)
    assert root.find("p").get("id") == "1"
    assert root.find("missing") is None
    assert len(root.find_all("p")) == 2


def test_classes_and_get_defaults():
    node = ElementNode("div", {"class": "a  b", "x": "1"})
    assert node.classes == ["a", "b"]
    assert node.get("x") == "1"
    assert node.get("y") is None
    assert node.get("y", "z") == "z"
    assert ElementNode("div").classes == []


def test_text_content_concatenates_all_text():
    root = ElementNode("div")
    root.append(TextNode("a"))
    child = ElementNode("span")
    child.append(TextNode("b"))
    root.append(child)
    assert root.text_content() == "ab"


def test_reprs():
    assert "TextNode" in repr(TextNode("hello"))
    assert "..." in repr(TextNode("x" * 100))
    assert "<div>" in repr(ElementNode("div"))
