"""HTML parser tests: structure, attributes, recovery, raw-text elements."""

import pytest

from repro.html import ElementNode, HtmlParseError, TextNode, parse_html


def test_parses_nested_structure():
    root = parse_html("<html><body><div><p>hello</p></div></body></html>")
    assert root.tag == "html"
    p = root.find("p")
    assert p is not None
    assert p.text_content() == "hello"


def test_attributes_parsed_with_all_quote_styles():
    root = parse_html("""<div id="main" class='a b' hidden data-x=42>x</div>""")
    div = root.find("div")
    assert div.get("id") == "main"
    assert div.classes == ["a", "b"]
    assert div.get("hidden") == ""
    assert div.get("data-x") == "42"
    assert div.get("missing", "fallback") == "fallback"


def test_void_elements_do_not_nest():
    root = parse_html("<div><br><img src='x.png'><p>after</p></div>")
    p = root.find("p")
    assert p.text_content() == "after"
    div = root.find("div")
    img = root.find("img")
    assert any(child is img for child in div.children)
    assert [c.tag for c in div.children] == ["br", "img", "p"]


def test_self_closing_syntax():
    root = parse_html("<div><span/>text</div>")
    assert root.find("span") is not None
    assert "text" in root.find("div").text_content()


def test_unclosed_tags_recovered():
    root = parse_html("<div><p>one<p>two</div><p>three")
    paragraphs = root.find_all("p")
    assert len(paragraphs) == 3


def test_stray_close_tag_ignored():
    root = parse_html("<div></span>text</div>")
    assert root.find("div").text_content() == "text"


def test_comments_and_doctype_stripped():
    root = parse_html("<!DOCTYPE html><!-- comment --><div>x<!-- inner --></div>")
    assert root.find("div").text_content() == "x"


def test_script_content_not_parsed_as_html():
    root = parse_html("<script>if (a < b) { x = '<div>'; }</script><p>real</p>")
    script = root.find("script")
    assert "<div>" in script.text_content()
    assert len(root.find_all("div")) == 0
    assert root.find("p") is not None


def test_entities_decoded():
    root = parse_html("<p>a &amp; b &lt;c&gt; &quot;d&quot; &nbsp;</p>")
    text = root.find("p").text_content()
    assert "a & b <c>" in text and '"d"' in text


def test_case_insensitive_tags():
    root = parse_html("<DIV><P>x</P></DIV>")
    assert root.find("div") is not None
    assert root.find("p") is not None


def test_non_string_input_raises():
    with pytest.raises(HtmlParseError):
        parse_html(42)


def test_text_outside_tags_preserved():
    root = parse_html("before<p>mid</p>after")
    assert "before" in root.text_content()
    assert "after" in root.text_content()


def test_dom_iteration_and_find_all():
    root = parse_html("<ul><li>1</li><li>2</li><li>3</li></ul>")
    assert [li.text_content() for li in root.find_all("li")] == ["1", "2", "3"]
    nodes = list(root.iter())
    assert any(isinstance(n, TextNode) for n in nodes)
    assert any(isinstance(n, ElementNode) and n.tag == "ul" for n in nodes)
