"""Unit tests for the streaming XML tokenizer."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlError
from repro.xmlkit.dom import Element, Text
from repro.xmlkit.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
)
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tokenizer import iterparse


def events_of(text):
    return list(iterparse(text))


def kinds(text):
    return [type(event).__name__ for event in events_of(text)]


class TestBasicDocuments:
    def test_single_empty_element(self):
        assert kinds("<a/>") == ["StartDocument", "StartElement",
                                 "EndElement", "EndDocument"]

    def test_open_close_pair(self):
        assert kinds("<a></a>") == ["StartDocument", "StartElement",
                                    "EndElement", "EndDocument"]

    def test_element_names_are_reported(self):
        events = events_of("<root><child/></root>")
        starts = [event.name for event in events
                  if isinstance(event, StartElement)]
        assert starts == ["root", "child"]

    def test_text_content(self):
        events = events_of("<a>hello</a>")
        texts = [event.text for event in events
                 if isinstance(event, Characters)]
        assert texts == ["hello"]

    def test_nested_structure_order(self):
        events = events_of("<a><b>x</b><c/></a>")
        trace = []
        for event in events:
            if isinstance(event, StartElement):
                trace.append(f"<{event.name}>")
            elif isinstance(event, EndElement):
                trace.append(f"</{event.name}>")
            elif isinstance(event, Characters):
                trace.append(event.text)
        assert trace == ["<a>", "<b>", "x", "</b>", "<c>", "</c>", "</a>"]

    def test_whitespace_between_elements_is_characters(self):
        events = events_of("<a> <b/> </a>")
        texts = [event.text for event in events
                 if isinstance(event, Characters)]
        assert texts == [" ", " "]

    def test_document_events_bracket_everything(self):
        events = events_of("<a/>")
        assert isinstance(events[0], StartDocument)
        assert isinstance(events[-1], EndDocument)


class TestAttributes:
    def test_single_attribute(self):
        event = events_of('<a x="1"/>')[1]
        assert event.attributes == (("x", "1"),)

    def test_multiple_attributes_preserve_order(self):
        event = events_of('<a x="1" y="2" z="3"/>')[1]
        assert [name for name, __ in event.attributes] == ["x", "y", "z"]

    def test_single_quoted_values(self):
        event = events_of("<a x='v'/>")[1]
        assert event.get("x") == "v"

    def test_get_returns_default_for_missing(self):
        event = events_of("<a/>")[1]
        assert event.get("nope", "dflt") == "dflt"

    def test_entity_in_attribute_value(self):
        event = events_of('<a x="a&amp;b"/>')[1]
        assert event.get("x") == "a&b"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XmlError):
            events_of('<a x="1" x="2"/>')

    def test_unquoted_value_rejected(self):
        with pytest.raises(XmlError):
            events_of("<a x=1/>")


class TestEntitiesAndCData:
    def test_predefined_entities(self):
        events = events_of("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        text = "".join(event.text for event in events
                       if isinstance(event, Characters))
        assert text == "<>&'\""

    def test_decimal_character_reference(self):
        events = events_of("<a>&#65;</a>")
        assert events[2].text == "A"

    def test_hex_character_reference(self):
        events = events_of("<a>&#x41;</a>")
        assert events[2].text == "A"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlError):
            events_of("<a>&nosuch;</a>")

    def test_cdata_is_literal(self):
        events = events_of("<a><![CDATA[<not> &markup;]]></a>")
        assert events[2].text == "<not> &markup;"

    def test_adjacent_text_and_cdata_coalesce(self):
        events = events_of("<a>x<![CDATA[y]]>z</a>")
        texts = [event for event in events
                 if isinstance(event, Characters)]
        assert len(texts) == 1
        assert texts[0].text == "xyz"


class TestSkippedMarkup:
    def test_comment_is_skipped(self):
        assert kinds("<a><!-- hi --></a>") == [
            "StartDocument", "StartElement", "EndElement", "EndDocument"]

    def test_processing_instruction_skipped(self):
        assert kinds("<?xml version='1.0'?><a/>") == [
            "StartDocument", "StartElement", "EndElement", "EndDocument"]

    def test_doctype_skipped(self):
        assert kinds("<!DOCTYPE a><a/>") == [
            "StartDocument", "StartElement", "EndElement", "EndDocument"]

    def test_doctype_with_internal_subset(self):
        text = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>"
        assert kinds(text)[-1] == "EndDocument"

    def test_comment_splits_text_into_two_events(self):
        events = events_of("<a>x<!-- c -->y</a>")
        texts = [event.text for event in events
                 if isinstance(event, Characters)]
        assert texts == ["x", "y"]


class TestMalformedInput:
    @pytest.mark.parametrize("text", [
        "", "   ", "<a>", "<a></b>", "</a>", "<a><b></a></b>",
        "<a/><b/>", "text only", "<a>&unterminated", "<a x=></a>",
        "<a><!-- unterminated</a>", "<a><![CDATA[x</a>",
    ])
    def test_rejected(self, text):
        with pytest.raises(XmlError):
            events_of(text)

    def test_error_carries_position(self):
        with pytest.raises(XmlError) as excinfo:
            events_of("<a>\n  </b>")
        assert excinfo.value.line == 2

    def test_mismatched_tag_message_names_both(self):
        with pytest.raises(XmlError, match="mismatched"):
            events_of("<outer></inner>")


class TestPositions:
    def test_start_element_line_column(self):
        events = events_of("<a>\n<b/></a>")
        b_event = [event for event in events
                   if isinstance(event, StartElement)][1]
        assert (b_event.line, b_event.column) == (2, 1)


# ---------------------------------------------------------------------------
# golden corpus: the event stream and every error, captured from the
# character-at-a-time tokenizer this scanner replaced
# ---------------------------------------------------------------------------

with open(Path(__file__).with_name("tokenizer_golden.json"),
          encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def observed(text):
    """``(events, error)`` in the golden file's shape; events yielded
    before an error are part of the contract (the stream is lazy)."""
    events = []
    try:
        for event in iterparse(text):
            row = [type(event).__name__, event.line, event.column]
            if isinstance(event, (StartElement, EndElement)):
                row.append(event.name)
            if isinstance(event, StartElement):
                row.append([list(pair) for pair in event.attributes])
            if isinstance(event, Characters):
                row.append(event.text)
            events.append(row)
    except XmlError as error:
        return events, [str(error), error.line, error.column]
    return events, None


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "entry", GOLDEN, ids=[repr(entry["input"])[:40] for entry in GOLDEN])
    def test_events_positions_and_errors_are_unchanged(self, entry):
        events, error = observed(entry["input"])
        assert events == entry["events"]
        assert error == entry.get("error")


# ---------------------------------------------------------------------------
# round trip: random DOM -> serialize -> iterparse == the DOM's own walk
# ---------------------------------------------------------------------------

_NAME_START = st.sampled_from("abXY_:éλ中")
_NAME_REST = st.text("abXY_:éλ中019.-·", max_size=6)
_NAMES = st.builds(str.__add__, _NAME_START, _NAME_REST)
# Only XML ``Char``s: a DOM can hold others, but no well-formed source
# can carry them back (literals and references are both rejected).
_VALUES = st.text(st.one_of(
    st.sampled_from("<>&'\"\r\n\t ]x"),
    st.characters(min_codepoint=0x20, blacklist_categories=("Cs",),
                  blacklist_characters="\ufffe\uffff")), max_size=12)


@st.composite
def dom_elements(draw, depth=0):
    names = draw(st.lists(_NAMES, max_size=3, unique=True))
    element = Element(draw(_NAMES), attributes=tuple(
        (name, draw(_VALUES)) for name in names))
    kinds = draw(st.lists(st.booleans(), max_size=0 if depth >= 3 else 4))
    for index, is_text in enumerate(kinds):
        # Adjacent text nodes would serialize into one run.
        if is_text and (index == 0 or not kinds[index - 1]):
            element.append(Text(draw(_VALUES.filter(len))))
        elif not is_text:
            element.append(draw(dom_elements(depth=depth + 1)))
    return element


def dom_walk(node):
    if isinstance(node, Text):
        return [("text", node.text)]
    walk = [("start", node.name, tuple(node.attributes))]
    for child in node.children:
        walk.extend(dom_walk(child))
    return walk + [("end", node.name)]


class TestSerializerRoundTrip:
    @given(dom_elements())
    @settings(max_examples=150, deadline=None)
    def test_iterparse_inverts_serialize(self, root):
        walk = []
        for event in list(iterparse(serialize(root)))[1:-1]:
            if isinstance(event, StartElement):
                walk.append(("start", event.name, event.attributes))
            elif isinstance(event, EndElement):
                walk.append(("end", event.name))
            else:
                walk.append(("text", event.text))
        assert walk == dom_walk(root)


# ---------------------------------------------------------------------------
# character references outside XML's Char production
# ---------------------------------------------------------------------------


class TestCharacterReferenceRange:
    @pytest.mark.parametrize("reference", [
        "&#xD800;", "&#xDFFF;", "&#0;", "&#x0;", "&#1;", "&#x1F;",
        "&#xFFFE;", "&#xFFFF;", "&#11;"])
    def test_non_char_references_rejected_with_position(self, reference):
        for text in (f"<a>\n {reference}</a>", f"<a>\n<b k='{reference}'/></a>"):
            with pytest.raises(XmlError, match="not a legal XML char") as info:
                events_of(text)
            assert info.value.line == 2
            assert reference in str(info.value)

    def test_boundary_chars_accepted(self):
        text = ("<a>&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;"
                "&#x10000;&#x10FFFF;</a>")
        assert events_of(text)[2].text == \
            "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff"

    @pytest.mark.parametrize("body", ["#" + "9" * 5000, "#x" + "F" * 5000,
                                      "n" * 5000],
                             ids=["decimal", "hexadecimal", "named"])
    def test_error_message_caps_the_echoed_body(self, body):
        with pytest.raises(XmlError) as info:
            events_of(f"<a>&{body};</a>")
        assert len(str(info.value)) < 120


# ---------------------------------------------------------------------------
# hostile inputs: typed error or success, work bounded by events
# ---------------------------------------------------------------------------


def calls_while_tokenizing(text):
    """(outcome, number of Python *and* C calls made while tokenizing)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        try:
            outcome = sum(1 for __ in iterparse(text))
        except XmlError as error:
            outcome = error
    finally:
        sys.setprofile(None)
    return outcome, calls


class TestHostileInputs:
    def test_huge_attribute_and_text_cost_a_handful_of_calls(self):
        big = "x" * (2 * 1024 * 1024)
        events, calls = calls_while_tokenizing(
            f'<a k="{big}">{big}\n{big}</a>')
        assert events == 5
        assert calls < 200

    def test_work_is_bounded_by_events_not_characters(self):
        def document(width):
            pad = "p" * width
            return ("<r>" + f'<e k="{pad}">{pad}&amp;{pad}<!--{pad}-->'
                    f"<![CDATA[{pad}]]></e>\n" * 50 + "</r>")

        small_events, small_calls = calls_while_tokenizing(document(1))
        big_events, big_calls = calls_while_tokenizing(document(4000))
        assert small_events == big_events
        assert big_calls == small_calls

    def test_fifty_thousand_deep_nesting(self):
        depth = 50_000
        events = events_of("<a>" * depth + "</a>" * depth)
        assert len(events) == 2 * depth + 2

    @pytest.mark.parametrize("text", [
        "<a>&#xZZ;</a>", "<a>&#1114112;</a>", "<a>&#-1;</a>",
        "<a k='&#xZZ;'/>"])
    def test_bad_character_references_are_typed(self, text):
        with pytest.raises(XmlError, match="character reference"):
            events_of(text)

    @pytest.mark.parametrize("opening", [
        "<a", "<a k", "<a k=", "<a k='", '<a k="v" ', "<a><b", "<a></a",
        "<a><!--", "<a><![CDATA[", "<a><?pi", "<!DOCTYPE a [", "<a>&amp",
        "<a k='&amp", "<a>"])
    def test_unterminated_constructs_fail_typed_and_cheaply(self, opening):
        outcome, calls = calls_while_tokenizing(opening + "y" * 1_000_000)
        assert isinstance(outcome, XmlError)
        assert outcome.line == 1
        assert calls < 100
