"""Streaming XML tokenizer.

:func:`iterparse` turns XML text into a lazy stream of
:class:`~repro.xmlkit.events.XmlEvent` objects in a single forward pass
with O(depth) memory — the property the paper's milestone 2 relies on
("does not require building the DOM tree").

The scanner is driven by compiled patterns and ``str.find`` over the
source string: one call consumes a whole tag head, attribute, text run,
comment, PI or CDATA section, so the Python-level work is proportional
to the number of *events*, not characters.  Line/column positions are
derived from offsets on demand (newline counts between the offsets asked
for), never tracked per character.

The grammar implemented is the well-formed-document subset described in
:mod:`repro.xmlkit`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.errors import XmlError
from repro.xmlkit.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    XmlEvent,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

#: Longest entity body quoted back in an error message.
_ENTITY_ECHO_MAX = 32

# ``\w`` is exactly ``str.isalnum() or "_"``.  A name's *first* character
# must additionally satisfy ``str.isalpha() or in "_:"``, which no
# character class expresses (``"²".isdigit()`` but not ``\d``), so
# ``_valid_name`` checks it on the matched name.
_NAME = r"([\w:.\-·]*)"
_SPACE = r"[ \t\r\n]*"
_TAG_HEAD = re.compile(f"{_NAME}{_SPACE}(/?>)?")       # after "<"
_ATTRIBUTE_HEAD = re.compile(f"{_NAME}{_SPACE}(=)?{_SPACE}")
_TAG_TAIL = re.compile(f"{_SPACE}(/?>)?")              # after a value
_END_TAG = re.compile(f"</{_NAME}{_SPACE}(>)?")
_TEXT_RUN = re.compile(r"[^<&]+")
#: Per quote character: the run of an attribute value needing no work.
_VALUE_RUN = {quote: re.compile(f"[^<&{quote}\t\n\r]*") for quote in "'\""}
_DOCTYPE_STEP = re.compile(r"[^\[\]>]*([\[\]>])")


def _valid_name(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] in "_:")


#: A character outside the XML 1.0 ``Char`` production: what one scan
#: of the whole source rejects as a literal, and each resolved character
#: reference is checked against.
_NON_CHAR = re.compile(
    "[^\t\n\r\x20-\uD7FF\uE000-\uFFFD\U00010000-\U0010FFFF]")


class _Source:
    """The source text plus on-demand offset → (line, column) mapping.

    Positions must be requested in non-decreasing offset order (the
    scanner only moves forward), which keeps the mapping linear overall:
    each call counts the newlines since the previous one.
    """

    __slots__ = ("text", "_seen", "_line", "_line_start")

    def __init__(self, text: str):
        self.text = text
        self._seen = 0        # offset of the latest position request
        self._line = 1
        self._line_start = 0  # offset just past the last newline seen

    def locate(self, pos: int) -> tuple[int, int]:
        """1-based (line, column) of offset ``pos``."""
        newline = self.text.rfind("\n", self._seen, pos)
        if newline >= 0:
            self._line += self.text.count("\n", self._seen, pos)
            self._line_start = newline + 1
        self._seen = pos
        return self._line, pos - self._line_start + 1

    def error(self, message: str, pos: int) -> XmlError:
        return XmlError(message, *self.locate(pos))


def _normalize_line_endings(text: str) -> str:
    """XML end-of-line handling: literal ``\\r\\n`` and bare ``\\r``
    become ``\\n`` on input.  Only *literal* characters normalize —
    ``&#13;`` survives, which is how the serializer round-trips stored
    carriage returns byte-identically."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_entity(src: _Source, pos: int) -> tuple[str, int]:
    """Resolve the reference whose ``&`` is at ``pos``; returns the
    character and the offset after the ``;``."""
    end = src.text.find(";", pos + 1)
    if end < 0:
        raise src.error("unterminated entity reference", pos + 1)
    body = src.text[pos + 1:end]
    end += 1
    predefined = _PREDEFINED_ENTITIES.get(body)
    if predefined is not None:
        return predefined, end
    echo = body
    if len(echo) > _ENTITY_ECHO_MAX:
        echo = echo[:_ENTITY_ECHO_MAX] + "..."
    if not body.startswith("#"):
        raise src.error(f"unknown entity &{echo};", end)
    if body[1:2] in ("x", "X"):
        digits, base, kind = body[2:], 16, "hexadecimal"
    else:
        digits, base, kind = body[1:], 10, "decimal"
    try:
        code = int(digits, base)
        char = chr(code)
    except (ValueError, OverflowError):
        raise src.error(
            f"bad {kind} character reference &{echo};", end) from None
    if _NON_CHAR.match(char):
        raise src.error(f"character reference &{echo}; is not a legal "
                        "XML character", end)
    return char, end


def _read_attribute_value(src: _Source, pos: int) -> tuple[str, int]:
    """Read the quoted value starting at ``pos``; returns it and the
    offset after the closing quote."""
    text = src.text
    quote = text[pos:pos + 1]
    if quote not in ("'", '"'):
        raise src.error("attribute value must be quoted", pos)
    run = _VALUE_RUN[quote]
    parts: list[str] = []
    pos += 1
    while True:
        match = run.match(text, pos)
        parts.append(match.group())
        pos = match.end()
        ch = text[pos:pos + 1]
        if ch == quote:
            return "".join(parts), pos + 1
        if not ch:
            raise src.error("unterminated attribute value", pos)
        if ch == "<":
            raise src.error("'<' not allowed in attribute value", pos)
        if ch == "&":
            # Characters from references are exempt from normalization.
            char, pos = _read_entity(src, pos)
            parts.append(char)
        else:
            # Attribute-value normalization: literal whitespace becomes
            # a space (an \r\n pair one space, after line-ending
            # normalization).  The serializer writes these characters as
            # references, which survive.
            pos += 2 if text.startswith("\r\n", pos) else 1
            parts.append(" ")


def _read_attributes(src: _Source, name: str, pos: int
                     ) -> tuple[tuple[tuple[str, str], ...], str, int]:
    """Read attributes up to the end of start tag ``<name``; returns
    (attributes, ``">"`` or ``"/>"``, offset after the tag)."""
    text = src.text
    attributes: list[tuple[str, str]] = []
    seen: set[str] = set()
    while True:
        if pos >= len(text):
            raise src.error(f"unterminated start tag <{name}", pos)
        head = _ATTRIBUTE_HEAD.match(text, pos)
        attr_name = head.group(1)
        if not _valid_name(attr_name):
            raise src.error(
                f"expected a name, found {text[pos:pos + 1]!r}", pos)
        if attr_name in seen:
            raise src.error(f"duplicate attribute {attr_name!r}",
                            head.end(1))
        seen.add(attr_name)
        if head.group(2) is None:
            raise src.error("expected '='", head.end())
        value, pos = _read_attribute_value(src, head.end())
        attributes.append((attr_name, value))
        tail = _TAG_TAIL.match(text, pos)
        pos = tail.end()
        if tail.group(1):
            return tuple(attributes), tail.group(1), pos


def _skip_doctype(src: _Source, pos: int) -> int:
    """Skip to the ``>`` matching ``<!DOCTYPE``, allowing one
    internal-subset bracket pair; full DTD parsing is out of scope."""
    depth = 0
    while True:
        step = _DOCTYPE_STEP.match(src.text, pos)
        if step is None:
            raise src.error("unterminated DOCTYPE", len(src.text))
        pos = step.end()
        delimiter = step.group(1)
        if delimiter == "[":
            depth += 1
        elif delimiter == "]":
            depth -= 1
        elif depth <= 0:
            return pos


def iterparse(text: str) -> Iterator[XmlEvent]:
    """Stream events from XML ``text``.

    Yields :class:`StartDocument`, then tag/text events, then
    :class:`EndDocument`.  Raises :class:`~repro.errors.XmlError` on
    malformed input, including unbalanced tags and trailing garbage; a
    literal character outside XML's ``Char`` production anywhere in
    ``text`` is reported before the first event.
    """
    src = _Source(text)
    illegal = _NON_CHAR.search(text)
    if illegal is not None:
        raise src.error(f"character U+{ord(illegal.group()):04X} is not a "
                        "legal XML character", illegal.start())
    locate = src.locate
    length = len(text)
    yield StartDocument(line=1, column=1)

    open_tags: list[str] = []
    seen_root = False
    # Adjacent text, references and CDATA coalesce into one Characters
    # event positioned at the first piece; only kept inside the root.
    pending: list[str] = []
    pending_at = (0, 0)

    def skip_past(terminator: str, start: int, what: str) -> int:
        end = text.find(terminator, start)
        if end < 0:
            raise src.error(f"unterminated {what}", start)
        return end + len(terminator)

    pos = 0
    while pos < length:
        ch = text[pos]
        if ch == "<":
            marker = text[pos + 1:pos + 2]
            if marker == "!" and text.startswith("<![CDATA[", pos):
                if not open_tags:
                    raise src.error("CDATA outside the root element", pos)
                if not pending:
                    pending_at = locate(pos)
                start = pos + 9
                pos = skip_past("]]>", start, "CDATA section")
                pending.append(_normalize_line_endings(text[start:pos - 3]))
                continue
            # Any other markup ends the current text run.
            if pending:
                yield Characters("".join(pending), line=pending_at[0],
                                 column=pending_at[1])
                pending.clear()
            if marker == "/":
                line, column = locate(pos)
                tag = _END_TAG.match(text, pos)
                name = tag.group(1)
                if not _valid_name(name):
                    raise src.error("expected a name, found "
                                    f"{text[pos + 2:pos + 3]!r}", pos + 2)
                if tag.group(2) is None:
                    raise src.error("expected '>'", tag.end())
                if not open_tags:
                    raise XmlError(f"closing tag </{name}> with no open "
                                   "element", line, column)
                expected = open_tags.pop()
                if name != expected:
                    raise XmlError(f"mismatched closing tag </{name}>, "
                                   f"expected </{expected}>", line, column)
                pos = tag.end()
                yield EndElement(name, line=line, column=column)
                if not open_tags:
                    seen_root = True
                continue
            if marker == "?":
                pos = skip_past("?>", pos + 2, "processing instruction")
                continue
            if marker == "!":
                if text.startswith("<!--", pos):
                    pos = skip_past("-->", pos + 4, "comment")
                    continue
                if text.startswith("<!DOCTYPE", pos):
                    pos = _skip_doctype(src, pos + 9)
                    continue
            # Plain start tag.
            line, column = locate(pos)
            head = _TAG_HEAD.match(text, pos + 1)
            name = head.group(1)
            if not open_tags and seen_root:
                raise XmlError("multiple root elements", line, column)
            if not _valid_name(name):
                raise src.error(
                    "malformed markup" if open_tags else
                    f"expected a name, found {marker!r}", pos + 1)
            close = head.group(2)
            pos = head.end()
            attributes: tuple[tuple[str, str], ...] = ()
            if close is None:
                attributes, close, pos = _read_attributes(src, name, pos)
            yield StartElement(name, attributes, line=line, column=column)
            if close == "/>":
                yield EndElement(name, line=line, column=column)
                if not open_tags:
                    seen_root = True
            else:
                open_tags.append(name)
        elif ch == "&":
            if not open_tags:
                raise src.error("entity reference outside the root element",
                                pos)
            if not pending:
                pending_at = locate(pos)
            char, pos = _read_entity(src, pos)
            pending.append(char)
        else:
            end = _TEXT_RUN.match(text, pos).end()
            chunk = text[pos:end]
            if open_tags:
                if not pending:
                    pending_at = locate(pos)
                pending.append(_normalize_line_endings(chunk))
            elif chunk.strip():
                # Whitespace around the root is fine and dropped.
                raise src.error("text content outside the root element", pos)
            pos = end

    if pending:
        yield Characters("".join(pending), line=pending_at[0],
                         column=pending_at[1])
    if open_tags:
        raise src.error(f"unclosed element <{open_tags[-1]}>", length)
    if not seen_root:
        raise src.error("document has no root element", length)
    line, column = locate(length)
    yield EndDocument(line=line, column=column)


def iterparse_file(path: str) -> Iterator[XmlEvent]:
    """Stream events from the UTF-8 file at ``path``.

    The file is read fully into memory before tokenizing; the documents this
    library targets (scaled DBLP/TREEBANK) comfortably fit, while the *tree*
    they would expand into is what milestone 2 avoids materialising.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    yield from iterparse(text)
