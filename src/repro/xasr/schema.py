"""XASR relational schema and physical encodings.

Record layout (see :class:`~repro.storage.record.RecordCodec`)::

    in        u32   preorder entry number (primary key)
    out       u32   preorder exit number
    parent_in u32   in-value of the parent (0 for the virtual root)
    type      u8    0 = root, 1 = element, 2 = text
    val_kind  u8    0 = value inline, 1 = value in the overflow store
    value     str   label / text / "" for the root;
                    for val_kind = 1: "head_page:length"

Key layouts (order-preserving; byte-for-byte what the generic
:func:`~repro.storage.record.encode_key` produces, built here with
precompiled structs because every lookup and every loaded node makes
one)::

    primary:       (in)
    label index:   (type, value, in)     value truncated for overflow texts
    parent index:  (parent_in, in)
    value index:   (value, elem_in, text_in)   one B+-tree per indexed label

A secondary **value index** (created with ``XmlDbms.create_index``) maps
the text content of elements carrying one label to the element's
in-interval: one entry per child text node, keyed by the (truncated)
text value, then the parent element's ``in`` (so equality scans stream
elements in document order), then the text node's ``in`` (the unique
tie-breaker that makes maintenance under updates exact).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import StorageError
from repro.storage.record import RecordCodec

#: XASR ``type`` values, as in Example 1 of the paper.
ROOT = 0
ELEMENT = 1
TEXT = 2

TYPE_NAMES = {ROOT: "root", ELEMENT: "element", TEXT: "text"}

#: Values longer than this are stored in the overflow store.  The label
#: index only sees the first :data:`VALUE_INDEX_PREFIX` characters of such
#: values, which is sound because XQ only ever compares *whole* text values
#: fetched from the record, never from the index key.
VALUE_INLINE_MAX = 1024
VALUE_INDEX_PREFIX = 64

#: Codec for XASR records.
RECORD_CODEC = RecordCodec(["u32", "u32", "u32", "u8", "u8", "str"])

#: The record's fixed-width prefix (five scalar columns plus the string
#: length), precompiled for the scan and load hot paths.
_RECORD_HEAD = struct.Struct(">IIIBBI")


def decode_record(raw: bytes | memoryview
                  ) -> tuple[int, int, int, int, int, str]:
    """Decode one XASR record; fast path of ``RECORD_CODEC.decode``.

    The generic codec walks the column-type list with one
    ``struct.unpack_from`` per scalar; block-at-a-time scans decode
    thousands of records per batch, so this specialisation reads the
    whole fixed-width prefix with a single precompiled struct call.
    Output and error behaviour match ``RECORD_CODEC.decode`` exactly.
    """
    raw = bytes(raw)
    in_, out, parent_in, node_type, val_kind, length = \
        _RECORD_HEAD.unpack_from(raw, 0)
    end = _RECORD_HEAD.size + length
    if end != len(raw):
        raise StorageError(f"record has {len(raw) - end} trailing bytes")
    value = raw[_RECORD_HEAD.size:end].decode("utf-8")
    return in_, out, parent_in, node_type, val_kind, value


def encode_record(in_: int, out: int, parent_in: int, node_type: int,
                  val_kind: int, raw_value: bytes) -> bytes:
    """Encode one XASR record from its already-UTF-8 value; fast path of
    ``RECORD_CODEC.encode``, byte-identical to it."""
    return _RECORD_HEAD.pack(in_, out, parent_in, node_type, val_kind,
                             len(raw_value)) + raw_value


_KEY_VALUE = ("str", "u32", "u32")


class XasrNode(NamedTuple):
    """One decoded XASR tuple (value already resolved from overflow)."""

    in_: int
    out: int
    parent_in: int
    type: int
    value: str

    @property
    def is_element(self) -> bool:
        return self.type == ELEMENT

    @property
    def is_text(self) -> bool:
        return self.type == TEXT

    @property
    def is_root(self) -> bool:
        return self.type == ROOT

    @property
    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here (self included)."""
        return (self.out - self.in_ + 1) // 2

    def contains(self, other: "XasrNode") -> bool:
        """Ancestor test via the interval property."""
        return self.in_ < other.in_ and other.out < self.out

    def describe(self) -> str:
        """Human-readable rendering, as in Example 1 of the paper."""
        value = "NULL" if self.is_root else self.value
        return (f"({self.in_}, {self.out}, {self.parent_in}, "
                f"{TYPE_NAMES[self.type]}, {value})")


# -- object naming conventions ------------------------------------------------


def table_name(document: str) -> str:
    """Catalog name of a document's primary (clustered) B+-tree."""
    return f"xasr:{document}:primary"


def index_label_name(document: str) -> str:
    """Catalog name of the ``(type, value, in)`` secondary index."""
    return f"xasr:{document}:label"


def index_parent_name(document: str) -> str:
    """Catalog name of the ``(parent_in, in)`` secondary index."""
    return f"xasr:{document}:parent"


def stats_name(document: str) -> str:
    """Catalog name of a document's statistics metadata."""
    return f"stats:{document}"


def value_index_name(document: str, label: str) -> str:
    """Catalog name of the per-label ``(value, elem_in, text_in)``
    secondary value index."""
    return f"xasr:{document}:vindex:{label}"


def value_index_catalog_name(document: str) -> str:
    """Catalog name of the metadata entry listing a document's value
    indexes (payload ``{"labels": [...]}``).

    Written only after an index build completes, so it doubles as the
    build's completeness marker: a crash mid-build leaves orphan pages
    but never a half-visible index.
    """
    return f"vindex:{document}"


# -- key encoders ----------------------------------------------------------------
#
# u32 columns are 4 big-endian bytes; a str column is its UTF-8 with
# every 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x00 — so a
# (type, value) prefix is a clean prefix of every (type, value, in) key.

_U32 = struct.Struct(">I")
_U32_PAIR = struct.Struct(">II")

#: One u32 as key bytes; the primary key of ``in`` and the prefix of a
#: parent's entries in the parent index.
primary_key = parent_prefix = _U32.pack
#: ``(parent_in, in)``.
parent_key = _U32_PAIR.pack
#: The same bytes from the single integer ``parent_in << 32 | in``, whose
#: numeric order is therefore the key order (the loader sorts these).
PARENT_KEY_U64 = struct.Struct(">Q")


def _key_str(value: str) -> bytes:
    return value.encode("utf-8").replace(b"\x00", b"\x00\xff") + b"\x00\x00"


def label_key(type_: int, value: str, in_: int) -> bytes:
    return _U32.pack(type_) + _key_str(value) + _U32.pack(in_)


def label_prefix(type_: int, value: str | None = None) -> bytes:
    """Prefix of label-index keys for a node type (and optionally value)."""
    if value is None:
        return _U32.pack(type_)
    return _U32.pack(type_) + _key_str(value)


def value_key(value: str, elem_in: int, text_in: int) -> bytes:
    """Value-index key; ``value`` is truncated like label-index keys."""
    return _key_str(index_value(value)) + _U32_PAIR.pack(elem_in, text_in)


def value_prefix(value: str) -> bytes:
    """Prefix of value-index keys for one (truncated) value: exactly the
    ``(value, *, *)`` keys, the string being terminator-delimited."""
    return _key_str(index_value(value))


def decode_value_key(key: bytes) -> tuple[str, int, int]:
    """Decode a value-index key into (truncated value, elem_in, text_in)."""
    from repro.storage.record import decode_key

    value, elem_in, text_in = decode_key(key, _KEY_VALUE)
    return value, elem_in, text_in


def index_value(value: str) -> str:
    """The (possibly truncated) value stored in label-index keys."""
    if len(value) > VALUE_INDEX_PREFIX:
        return value[:VALUE_INDEX_PREFIX]
    return value
