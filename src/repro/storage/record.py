"""Tuple and key codecs.

Two encodings live here:

* :class:`RecordCodec` — compact, schema-driven serialization of value
  tuples (used for B+-tree values);
* :func:`encode_key` / :func:`decode_key` — an **order-preserving** byte
  encoding for composite keys, so the B+-tree can compare keys with plain
  ``bytes`` comparison.

Key encoding rules (all big-endian):

* unsigned 32-bit ints → 4 bytes (``memcmp`` order = numeric order);
* strings → UTF-8 with every ``0x00`` escaped as ``0x00 0xFF``, terminated
  by ``0x00 0x00``.  This keeps prefix ordering correct for composite keys
  (a shorter string sorts before any extension of it).
"""

from __future__ import annotations

import struct

from repro.errors import StorageError

#: Column type tags understood by the codecs.
U8 = "u8"
U32 = "u32"
STR = "str"

_VALID_TYPES = (U8, U32, STR)


class RecordCodec:
    """Serialize/deserialize tuples for a fixed column-type schema.

    Example::

        codec = RecordCodec(["u32", "u32", "u32", "u8", "str"])  # XASR
        raw = codec.encode((2, 17, 1, 1, "journal"))
        codec.decode(raw)  # -> (2, 17, 1, 1, "journal")
    """

    def __init__(self, column_types: list[str]):
        for column_type in column_types:
            if column_type not in _VALID_TYPES:
                raise StorageError(f"unknown column type {column_type!r}")
        self.column_types = tuple(column_types)

    def encode(self, values: tuple) -> bytes:
        if len(values) != len(self.column_types):
            raise StorageError(
                f"arity mismatch: {len(values)} values for "
                f"{len(self.column_types)} columns")
        parts: list[bytes] = []
        for column_type, value in zip(self.column_types, values, strict=True):
            if column_type == U8:
                parts.append(struct.pack(">B", value))
            elif column_type == U32:
                parts.append(struct.pack(">I", value))
            else:
                raw = value.encode("utf-8")
                parts.append(struct.pack(">I", len(raw)))
                parts.append(raw)
        return b"".join(parts)

    def decode(self, raw: bytes | memoryview) -> tuple:
        values: list = []
        offset = 0
        raw = bytes(raw)
        for column_type in self.column_types:
            if column_type == U8:
                values.append(raw[offset])
                offset += 1
            elif column_type == U32:
                (value,) = struct.unpack_from(">I", raw, offset)
                values.append(value)
                offset += 4
            else:
                (length,) = struct.unpack_from(">I", raw, offset)
                offset += 4
                values.append(raw[offset:offset + length].decode("utf-8"))
                offset += length
        if offset != len(raw):
            raise StorageError(f"record has {len(raw) - offset} trailing "
                               "bytes")
        return tuple(values)


class KeyCodec:
    """Order-preserving codec for a fixed composite-key schema."""

    def __init__(self, column_types: list[str]):
        for column_type in column_types:
            if column_type not in (U32, STR):
                raise StorageError(
                    f"key columns must be u32 or str, got {column_type!r}")
        self.column_types = tuple(column_types)

    def encode(self, values: tuple) -> bytes:
        if len(values) != len(self.column_types):
            raise StorageError(
                f"arity mismatch: {len(values)} values for "
                f"{len(self.column_types)} key columns")
        return encode_key(values, self.column_types)

    def decode(self, raw: bytes) -> tuple:
        return decode_key(raw, self.column_types)


def encode_key(values: tuple, column_types: tuple[str, ...] | None = None
               ) -> bytes:
    """Encode a composite key so that ``bytes`` order equals tuple order.

    Types are inferred from Python values when ``column_types`` is omitted
    (ints must fit in u32).
    """
    if column_types is None:
        column_types = tuple(U32 if isinstance(v, int) else STR
                             for v in values)
    parts: list[bytes] = []
    for column_type, value in zip(column_types, values, strict=True):
        if column_type == U32:
            if not 0 <= value <= 0xFFFFFFFF:
                raise StorageError(f"key int {value} out of u32 range")
            parts.append(struct.pack(">I", value))
        else:
            encoded = value.encode("utf-8").replace(b"\x00", b"\x00\xff")
            parts.append(encoded + b"\x00\x00")
    return b"".join(parts)


def decode_key(raw: bytes, column_types: tuple[str, ...] | list[str]
               ) -> tuple:
    """Invert :func:`encode_key` for a known schema."""
    values: list = []
    offset = 0
    for column_type in column_types:
        if column_type == U32:
            (value,) = struct.unpack_from(">I", raw, offset)
            values.append(value)
            offset += 4
        else:
            chunks: list[bytes] = []
            while True:
                zero = raw.index(b"\x00", offset)
                if raw[zero:zero + 2] == b"\x00\xff":
                    chunks.append(raw[offset:zero] + b"\x00")
                    offset = zero + 2
                    continue
                if raw[zero:zero + 2] == b"\x00\x00":
                    chunks.append(raw[offset:zero])
                    offset = zero + 2
                    break
                raise StorageError("malformed string key")
            values.append(b"".join(chunks).decode("utf-8"))
    if offset != len(raw):
        raise StorageError("trailing bytes in key")
    return tuple(values)


def key_prefix_upper_bound(prefix: bytes) -> bytes:
    """Smallest byte string greater than every key starting with ``prefix``.

    Used to turn "all keys with this prefix" into a half-open range scan.
    """
    return prefix + b"\xff" * 8
