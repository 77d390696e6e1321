"""Chained overflow pages for values larger than a page can hold.

XASR ``value`` columns are usually short (labels, author names), but text
nodes can in principle exceed the page size.  Rather than cap record size,
long byte strings are spilled into a chain of overflow pages and the record
stores a fixed-size token ``(first_page_id, total_length)``.

Layout of an overflow page::

    next_page_id : u32   (0 = end of chain)
    chunk_length : u16
    chunk bytes ...
"""

from __future__ import annotations

import struct

from repro.errors import StorageError
from repro.storage.buffer import BufferPool

_HEADER = struct.Struct(">IH")


class OverflowStore:
    """Store and retrieve long byte strings in page chains."""

    def __init__(self, buffer_pool: BufferPool):
        self.buffer_pool = buffer_pool
        self._chunk_capacity = buffer_pool.pager.page_size - _HEADER.size

    def store(self, data: bytes) -> tuple[int, int]:
        """Write ``data`` into a fresh chain; returns ``(head_page, length)``."""
        if not data:
            raise StorageError("refusing to store an empty overflow value")
        chunks = [data[i:i + self._chunk_capacity]
                  for i in range(0, len(data), self._chunk_capacity)]
        page_size = self.buffer_pool.pager.page_size
        # Build the chain back-to-front so each page knows its successor.
        next_page = 0
        for chunk in reversed(chunks):
            image = _HEADER.pack(next_page, len(chunk)) + chunk
            next_page = self.buffer_pool.new_page(
                image.ljust(page_size, b"\0"))
        return next_page, len(data)

    def load(self, head_page: int, length: int) -> bytes:
        """Read a stored value back."""
        parts: list[bytes] = []
        page_id = head_page
        remaining = length
        while page_id != 0:
            with self.buffer_pool.pinned(page_id) as page:
                next_page, chunk_length = _HEADER.unpack_from(page, 0)
                parts.append(bytes(page[_HEADER.size:
                                        _HEADER.size + chunk_length]))
            remaining -= chunk_length
            page_id = next_page
        if remaining != 0:
            raise StorageError(
                f"overflow chain at page {head_page} has wrong length "
                f"(off by {remaining} bytes)")
        return b"".join(parts)

    def load_prefix(self, head_page: int) -> bytes:
        """The first chunk of a chain, without walking the rest.

        Enough for any fixed-length prefix shorter than a page — e.g.
        rebuilding truncated label-index keys while rekeying records —
        where loading the whole value would make the operation scale
        with value size instead of prefix size.
        """
        with self.buffer_pool.pinned(head_page) as page:
            __, chunk_length = _HEADER.unpack_from(page, 0)
            return bytes(page[_HEADER.size:_HEADER.size + chunk_length])

    def free(self, head_page: int) -> None:
        """Release every page of a chain back to the free list."""
        page_id = head_page
        while page_id != 0:
            with self.buffer_pool.pinned(page_id) as page:
                (next_page,) = struct.unpack_from(">I", page, 0)
            self.buffer_pool.free_page(page_id)
            page_id = next_page
