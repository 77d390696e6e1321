"""A native paged storage manager (the Berkeley DB substitute).

The course used the publicly available Berkeley DB distribution as its
storage manager.  That library is closed-source C and out of scope here, so
this package implements the equivalent substrate from scratch:

* :mod:`~repro.storage.pager` — a page-addressed file with a free list;
* :mod:`~repro.storage.buffer` — a buffer pool with pinning, LRU eviction,
  dirty write-back, and hit/miss/read/write accounting (the unit of the
  milestone-4 cost model);
* :mod:`~repro.storage.record` — order-preserving tuple/key codecs;
* :mod:`~repro.storage.overflow` — chained overflow pages for long values;
* :mod:`~repro.storage.btree` — a disk B+-tree with point lookup, in-order
  range scans (the clustered-access path for descendant ranges), insertion
  and sorted bulk-loading;
* :mod:`~repro.storage.db` — the database facade tying it together with a
  persistent catalog.

Every page is written as a whole immutable image
(``BufferPool.new_page`` / ``put_page``) by a loader or a write
transaction.  Queries only read: the paper notes that the public Berkeley
DB "does not directly support block-based writing, only block-based
reading", which got in the way of textbook external sort, and the
external-sort operator in :mod:`repro.physical.sort` writes its runs in
blocks — to a private temporary file beside the database
(:mod:`repro.physical.spill`), not into it.
"""

from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.db import Database
from repro.storage.pager import PAGE_SIZE, Pager
from repro.storage.record import (
    KeyCodec,
    RecordCodec,
    decode_key,
    encode_key,
)

__all__ = [
    "PAGE_SIZE",
    "Pager",
    "BufferPool",
    "BufferStats",
    "BTree",
    "Database",
    "RecordCodec",
    "KeyCodec",
    "encode_key",
    "decode_key",
]
