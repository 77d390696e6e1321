"""A disk-resident B+-tree.

This is the index structure of milestone 4 ("students added ... B+-tree
index structures on the XASR relations") and, because the XASR table itself
is stored as a B+-tree clustered on ``in``, also the primary access path of
milestone 2.

Properties:

* keys and values are arbitrary byte strings (use
  :func:`repro.storage.record.encode_key` for order-preserving composite
  keys);
* keys are unique — composite keys embed a tie-breaker column (e.g. the
  node's in-value) where duplicates are possible;
* leaves are chained left-to-right, so in-order range scans are sequential
  (this is what makes "descendants of x" = one clustered range scan);
* sorted bulk-loading builds compact trees bottom-up at load time;
* node sizes are accounted incrementally — a running byte count while
  packing, ``size`` as a by-product of every (de)serialisation — so no
  fit test ever re-measures a whole node;
* every page access goes through the buffer pool, so index I/O is counted
  by the same meter the cost model estimates against.

Pages are copy-on-write: a writer edits a private copy of the decoded
node, serialises it into a fresh page image and publishes image and
node together (:meth:`~repro.storage.buffer.BufferPool.put_page`), so a
buffer or node that a reader already holds never changes.  Decoded
nodes are owned by the pool *frame* of the live page they mirror: shared
by every tree instance, gone with the frame.

Tree identity: a B+-tree is named by its **meta page** id.  The meta page
stores the root page id, height and entry count, so structural changes
(root splits) never require catalog updates.

Concurrency: a tree instance is not a synchronisation point — it holds
no lock.  Readers run under a pinned snapshot bound to their thread
(:meth:`~repro.storage.buffer.BufferPool.reading`): every node they
fetch is the version committed at their pin, so a traversal or a
long-lived scan generator is never shown a half-applied split, and
never waits for a writer.  Writers are serialised by their callers —
:meth:`Database.transaction <repro.storage.db.Database.transaction>`
admits one at a time, and the catalog tree is additionally guarded by
the database lock.  Reading through an instance *while another thread
writes the same tree, outside that protocol*, is unsupported, as are
concurrent writers through different instances (instances share
decoded nodes but not their meta fields).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from repro.errors import BTreeError
from repro.storage.buffer import BufferPool

_META = struct.Struct(">4sIIQ")  # magic, root, height, entry count
_META_MAGIC = b"BTRE"
_NODE_HEADER = struct.Struct(">BH")  # type, count
_LEAF_NEXT = struct.Struct(">I")
_LEN = struct.Struct(">H")
_LEAF_LENS = struct.Struct(">HH")  # key length, value length
_CHILD = struct.Struct(">I")

_LEAF = 1
_INTERNAL = 0

#: Serialized bytes of an empty leaf, of one leaf entry's framing, of an
#: internal node with one child, and of each further key's framing + child.
_LEAF_BASE = _NODE_HEADER.size + _LEAF_NEXT.size
_LEAF_ENTRY = _LEAF_LENS.size
_INTERNAL_BASE = _NODE_HEADER.size + _CHILD.size
_INTERNAL_ENTRY = _LEN.size + _CHILD.size


class _Node:
    """Deserialized node. ``page_id`` ties it back to its buffer page.

    Nodes read from the pool are shared and frozen (tuple fields); a
    writer changes a private :meth:`editable` copy (list fields), which
    ``_write_node`` freezes and publishes with its page image.

    ``size`` is the serialized byte count as of the last read or write;
    a fit test adds the new entry's bytes to it.
    """

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children",
                 "next_leaf", "size")

    def __init__(self, page_id: int, is_leaf: bool, keys=(), values=(),
                 children=(), next_leaf: int = 0, size: int = 0):
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[bytes] = list(keys)
        self.values: list[bytes] = list(values)      # leaf only
        self.children: list[int] = list(children)    # internal only
        self.next_leaf = next_leaf                   # leaf only
        self.size = size

    def editable(self) -> "_Node":
        return _Node(self.page_id, self.is_leaf, self.keys, self.values,
                     self.children, self.next_leaf, self.size)

    def freeze(self) -> "_Node":
        self.keys = tuple(self.keys)
        self.values = tuple(self.values)
        self.children = tuple(self.children)
        return self

    def image(self, page_size: int) -> bytes:
        """The node's page image (zero-padded); sets ``size``.

        Raises if the node does not fit — this is the one overflow
        check of every node write.
        """
        count = len(self.keys)
        parts = [_NODE_HEADER.pack(_LEAF if self.is_leaf else _INTERNAL,
                                   count)]
        if self.is_leaf:
            parts.append(_LEAF_NEXT.pack(self.next_leaf))
            lens = _LEAF_LENS.pack
            for key, value in zip(self.keys, self.values, strict=True):
                parts += (lens(len(key), len(value)), key, value)
        else:
            parts.append(struct.pack(f">{count + 1}I", *self.children))
            length = _LEN.pack
            for key in self.keys:
                parts += (length(len(key)), key)
        image = b"".join(parts)
        if len(image) > page_size:
            raise BTreeError("node exceeds page capacity after write")
        self.size = len(image)
        return image.ljust(page_size, b"\0")

    @classmethod
    def deserialize(cls, page_id: int, page: bytes) -> "_Node":
        node_type, count = _NODE_HEADER.unpack_from(page, 0)
        offset = _NODE_HEADER.size
        node = cls(page_id, node_type == _LEAF)
        if node.is_leaf:
            (node.next_leaf,) = _LEAF_NEXT.unpack_from(page, offset)
            offset += _LEAF_NEXT.size
            for __ in range(count):
                klen, vlen = _LEAF_LENS.unpack_from(page, offset)
                offset += _LEAF_LENS.size
                node.keys.append(bytes(page[offset:offset + klen]))
                offset += klen
                node.values.append(bytes(page[offset:offset + vlen]))
                offset += vlen
        else:
            for __ in range(count + 1):
                (child,) = _CHILD.unpack_from(page, offset)
                node.children.append(child)
                offset += _CHILD.size
            for __ in range(count):
                (klen,) = _LEN.unpack_from(page, offset)
                offset += _LEN.size
                node.keys.append(bytes(page[offset:offset + klen]))
                offset += klen
        node.size = offset
        return node.freeze()


class BTree:
    """A B+-tree identified by its meta page.

    Create with :meth:`create`, reopen with ``BTree(buffer_pool,
    meta_page_id)``.
    """

    def __init__(self, buffer_pool: BufferPool, meta_page_id: int):
        self.buffer_pool = buffer_pool
        self.meta_page_id = meta_page_id
        self._load_meta()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(cls, buffer_pool: BufferPool) -> "BTree":
        """Allocate an empty tree (one empty leaf, then the meta page)."""
        page_size = buffer_pool.pager.page_size
        # A node's image does not hold its own page id.
        root_id = buffer_pool.new_page(_Node(0, is_leaf=True).image(page_size))
        meta_id = buffer_pool.new_page(
            _META.pack(_META_MAGIC, root_id, 1, 0).ljust(page_size, b"\0"))
        return cls(buffer_pool, meta_id)

    # -- meta page ---------------------------------------------------------------

    def _load_meta(self) -> None:
        page = self.buffer_pool.get_page(self.meta_page_id, pin=False)
        magic, root, height, count = _META.unpack_from(page, 0)
        if magic != _META_MAGIC:
            raise BTreeError(f"page {self.meta_page_id} is not a B+-tree "
                             "meta page")
        self.root_page_id = root
        self.height = height
        self.entry_count = count

    def _save_meta(self) -> None:
        record = _META.pack(_META_MAGIC, self.root_page_id, self.height,
                            self.entry_count)
        self.buffer_pool.put_page(
            self.meta_page_id, record.ljust(self._max_node_size(), b"\0"))

    # -- node access ---------------------------------------------------------------

    def _read_node(self, page_id: int) -> _Node:
        pool = self.buffer_pool
        node = pool.decoded(page_id)
        if node is None:
            page = pool.get_page(page_id, pin=False)
            node = _Node.deserialize(page_id, page)
            # Ignored unless ``page`` is still the live buffer.
            pool.publish_decoded(page_id, page, node)
        return node

    def _write_node(self, node: _Node) -> None:
        image = node.image(self._max_node_size())
        self.buffer_pool.put_page(node.page_id, image, node.freeze())

    def _new_node(self, is_leaf: bool, **fields) -> _Node:
        # Blank until the caller's ``_write_node``: the node's content
        # usually depends on the id handed out here.
        page_id = self.buffer_pool.new_page(bytes(self._max_node_size()))
        return _Node(page_id, is_leaf, **fields)

    def _max_node_size(self) -> int:
        return self.buffer_pool.pager.page_size

    # -- lookup -------------------------------------------------------------------

    def _descend_to_leaf(self, key: bytes) -> _Node:
        node = self._read_node(self.root_page_id)
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            node = self._read_node(node.children[index])
        return node

    def search(self, key: bytes) -> bytes | None:
        """Point lookup; returns the value or ``None``."""
        leaf = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    def range_scan(self, low: bytes | None = None, high: bytes | None = None,
                   include_low: bool = True, include_high: bool = True
                   ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``low ≤/< key ≤/< high``.

        ``None`` bounds are open-ended.  Keys stream in ascending order via
        the leaf chain.  A scan that must stay consistent across writes
        runs under a bound snapshot (see the module docstring).
        """
        if low is None:
            leaf = self._leftmost_leaf()
            index = 0
        else:
            leaf = self._descend_to_leaf(low)
            index = (bisect_left(leaf.keys, low) if include_low
                     else bisect_right(leaf.keys, low))
        while True:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None:
                    if include_high:
                        if key > high:
                            return
                    elif key >= high:
                        return
                yield key, leaf.values[index]
                index += 1
            if leaf.next_leaf == 0:
                return
            leaf = self._read_node(leaf.next_leaf)
            index = 0

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """All entries whose key starts with ``prefix``, in order."""
        for key, value in self.range_scan(low=prefix, include_low=True):
            if not key.startswith(prefix):
                return
            yield key, value

    def _leftmost_leaf(self) -> _Node:
        node = self._read_node(self.root_page_id)
        while not node.is_leaf:
            node = self._read_node(node.children[0])
        return node

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Full in-order scan."""
        return self.range_scan()

    def __len__(self) -> int:
        return self.entry_count

    # -- insertion --------------------------------------------------------------

    def insert(self, key: bytes, value: bytes, replace: bool = False) -> None:
        """Insert a unique key.

        ``replace=True`` overwrites an existing key; otherwise a duplicate
        raises :class:`~repro.errors.BTreeError`.
        """
        if len(key) + len(value) + 64 > self._max_node_size():
            raise BTreeError(
                f"entry of {len(key) + len(value)} bytes cannot fit in a "
                f"{self._max_node_size()}-byte page; use the overflow store")
        split = self._insert_into(self.root_page_id, key, value, replace)
        if split is not None:
            separator, right_id = split
            new_root = self._new_node(
                False, keys=[separator],
                children=[self.root_page_id, right_id])
            self._write_node(new_root)
            self.root_page_id = new_root.page_id
            self.height += 1
        self._save_meta()

    def _insert_into(self, page_id: int, key: bytes, value: bytes,
                     replace: bool) -> tuple[bytes, int] | None:
        node = self._read_node(page_id)
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                if not replace:
                    raise BTreeError(f"duplicate key {key!r}")
                node = node.editable()
                node.values[index] = value
                self._write_node(node)
                return None
            node = node.editable()
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self.entry_count += 1
            grown = node.size + _LEAF_ENTRY + len(key) + len(value)
            if grown <= self._max_node_size():
                self._write_node(node)
                return None
            return self._split_leaf(node)
        index = bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value, replace)
        if split is None:
            return None
        separator, right_id = split
        node = node.editable()
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right_id)
        grown = node.size + _INTERNAL_ENTRY + len(separator)
        if grown <= self._max_node_size():
            self._write_node(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> tuple[bytes, int]:
        middle = self._split_point(node)
        right = self._new_node(True, keys=node.keys[middle:],
                               values=node.values[middle:],
                               next_leaf=node.next_leaf)
        del node.keys[middle:], node.values[middle:]
        node.next_leaf = right.page_id
        self._write_node(node)
        self._write_node(right)
        return right.keys[0], right.page_id

    def _split_internal(self, node: _Node) -> tuple[bytes, int]:
        middle = self._split_point(node)
        separator = node.keys[middle]
        right = self._new_node(False, keys=node.keys[middle + 1:],
                               children=node.children[middle + 1:])
        del node.keys[middle:], node.children[middle + 1:]
        self._write_node(node)
        self._write_node(right)
        return separator, right.page_id

    @staticmethod
    def _split_point(node: _Node) -> int:
        """Index splitting entries into roughly equal serialized halves."""
        total = sum(len(k) for k in node.keys)
        if node.is_leaf:
            total += sum(len(v) for v in node.values)
        half = total // 2
        running = 0
        for index, key in enumerate(node.keys):
            running += len(key)
            if node.is_leaf:
                running += len(node.values[index])
            if running >= half and 0 < index < len(node.keys) - 1:
                return index + 1
        return max(1, len(node.keys) // 2)

    # -- deletion ---------------------------------------------------------------

    def delete(self, key: bytes, missing_ok: bool = False) -> bool:
        """Remove ``key``; returns True if it was present.

        Deletion is leaf-local: the entry is removed and the leaf
        rewritten, but leaves are never merged and separators never
        adjusted (the classic delete-without-rebalance simplification —
        underfull and even empty leaves stay chained and are skipped by
        scans).  A missing key raises
        :class:`~repro.errors.BTreeError` unless ``missing_ok``.
        """
        leaf = self._descend_to_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            if missing_ok:
                return False
            raise BTreeError(f"delete of missing key {key!r}")
        leaf = leaf.editable()
        del leaf.keys[index]
        del leaf.values[index]
        self.entry_count -= 1
        self._write_node(leaf)
        self._save_meta()
        return True

    # -- dropping ---------------------------------------------------------------

    def drop(self) -> None:
        """Free every page of the tree (nodes, chained-but-unreachable
        leaves, and the meta page) back to the pager free list.

        The instance is unusable afterwards.  Nothing here keeps a
        reader from re-opening the tree by its (now stale) meta page id,
        so dropping is only safe once the tree's name is unreachable
        (e.g. under the document's exclusive latch); snapshots pinned
        before the drop keep reading the pages until they are released.
        """
        pages: list[int] = []
        stack = [self.root_page_id]
        seen = set()
        while stack:
            page_id = stack.pop()
            if page_id in seen:
                continue  # pragma: no cover - defensive
            seen.add(page_id)
            node = self._read_node(page_id)
            pages.append(page_id)
            if node.is_leaf:
                # Delete-without-rebalance can leave empty leaves
                # reachable only through the chain; walk it too.
                if node.next_leaf and node.next_leaf not in seen:
                    stack.append(node.next_leaf)
            else:
                stack.extend(node.children)
        pages.append(self.meta_page_id)
        for page_id in pages:
            self.buffer_pool.free_page(page_id)

    # -- bulk loading -------------------------------------------------------------

    def bulk_load(self, items: Iterable[tuple[bytes, bytes]],
                  fill_factor: float = 0.9) -> None:
        """Build the tree from already-sorted unique ``(key, value)`` pairs.

        Only valid on an empty tree.  Leaves are packed to ``fill_factor``
        of the page and chained; internal levels are built bottom-up.
        """
        if self.entry_count:
            raise BTreeError("bulk_load requires an empty tree")
        capacity = int(self._max_node_size() * fill_factor)

        leaves: list[tuple[bytes, int]] = []  # (first key, page id)
        current = self._read_node(self.root_page_id).editable()
        current.keys, current.values = [], []    # reuse the initial leaf
        size = _LEAF_BASE                         # running bytes of current
        count = 0
        previous_key: bytes | None = None
        previous_leaf: _Node | None = None

        for key, value in items:
            if previous_key is not None and key <= previous_key:
                raise BTreeError("bulk_load input must be strictly "
                                 "ascending")
            previous_key = key
            entry_size = _LEAF_ENTRY + len(key) + len(value)
            if size + entry_size > capacity and current.keys:
                if previous_leaf is not None:
                    previous_leaf.next_leaf = current.page_id
                    self._write_node(previous_leaf)
                leaves.append((current.keys[0], current.page_id))
                previous_leaf = current
                current = self._new_node(is_leaf=True)
                size = _LEAF_BASE
            current.keys.append(key)
            current.values.append(value)
            size += entry_size
            count += 1
        if previous_leaf is not None:
            previous_leaf.next_leaf = current.page_id
            self._write_node(previous_leaf)
        if current.keys or not leaves:
            leaves.append((current.keys[0] if current.keys else b"",
                           current.page_id))
        self._write_node(current)

        # Build internal levels bottom-up.
        level = leaves
        height = 1
        while len(level) > 1:
            next_level: list[tuple[bytes, int]] = []
            index = 0
            while index < len(level):
                node = self._new_node(False, children=[level[index][1]])
                first_key = level[index][0]
                size = _INTERNAL_BASE
                index += 1
                while index < len(level):
                    key = level[index][0]
                    size += _INTERNAL_ENTRY + len(key)
                    if size > capacity:
                        break
                    node.keys.append(key)
                    node.children.append(level[index][1])
                    index += 1
                self._write_node(node)
                next_level.append((first_key, node.page_id))
            level = next_level
            height += 1

        self.root_page_id = level[0][1]
        self.height = height
        self.entry_count = count
        self._save_meta()

    # -- statistics for the cost model ------------------------------------------

    def leaf_page_count(self) -> int:
        """Number of leaf pages (walks the leaf chain)."""
        count = 0
        leaf = self._leftmost_leaf()
        while True:
            count += 1
            if leaf.next_leaf == 0:
                return count
            leaf = self._read_node(leaf.next_leaf)
