"""Applying a validated pending update list to the stored XASR encoding.

The XASR numbering is dense — in/out values are consecutive preorder
counters — so edits have two very different costs, and the applier keeps
them separate:

* **Point edits** (``replace value of``, ``rename``) rewrite one record
  in place and swap its label-index entry: O(log n).
* **Structural edits** (``insert``, ``delete``) renumber.  A subtree of
  ``k`` nodes occupies ``2k`` consecutive numbers, so every number at or
  beyond the splice point shifts by ``±2k``: the affected *suffix* of
  the relation is rekeyed (primary, label and parent index entries
  alike) and the ancestor chain's ``out`` values are bumped.  Cost is
  O(tail + depth), not O(1) — the price of keeping the interval
  property exact so every read path stays untouched.

Structural edits apply from the highest pivot downward; a lower edit's
anchors are therefore never renumbered by an earlier one.  At equal
pivots deletes go first and inserts run in reverse statement order,
which makes several inserts at one boundary land in statement order.

Statistics are maintained incrementally alongside (label counts, node
counts, depth sums, value histograms); ``max_depth`` only ratchets up —
a delete may leave it an over-estimate, which the cost model tolerates
(it is "a gross measure" by the paper's own framing).  Histogram bucket
boundaries likewise stay fixed while counts shift.  Secondary **value
indexes** (``XmlDbms.create_index``) are maintained *exactly*: point
edits swap one entry, and structural renumbering moves every affected
``(value, elem_in, text_in)`` entry — parent labels resolve from the
pre-edit snapshot, since the parent element may itself already have
been rekeyed.  The caller persists the updated statistics payload and
runs the whole thing inside a
:meth:`~repro.storage.db.Database.transaction`, so index maintenance is
covered by the same WAL commit as the document rewrite.
"""

from __future__ import annotations

from repro.errors import UpdateError
from repro.storage.db import Database
from repro.storage.record import decode_key
from repro.updates.pul import (
    DeleteSubtree,
    InsertSubtree,
    PendingUpdateList,
    Rename,
    SetValue,
)
from repro.xasr import schema
from repro.xasr.document import StoredDocument

#: One decoded record in raw form: (in, out, parent_in, type, val_kind,
#: value) — the value is *not* resolved through the overflow store, so
#: rekeying a record never copies its overflow chain.
_Raw = tuple[int, int, int, int, int, str]


def apply_pul(db: Database, document: StoredDocument,
              pul: PendingUpdateList) -> dict[str, int]:
    """Apply a *validated* PUL; returns per-kind node counts.

    Mutates the document's primary tree, both secondary indexes, the
    overflow store and the in-memory ``document.statistics`` (the caller
    persists the payload).  Must run inside a database transaction with
    no concurrent readers of these tree instances.
    """
    applier = _Applier(db, document)
    for set_value in pul.set_values:
        applier.set_value(set_value)
    for rename in pul.renames:
        applier.rename(rename)
    # Highest pivot first, deletes before inserts at a tie, tied inserts
    # in reverse statement order (so they end up in statement order).
    structural: list[tuple[tuple, object]] = []
    for delete in pul.deletes:
        # Rank 1 > 0: at a tied pivot the delete must run first — its
        # [in, out] range is in original numbers, which an insert at the
        # same pivot would have shifted.
        structural.append(((delete.pivot, 1, 0), delete))
    for index, insert in enumerate(pul.inserts):
        structural.append(((insert.pivot, 0, index), insert))
    structural.sort(key=lambda entry: entry[0], reverse=True)
    for __, edit in structural:
        if isinstance(edit, DeleteSubtree):
            applier.delete_subtree(edit)
        else:
            applier.insert_subtree(edit)
    applier.finish()
    return {
        "nodes_inserted": sum(ins.node_count for ins in pul.inserts),
        "nodes_deleted": sum(d.node_count for d in pul.deletes),
        "values_replaced": len(pul.set_values),
        "nodes_renamed": len(pul.renames),
    }


class _Applier:
    def __init__(self, db: Database, document: StoredDocument):
        self.db = db
        self.document = document
        self.primary = document.primary
        self.label_index = document.label_index
        self.parent_index = document.parent_index
        self.stats = document.statistics
        #: Per-label secondary value indexes (label → B+-tree); entries
        #: are maintained in the same transaction as the primary tree.
        self.value_indexes = document.value_indexes
        #: Original-numbering element labels of the current structural
        #: edit's materialised region, consulted by :meth:`_rekey` — a
        #: rekeyed record's parent may itself already have moved, so its
        #: label must come from the pre-edit snapshot, not the tree.
        self._elem_labels: dict[int, str] = {}

    # -- record plumbing -----------------------------------------------------

    def _record(self, in_: int) -> _Raw:
        raw = self.primary.search(schema.primary_key(in_))
        if raw is None:
            raise UpdateError(f"update anchor in={in_} vanished from "
                              f"document {self.document.name!r}")
        return schema.decode_record(raw)

    def _actual_value(self, rec: _Raw) -> str:
        """The record's full value, resolving an overflow pointer."""
        if rec[4] == 1:
            head_page, __, length = rec[5].partition(":")
            data = self.db.overflow.load(int(head_page), int(length))
            return data.decode("utf-8")
        return rec[5]

    def _indexed_value(self, rec: _Raw) -> str:
        """The (truncated) value as stored in label-index keys.

        For overflow values only the first chain page is read: the
        index prefix is 64 characters, a chunk holds thousands of
        bytes, so a full-chain load would make suffix rekeying scale
        with value size rather than with the suffix length.  A chunk
        boundary can split a multi-byte character, which is always past
        the prefix — decoding ignores it.
        """
        if rec[4] != 1:
            return schema.index_value(rec[5])
        head_page = rec[5].partition(":")[0]
        chunk = self.db.overflow.load_prefix(int(head_page))
        return schema.index_value(chunk.decode("utf-8", errors="ignore"))

    def _free_overflow(self, rec: _Raw) -> None:
        if rec[4] == 1:
            head_page, __, __ = rec[5].partition(":")
            self.db.overflow.free(int(head_page))

    def _encode_value(self, value: str) -> tuple[int, str]:
        """Spill a long value; returns (val_kind, stored value)."""
        raw = value.encode("utf-8")
        if len(raw) > schema.VALUE_INLINE_MAX:
            head_page, length = self.db.overflow.store(raw)
            return 1, f"{head_page}:{length}"
        return 0, value

    def _label_key(self, rec: _Raw) -> bytes:
        return schema.label_key(rec[3], self._indexed_value(rec), rec[0])

    def _put_record(self, rec: _Raw, replace: bool) -> None:
        encoded = schema.encode_record(*rec[:5], rec[5].encode("utf-8"))
        self.primary.insert(schema.primary_key(rec[0]), encoded,
                            replace=replace)

    # -- value-index plumbing ------------------------------------------------

    def _rec_label(self, rec: _Raw) -> str:
        """An element record's label (resolving overflow spills)."""
        return rec[5] if rec[4] == 0 else self._actual_value(rec)

    def _parent_label(self, parent_in: int,
                      boundary: int | None = None) -> str | None:
        """Label of the element with in-value ``parent_in``; None for the
        virtual root.

        During a structural edit, parents beyond ``boundary`` may have
        been rekeyed already and must resolve from the materialised
        snapshot (:attr:`_elem_labels`); parents at or below the
        boundary never move and read from the tree.
        """
        if parent_in == 0:
            return None
        if boundary is not None and parent_in > boundary:
            return self._elem_labels.get(parent_in)
        cached = self._elem_labels.get(parent_in)
        if cached is not None:
            return cached
        rec = self._record(parent_in)
        if rec[3] != schema.ELEMENT:
            return None
        label = self._rec_label(rec)
        self._elem_labels[parent_in] = label
        return label

    def _value_entry(self, label: str | None, value: str, elem_in: int,
                     text_in: int, sign: int) -> None:
        """Add (+1) or remove (-1) one value-index entry, if ``label``
        carries an index.  ``value`` is the already-truncated indexed
        value."""
        if label is None:
            return
        tree = self.value_indexes.get(label)
        if tree is None:
            return
        key = schema.value_key(value, elem_in, text_in)
        if sign > 0:
            tree.insert(key, b"")
        else:
            tree.delete(key)

    # -- point edits ---------------------------------------------------------

    def set_value(self, edit: SetValue) -> None:
        rec = self._record(edit.in_)
        if rec[3] != schema.TEXT:  # pragma: no cover - collect checks
            raise UpdateError(f"set_value target in={edit.in_} is not a "
                              f"text node")
        parent_label = self._parent_label(rec[2])
        old_indexed = self._indexed_value(rec)
        self.label_index.delete(self._label_key(rec))
        self._free_overflow(rec)
        val_kind, stored = self._encode_value(edit.value)
        new_rec: _Raw = (rec[0], rec[1], rec[2], rec[3], val_kind, stored)
        self._put_record(new_rec, replace=True)
        self.label_index.insert(self._label_key(new_rec), b"")
        new_indexed = schema.index_value(edit.value)
        self._value_entry(parent_label, old_indexed, rec[2], rec[0], -1)
        self._value_entry(parent_label, new_indexed, rec[2], rec[0], +1)
        self.stats.histogram_remove(parent_label or "", old_indexed)
        self.stats.histogram_add(parent_label or "", new_indexed)

    def rename(self, edit: Rename) -> None:
        rec = self._record(edit.in_)
        if rec[3] != schema.ELEMENT:  # pragma: no cover - collect checks
            raise UpdateError(f"rename target in={edit.in_} is not an "
                              f"element")
        # Labels can be overflow-stored like any value: resolve the old
        # one for the stats decrement, free its chain, and spill the new
        # name if it is long (exactly the set_value treatment).
        old_label = self._actual_value(rec)
        self.label_index.delete(self._label_key(rec))
        self._free_overflow(rec)
        val_kind, stored = self._encode_value(edit.name)
        new_rec: _Raw = (rec[0], rec[1], rec[2], rec[3], val_kind, stored)
        self._put_record(new_rec, replace=True)
        self.label_index.insert(self._label_key(new_rec), b"")
        self._count_label(old_label, -1)
        self._count_label(edit.name, +1)
        self._elem_labels.pop(rec[0], None)
        self._rename_text_children(rec[0], old_label, edit.name)

    def _rename_text_children(self, elem_in: int, old_label: str,
                              new_label: str) -> None:
        """Move a renamed element's child-text statistics and value-index
        entries from the old label to the new one."""
        old_tree = self.value_indexes.get(old_label)
        new_tree = self.value_indexes.get(new_label)
        old_histogram = self.stats.value_histograms.get(old_label)
        new_histogram = self.stats.value_histograms.get(new_label)
        if (old_tree is None and new_tree is None
                and old_histogram is None and new_histogram is None):
            return
        for key, __ in list(self.parent_index.prefix_scan(
                schema.parent_prefix(elem_in))):
            __, child_in = decode_key(key, ("u32", "u32"))
            child = self._record(child_in)
            if child[3] != schema.TEXT:
                continue
            value = self._indexed_value(child)
            self._value_entry(old_label, value, elem_in, child_in, -1)
            self._value_entry(new_label, value, elem_in, child_in, +1)
            if old_histogram is not None:
                old_histogram.remove(value)
            if new_histogram is not None:
                new_histogram.add(value)

    # -- structural edits ----------------------------------------------------

    def delete_subtree(self, edit: DeleteSubtree) -> None:
        subtree = self._materialize(edit.in_, edit.out, include_low=True)
        if not subtree or subtree[0][0] != edit.in_:
            raise UpdateError(f"delete anchor in={edit.in_} vanished")
        delta = -(edit.out - edit.in_ + 1)
        ancestors = self._ancestor_chain(subtree[0][2])

        # Element labels at original numbering, for value-index and
        # histogram maintenance of text nodes inside the subtree and of
        # rekeyed suffix records (whose parents may already have moved
        # by the time they are processed).
        self._elem_labels = {rec[0]: self._rec_label(rec)
                             for rec in subtree
                             if rec[3] == schema.ELEMENT}

        depths = self._subtree_depths(subtree)
        for rec in subtree:
            self.primary.delete(schema.primary_key(rec[0]))
            self.label_index.delete(self._label_key(rec))
            self.parent_index.delete(schema.parent_key(rec[2], rec[0]))
            if rec[3] == schema.TEXT:
                parent_label = self._parent_label(rec[2])
                value = self._indexed_value(rec)
                self._value_entry(parent_label, value, rec[2], rec[0], -1)
                self.stats.histogram_remove(parent_label or "", value)
            self._count_node(rec, depths[rec[0]], -1)
            self._free_overflow(rec)  # after the last value resolution

        suffix = self._materialize(edit.out, None, include_low=False)
        self._elem_labels.update(
            {rec[0]: self._rec_label(rec) for rec in suffix
             if rec[3] == schema.ELEMENT})
        for rec in suffix:  # ascending: shifted keys land in freed space
            self._rekey(rec, delta, boundary=edit.out)
        self._bump_ancestors(ancestors, delta)
        self._elem_labels = {}

    def insert_subtree(self, edit: InsertSubtree) -> None:
        delta = edit.number_span
        pivot = edit.pivot
        parent = self._record(edit.parent_in)
        ancestors = self._ancestor_chain(edit.parent_in, inclusive=True)
        parent_depth = self._depth_of(parent)
        anchor_label = (self._rec_label(parent)
                        if parent[3] == schema.ELEMENT else None)

        suffix = self._materialize(pivot, None, include_low=True)
        self._elem_labels = {rec[0]: self._rec_label(rec)
                             for rec in suffix
                             if rec[3] == schema.ELEMENT}
        for rec in reversed(suffix):  # descending: no key collisions
            self._rekey(rec, delta, boundary=pivot - 1)
        self._bump_ancestors(ancestors, delta, boundary=pivot)
        self._elem_labels = {}

        rel_depths: dict[int, int] = {}
        rel_labels: dict[int, str | None] = {}
        for rel_in, rel_out, rel_parent, node_type, value in edit.tuples:
            depth = (parent_depth + 1 if rel_parent < 0
                     else rel_depths[rel_parent] + 1)
            rel_depths[rel_in] = depth
            if node_type == schema.ELEMENT:
                rel_labels[rel_in] = value
            in_ = pivot + rel_in
            out = pivot + rel_out
            parent_in = (edit.parent_in if rel_parent < 0
                         else pivot + rel_parent)
            val_kind, stored = self._encode_value(value)
            rec: _Raw = (in_, out, parent_in, node_type, val_kind, stored)
            self._put_record(rec, replace=False)
            self.label_index.insert(self._label_key(rec), b"")
            self.parent_index.insert(schema.parent_key(parent_in, in_),
                                     b"")
            if node_type == schema.TEXT:
                parent_label = (anchor_label if rel_parent < 0
                                else rel_labels.get(rel_parent))
                indexed = schema.index_value(value)
                self._value_entry(parent_label, indexed, parent_in, in_,
                                  +1)
                self.stats.histogram_add(parent_label or "", indexed)
            self._count_node(rec, depth, +1)
            self.stats.max_depth = max(self.stats.max_depth, depth)

    # -- renumbering helpers -------------------------------------------------

    def _materialize(self, low_in: int, high_in: int | None,
                     include_low: bool) -> list[_Raw]:
        """Decode a primary range into a list (scans must not overlap
        the mutations that follow)."""
        high = None if high_in is None else schema.primary_key(high_in)
        return [schema.decode_record(raw)
                for __, raw in self.primary.range_scan(
                    schema.primary_key(low_in), high,
                    include_low=include_low)]

    def _rekey(self, rec: _Raw, delta: int, boundary: int) -> None:
        """Shift one suffix record by ``delta``: all of its numbers that
        are strictly beyond ``boundary`` move, and all the trees —
        primary, label, parent and any value index covering the record —
        swap the record's keys."""
        in_, out, parent_in, node_type, val_kind, value = rec
        new_parent = parent_in + delta if parent_in > boundary \
            else parent_in
        new_rec: _Raw = (in_ + delta, out + delta, new_parent, node_type,
                         val_kind, value)
        self.primary.delete(schema.primary_key(in_))
        self._put_record(new_rec, replace=False)
        self.parent_index.delete(schema.parent_key(parent_in, in_))
        self.parent_index.insert(schema.parent_key(new_parent, in_ + delta),
                                 b"")
        indexed = self._indexed_value(rec)
        self.label_index.delete(schema.label_key(node_type, indexed, in_))
        self.label_index.insert(
            schema.label_key(node_type, indexed, in_ + delta), b"")
        if node_type == schema.TEXT and self.value_indexes:
            # The entry embeds both the element's and the text node's
            # in-values; the parent label resolves from the pre-edit
            # snapshot (the parent itself may have been rekeyed already).
            parent_label = self._parent_label(parent_in, boundary)
            self._value_entry(parent_label, indexed, parent_in, in_, -1)
            self._value_entry(parent_label, indexed, new_parent,
                              in_ + delta, +1)

    def _ancestor_chain(self, parent_in: int,
                        inclusive: bool = True) -> list[_Raw]:
        """Records from ``parent_in`` up to (and including) the virtual
        root, in original numbering."""
        chain: list[_Raw] = []
        current = parent_in
        while current != 0:
            rec = self._record(current)
            chain.append(rec)
            current = rec[2]
        if not inclusive and chain:  # pragma: no cover - unused guard
            chain = chain[1:]
        return chain

    def _bump_ancestors(self, ancestors: list[_Raw], delta: int,
                        boundary: int | None = None) -> None:
        """Add ``delta`` to each ancestor's out value (their in values
        precede every shifted number, so keys never move)."""
        for rec in ancestors:
            if boundary is not None and rec[1] < boundary:
                continue  # pragma: no cover - defensive; outs span pivot
            new_rec: _Raw = (rec[0], rec[1] + delta, rec[2], rec[3],
                             rec[4], rec[5])
            self._put_record(new_rec, replace=True)

    # -- statistics ----------------------------------------------------------

    def _depth_of(self, rec: _Raw) -> int:
        depth = 0
        current = rec[2]
        while current != 0:
            depth += 1
            current = self._record(current)[2]
        return depth

    def _subtree_depths(self, subtree: list[_Raw]) -> dict[int, int]:
        """Depth of every subtree node; parents precede children in the
        in-ordered materialised list."""
        root = subtree[0]
        depths = {root[0]: self._depth_of(root)}
        for rec in subtree[1:]:
            depths[rec[0]] = depths[rec[2]] + 1
        return depths

    def _count_node(self, rec: _Raw, depth: int, sign: int) -> None:
        stats = self.stats
        stats.total_nodes += sign
        stats.depth_sum += sign * depth
        if rec[3] == schema.ELEMENT:
            stats.element_count += sign
            self._count_label(self._actual_value(rec), sign)
        elif rec[3] == schema.TEXT:
            stats.text_count += sign

    def _count_label(self, label: str, sign: int) -> None:
        counts = self.stats.label_counts
        updated = counts.get(label, 0) + sign
        if updated <= 0:
            counts.pop(label, None)
        else:
            counts[label] = updated

    def finish(self) -> None:
        """Recompute the bits that derive from the final numbering."""
        root = self._record(1)
        self.stats.max_in = root[1]
