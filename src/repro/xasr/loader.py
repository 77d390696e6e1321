"""XML → XASR shredder (milestone 2's loader).

The loader consumes tokenizer events and assigns in/out numbers with a
single counter exactly as in Figure 2: a node receives ``in`` when its
opening tag is seen and ``out`` when its closing tag is seen; text nodes
count as a (virtual) tag pair of their own; the virtual document root has
``in = 1``.  The DOM is never built.

A load is two steps.  :func:`shred_document` makes one pass over the
events and produces the relation as parallel *columns* in ascending
``in`` order, never as a Python object per node.  A node's slot is
appended when it opens, with ``out`` = 0; the stack of open nodes holds
column positions and the closing tag patches ``outs[position]``.  Beside
the columns go the label- and parent-index keys and the statistics.  It
touches no database, so input errors surface before anything is created.
:func:`store_document` then writes the three B+-trees: sorted bulk
builds by default, or with ``bulk=False`` tuple-at-a-time insertion in
node completion order — how the students' engines inserted into Berkeley
DB.  Both read the same columns and produce identical relations; the
bulk trees are packed compactly and built much faster.  Each column is
released as soon as its tree exists, so the load's high-water is the
columns plus one tree under construction.

The statistics are what milestone 4 requires — "the selectivity of each
of the element node labels occurring in the document, and the average
depth of a node in the data tree" — plus, going beyond the paper,
equi-depth histograms over text values (global and per parent label)
that give the cost model real selectivities for value predicates.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

from repro.errors import CatalogError
from repro.storage.db import Database
from repro.xasr import schema
from repro.xmlkit.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    XmlEvent,
)
from repro.xmlkit.tokenizer import iterparse, iterparse_file


#: Default bucket budget for equi-depth value histograms.
HISTOGRAM_BUCKETS = 32

#: Most-common-values tracked exactly per histogram.  Buckets mix hot
#: values (author names) with swaths of unique strings (titles), so the
#: uniform-within-bucket assumption *underestimates* exactly the values
#: queries ask for; the MCV list answers those exactly.
HISTOGRAM_MCVS = 16

#: Histogram key of the document-wide (all text nodes) histogram; the
#: other keys are element labels (histogram over that label's child-text
#: values).
GLOBAL_HISTOGRAM = ""


@dataclass
class EquiDepthHistogram:
    """An equi-depth histogram over (truncated) text values.

    ``bounds[i]`` is the largest value in bucket ``i`` (buckets cover
    ``(bounds[i-1], bounds[i]]``; the first bucket is open below), and
    ``counts[i]``/``distincts[i]`` are the value occurrences and distinct
    values it holds.  Values are truncated to
    :data:`~repro.xasr.schema.VALUE_INDEX_PREFIX` characters, matching
    the value-index key prefix, so the histogram and the index agree on
    ordering.

    The histogram is built exactly at load / index-build time and then
    maintained *approximately* under updates: :meth:`add`/:meth:`remove`
    adjust the counts of the containing bucket but never re-balance the
    bucket boundaries or distinct counts, so a long update history
    degrades the estimate gracefully rather than invalidating it (the
    cost model only needs "a gross measure", as the paper puts it).
    """

    bounds: list[str] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    distincts: list[int] = field(default_factory=list)
    total: int = 0
    #: Exact occurrence counts of the most common values.  Equi-depth
    #: buckets answer ranges well but *underestimate* hot values that
    #: share a bucket with many singletons; the MCV list makes equality
    #: estimates on exactly those values exact.
    mcv: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, values: Iterable[str],
              buckets: int = HISTOGRAM_BUCKETS,
              mcvs: int = HISTOGRAM_MCVS) -> "EquiDepthHistogram":
        """Build from raw values (truncated here); equal values never
        straddle a bucket boundary."""
        ordered = sorted(schema.index_value(value) for value in values)
        histogram = cls()
        if not ordered:
            return histogram
        depth = max(1, -(-len(ordered) // buckets))  # ceil division
        count = 0
        distinct = 0
        previous: str | None = None
        frequencies: dict[str, int] = {}
        for value in ordered:
            frequencies[value] = frequencies.get(value, 0) + 1
            if value != previous:
                if count >= depth:  # split only at a value boundary
                    histogram.bounds.append(previous)  # type: ignore[arg-type]
                    histogram.counts.append(count)
                    histogram.distincts.append(distinct)
                    count = 0
                    distinct = 0
                distinct += 1
                previous = value
            count += 1
        histogram.bounds.append(previous)  # type: ignore[arg-type]
        histogram.counts.append(count)
        histogram.distincts.append(distinct)
        histogram.total = len(ordered)
        if mcvs and len(frequencies) > 1:
            top = sorted(frequencies.items(),
                         key=lambda item: (-item[1], item[0]))[:mcvs]
            # Only values that actually repeat are worth tracking.
            histogram.mcv = {value: n for value, n in top if n > 1}
        return histogram

    # -- estimation ----------------------------------------------------------

    def _bucket(self, value: str) -> int | None:
        """Index of the bucket containing ``value`` (None when above the
        top bound)."""
        if not self.bounds:
            return None
        index = bisect_left(self.bounds, schema.index_value(value))
        if index >= len(self.bounds):
            return None
        return index

    def estimate_eq(self, value: str) -> float:
        """Estimated occurrences of ``value``: exact for tracked common
        values, uniform-within-bucket otherwise."""
        value = schema.index_value(value)
        tracked = self.mcv.get(value)
        if tracked is not None:
            return float(tracked)
        index = self._bucket(value)
        if index is None:
            return 0.0
        return self.counts[index] / max(1, self.distincts[index])

    def estimate_range(self, low: str | None, high: str | None) -> float:
        """Estimated occurrences with ``low < value < high`` (``None``
        bounds are open).  Buckets fully inside count whole; straddling
        buckets count half — the classic equi-depth approximation."""
        if not self.bounds:
            return 0.0
        if low is not None:
            low = schema.index_value(low)
        if high is not None:
            high = schema.index_value(high)
        estimate = 0.0
        lower_edge: str | None = None  # exclusive lower edge of bucket 0
        for index, upper in enumerate(self.bounds):
            # Bucket covers (lower_edge, upper].
            past_high = high is not None and (
                lower_edge is not None and lower_edge >= high)
            if past_high:
                break
            before_low = low is not None and upper <= low
            if before_low:
                lower_edge = upper
                continue
            inside_low = low is None or (lower_edge is not None
                                         and lower_edge >= low)
            inside_high = high is None or upper < high
            if inside_low and inside_high:
                estimate += self.counts[index]
            else:
                estimate += self.counts[index] / 2.0
            lower_edge = upper
        return estimate

    # -- incremental maintenance ---------------------------------------------

    def add(self, value: str) -> None:
        value = schema.index_value(value)
        if value in self.mcv:
            self.mcv[value] += 1
        if not self.bounds:
            self.bounds = [value]
            self.counts = [1]
            self.distincts = [1]
            self.total = 1
            return
        index = self._bucket(value)
        if index is None:  # beyond the top: stretch the last bucket
            index = len(self.bounds) - 1
            self.bounds[index] = value
        self.counts[index] += 1
        self.total += 1

    def remove(self, value: str) -> None:
        value = schema.index_value(value)
        tracked = self.mcv.get(value)
        if tracked is not None:
            if tracked <= 1:
                del self.mcv[value]
            else:
                self.mcv[value] = tracked - 1
        index = self._bucket(value)
        if index is None:
            return
        if self.counts[index] > 0:
            self.counts[index] -= 1
        if self.total > 0:
            self.total -= 1

    # -- persistence ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {"bounds": self.bounds, "counts": self.counts,
                "distincts": self.distincts, "total": self.total,
                "mcv": self.mcv}

    @classmethod
    def from_payload(cls, payload: dict) -> "EquiDepthHistogram":
        return cls(bounds=list(payload["bounds"]),
                   counts=list(payload["counts"]),
                   distincts=list(payload["distincts"]),
                   total=payload["total"],
                   mcv=dict(payload.get("mcv", {})))


@dataclass
class DocumentStatistics:
    """Per-document statistics backing the cost model.

    ``label_counts`` maps element labels to their number of occurrences —
    the paper's per-label selectivity source.  ``depth_sum`` accumulates
    node depths so ``average_depth`` can serve as the paper's "gross
    measure for the selectivities of ancestor-descendant joins".

    ``value_histograms`` holds equi-depth histograms over text values:
    key :data:`GLOBAL_HISTOGRAM` (``""``) spans every text node of the
    document; an element-label key spans the values of that label's
    *child* text nodes.  They replace the flat text-value selectivity
    guess wherever a histogram exists, and are maintained incrementally
    by the update path.
    """

    total_nodes: int = 0
    element_count: int = 0
    text_count: int = 0
    label_counts: dict[str, int] = field(default_factory=dict)
    depth_sum: int = 0
    max_depth: int = 0
    max_in: int = 0
    value_histograms: dict[str, EquiDepthHistogram] = \
        field(default_factory=dict)

    @property
    def average_depth(self) -> float:
        if self.total_nodes == 0:
            return 0.0
        return self.depth_sum / self.total_nodes

    def label_selectivity(self, label: str) -> float:
        """Fraction of element nodes carrying ``label`` (0 if absent)."""
        if self.element_count == 0:
            return 0.0
        return self.label_counts.get(label, 0) / self.element_count

    # -- value histograms -----------------------------------------------------

    def build_histograms(self, labels: list[str], values: list[str],
                         buckets: int = HISTOGRAM_BUCKETS) -> None:
        """Build the global and per-label histograms from one sample
        per text node: ``values[i]`` is its (truncated) value and
        ``labels[i]`` its parent element's label, ``""`` under the root."""
        histograms = {GLOBAL_HISTOGRAM:
                      EquiDepthHistogram.build(values, buckets)}
        by_label: dict[str, list[str]] = {}
        for label, value in zip(labels, values, strict=True):
            if label:
                by_label.setdefault(label, []).append(value)
        for label, label_values in by_label.items():
            histograms[label] = EquiDepthHistogram.build(label_values,
                                                         buckets)
        self.value_histograms = histograms

    def histogram_add(self, parent_label: str, value: str) -> None:
        """Incremental maintenance hook: one text value appeared."""
        histogram = self.value_histograms.get(GLOBAL_HISTOGRAM)
        if histogram is not None:
            histogram.add(value)
        histogram = self.value_histograms.get(parent_label)
        if histogram is not None:
            histogram.add(value)

    def histogram_remove(self, parent_label: str, value: str) -> None:
        """Incremental maintenance hook: one text value vanished."""
        histogram = self.value_histograms.get(GLOBAL_HISTOGRAM)
        if histogram is not None:
            histogram.remove(value)
        histogram = self.value_histograms.get(parent_label)
        if histogram is not None:
            histogram.remove(value)

    def to_payload(self) -> dict:
        return {
            "total_nodes": self.total_nodes,
            "element_count": self.element_count,
            "text_count": self.text_count,
            "label_counts": self.label_counts,
            "depth_sum": self.depth_sum,
            "max_depth": self.max_depth,
            "max_in": self.max_in,
            "value_histograms": {
                label: histogram.to_payload()
                for label, histogram in self.value_histograms.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DocumentStatistics":
        stats = cls(**{key: payload[key] for key in (
            "total_nodes", "element_count", "text_count", "depth_sum",
            "max_depth", "max_in")})
        stats.label_counts = dict(payload["label_counts"])
        stats.value_histograms = {
            label: EquiDepthHistogram.from_payload(entry)
            for label, entry in payload.get("value_histograms",
                                            {}).items()}
        return stats


@dataclass
class ShreddedDocument:
    """A shredded, hence fully validated, document that is not yet stored:
    the XASR relation as five parallel columns in ascending ``in`` order,
    the (unsorted) secondary-index keys, and the statistics.
    :func:`store_document` empties the columns as it consumes them."""

    ins: array            # 'I'
    outs: array           # 'I'
    parent_ins: array     # 'I'
    types: bytearray
    values: list[str]     # equal element names are one shared object
    label_keys: list[bytes]
    parent_keys: array    # 'Q': parent_in << 32 | in, see schema.parent_key
    stats: DocumentStatistics


def shred_document(xml: str | None = None, path: str | None = None,
                   events: Iterable[XmlEvent] | None = None,
                   strip_whitespace: bool = True) -> ShreddedDocument:
    """Shred one input — exactly one of ``xml`` (text), ``path`` (file)
    or ``events`` — in a single pass, without touching any database."""
    sources = [source for source in (xml, path, events) if source is not None]
    if len(sources) != 1:
        raise ValueError("pass exactly one of xml=, path=, events=")
    if xml is not None:
        events = iterparse(xml)
    elif path is not None:
        events = iterparse_file(path)
    assert events is not None

    stats = DocumentStatistics()
    ins, outs, parent_ins = array("I"), array("I"), array("I")
    types = bytearray()
    values: list[str] = []
    label_keys: list[bytes] = []
    parent_keys = array("Q")
    element, text_type = schema.ELEMENT, schema.TEXT
    index_value, pack_in = schema.index_value, schema.primary_key
    label_key = schema.label_key
    #: label -> (the one shared name object, its label-key prefix)
    labels: dict[str, tuple[str, bytes]] = {}
    label_counts = stats.label_counts
    sample_labels: list[str] = []  # per text node: its parent's label
    sample_values: list[str] = []  # ... and its truncated value
    stack: list[int] = []  # column positions of the open nodes
    counter = 1
    elements = texts = depth_sum = max_depth = 0
    for event in events:
        kind = type(event)
        if kind is StartElement:
            known = labels.get(event.name)
            if known is None:
                name = event.name
                known = labels[name] = name, schema.label_prefix(
                    element, index_value(name))
                label_counts[name] = 0
            name, prefix = known
            parent_in = ins[stack[-1]]
            stack.append(len(ins))
            ins.append(counter)
            outs.append(0)  # patched when the node closes
            parent_ins.append(parent_in)
            types.append(element)
            values.append(name)
            label_keys.append(prefix + pack_in(counter))
            parent_keys.append(parent_in << 32 | counter)
            counter += 1
            depth = len(stack) - 1  # the virtual root has depth 0
            elements += 1
            label_counts[name] += 1
            depth_sum += depth
            if depth > max_depth:
                max_depth = depth
        elif kind is EndElement or kind is EndDocument:
            outs[stack.pop()] = counter
            counter += 1
        elif kind is Characters:
            text = event.text
            if strip_whitespace and not text.strip():
                continue
            parent = stack[-1]
            parent_in = ins[parent]
            ins.append(counter)
            outs.append(counter + 1)
            parent_ins.append(parent_in)
            types.append(text_type)
            values.append(text)
            indexed = index_value(text)
            label_keys.append(label_key(text_type, indexed, counter))
            parent_keys.append(parent_in << 32 | counter)
            counter += 2
            depth = len(stack)
            texts += 1
            depth_sum += depth
            if depth > max_depth:
                max_depth = depth
            sample_labels.append(values[parent])  # "" under the root
            sample_values.append(indexed)
        elif kind is StartDocument:
            stack.append(len(ins))
            ins.append(counter)
            outs.append(0)
            parent_ins.append(0)
            types.append(schema.ROOT)
            values.append("")
            parent_keys.append(counter)
            counter += 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected event {event!r}")
    if stack:
        raise AssertionError("shredder finished with open nodes")
    stats.total_nodes = len(ins)
    stats.element_count, stats.text_count = elements, texts
    stats.depth_sum, stats.max_depth = depth_sum, max_depth
    stats.max_in = counter - 1
    stats.build_histograms(sample_labels, sample_values)
    return ShreddedDocument(ins, outs, parent_ins, types, values,
                            label_keys, parent_keys, stats)


def _primary_entries(db: Database, rows: Iterable[tuple]
                     ) -> Iterator[tuple[bytes, bytes]]:
    """``(key, record)`` per ``(in, out, parent_in, type, value)`` row,
    spilling long values to the overflow store."""
    pack_in, encode_record = schema.primary_key, schema.encode_record
    inline_max = schema.VALUE_INLINE_MAX
    for in_, out, parent_in, node_type, value in rows:
        raw = value.encode("utf-8")
        val_kind = 0
        if len(raw) > inline_max:
            head_page, length = db.overflow.store(raw)
            raw, val_kind = f"{head_page}:{length}".encode(), 1
        yield pack_in(in_), encode_record(in_, out, parent_in, node_type,
                                          val_kind, raw)


def store_document(db: Database, name: str, shredded: ShreddedDocument,
                   bulk: bool = True) -> DocumentStatistics:
    """Write a shredded document into ``db`` under ``name``: the
    clustered primary B+-tree, the label and parent secondary indexes,
    and the statistics entry.  Empties ``shredded``'s columns as it
    goes; returns the statistics."""
    if db.exists(schema.table_name(name)):
        raise CatalogError(f"document {name!r} already loaded")
    primary = db.create_btree(schema.table_name(name))
    label_index = db.create_btree(schema.index_label_name(name))
    parent_index = db.create_btree(schema.index_parent_name(name))
    def fill(tree, entries: Iterable[tuple[bytes, bytes]]) -> None:
        if bulk:
            tree.bulk_load(entries)
        else:
            for key, value in entries:
                tree.insert(key, value)

    rows = zip(shredded.ins, shredded.outs, shredded.parent_ins,
               shredded.types, shredded.values, strict=True)
    if not bulk:
        rows = sorted(rows, key=itemgetter(1))  # completion order
    fill(primary, _primary_entries(db, rows))
    for column in (shredded.ins, shredded.outs, shredded.parent_ins,
                   shredded.types, shredded.values):
        del column[:]
    label_keys, parent_keys = shredded.label_keys, shredded.parent_keys
    if bulk:
        label_keys.sort()
    fill(label_index, zip(label_keys, repeat(b"")))
    del label_keys[:]
    # Numeric order of the u64s is byte order of the keys.
    fill(parent_index, zip(map(schema.PARENT_KEY_U64.pack,
                               sorted(parent_keys) if bulk else parent_keys),
                           repeat(b"")))
    del parent_keys[:]
    db.put_meta(schema.stats_name(name), shredded.stats.to_payload())
    db.buffer_pool.flush()
    return shredded.stats


def load_document(db: Database, name: str, xml: str | None = None,
                  path: str | None = None,
                  events: Iterable[XmlEvent] | None = None,
                  strip_whitespace: bool = True,
                  bulk: bool = True) -> DocumentStatistics:
    """Shred a document (exactly one of ``xml``, ``path``, ``events``)
    and store it in ``db`` under ``name``; returns its statistics."""
    return store_document(
        db, name, shred_document(xml, path, events, strip_whitespace),
        bulk=bulk)


def collect_value_entries(db: Database, name: str,
                          label: str) -> list[bytes]:
    """Sorted value-index keys for ``label``'s child text nodes.

    The build pass of :func:`build_value_index`: one label-index lookup
    finds the elements, one parent-index prefix scan per element finds
    its children — both through the same :class:`StoredDocument` access
    paths the scan and update code use, so the build can never diverge
    from what they see (``value_key`` truncates long values exactly
    like the per-entry maintenance path does).
    """
    # Runtime import: document.py imports this module for
    # DocumentStatistics, so the dependency must not be top-level.
    from repro.xasr.document import StoredDocument

    document = StoredDocument(db, name)
    entries: list[bytes] = []
    for element in document.nodes_with_label(label):
        for child in document.children(element.in_):
            if child.is_text:
                entries.append(schema.value_key(child.value, element.in_,
                                                child.in_))
    entries.sort()
    return entries


def build_value_index(db: Database, name: str, label: str):
    """Bulk-build the secondary value index for one label.

    Creates the per-label B+-tree and bulk-loads it from a sorted entry
    pass (the same load-time trade-off as :func:`load_document`'s
    ``bulk=True`` path).  The caller registers the index in the
    document's value-index catalog entry *afterwards* — the registration
    is the build's atomic completeness marker — and brackets the whole
    build in checkpoints so no stale WAL record can replay over it.
    """
    if db.exists(schema.value_index_name(name, label)):
        raise CatalogError(f"document {name!r} already has a value "
                           f"index on label {label!r}")
    entries = collect_value_entries(db, name, label)
    tree = db.create_btree(schema.value_index_name(name, label))
    tree.bulk_load((key, b"") for key in entries)
    return tree
