"""The columnar shredder is a replacement, not a fork: the database file
it writes is byte-identical to the one the row-at-a-time shredder wrote,
and it does so without holding the document as Python rows.

The SHA-1 goldens were captured at the commit *before* the shredder went
columnar (PR 17), with the documents the perf ledger loads at seed 7.
"""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest

from repro.core.dbms import XmlDbms
from repro.storage.db import Database
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.treebank import TreebankConfig, generate_treebank
from repro.xasr import StoredDocument, load_document, schema
from repro.xasr.loader import shred_document, store_document
from repro.xmlkit.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
)


def ledger_documents(seed: int = 7) -> dict[str, str]:
    """The perf ledger's two inputs (``benchmarks/ledger/rig.py``
    ``make_data`` at full scale), from ``seed`` alone."""
    rng = random.Random(seed)
    dblp_seed, treebank_seed = rng.getrandbits(31), rng.getrandbits(31)
    return {
        "dblp": generate_dblp(DblpConfig(
            articles=300, inproceedings=90, name_pool=40, seed=dblp_seed)),
        "treebank": generate_treebank(TreebankConfig(
            sentences=60, seed=treebank_seed)),
    }


def hostile_events() -> list:
    """Every encoding edge of a load in one document.  Built as events
    because the tokenizer (rightly) refuses a literal NUL."""
    depth = 60
    events: list = [StartDocument(), StartElement("r")]

    def leaf(name: str, text: str) -> None:
        events.extend([StartElement(name), Characters(text),
                       EndElement(name)])

    leaf("nul", "a\x00b\x00")                        # escaped in keys
    leaf("nul", "a")                                 # sorts before "a\0b"
    leaf("big", "x" * (schema.VALUE_INLINE_MAX + 1))  # overflow store
    leaf("big", "é" * (schema.VALUE_INLINE_MAX // 2 + 1))  # bytes > chars
    leaf("edge", "y" * schema.VALUE_INLINE_MAX)      # largest inline
    leaf("long", "p" * schema.VALUE_INDEX_PREFIX + "tail-1")
    leaf("long", "p" * schema.VALUE_INDEX_PREFIX + "tail-2")
    leaf("astral", "\U0001F600 non-BMP \U00010000")
    leaf("blank", " \t\n ")                          # stripped
    events.extend(StartElement(f"d{level}") for level in range(depth))
    events.append(Characters("bottom"))
    events.extend(EndElement(f"d{level}")
                  for level in reversed(range(depth)))
    events.extend([StartElement("empty"), EndElement("empty"),
                   EndElement("r"), EndDocument()])
    return events


def file_sha1(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha1(handle.read()).hexdigest()


def relations(db: Database, name: str) -> list:
    """Every entry of the three trees, in key order."""
    return [list(db.open_btree(tree).items()) for tree in (
        schema.table_name(name), schema.index_label_name(name),
        schema.index_parent_name(name))]


GOLDEN_LEDGER_SHA1 = "9825d42b6269b79425b363b42b7ffc153c475ece"
GOLDEN_HOSTILE_SHA1 = "ec71d1f98dd396cef89ea3474d1b83234cb0019d"


class TestByteIdenticalDatabase:
    def test_ledger_documents(self, tmp_path):
        path = tmp_path / "ledger.db"
        with XmlDbms(str(path), buffer_capacity=4096) as dbms:
            for name, xml in ledger_documents().items():
                dbms.load(name, xml=xml)
        assert file_sha1(path) == GOLDEN_LEDGER_SHA1

    @pytest.mark.parametrize("bulk", [True, False])
    def test_hostile_document(self, tmp_path, bulk):
        path = tmp_path / "hostile.db"
        db = Database(str(path))
        stats = load_document(db, "h", events=hostile_events(), bulk=bulk)
        db.close()
        assert stats.max_depth == 62        # r + 60 levels + the text
        assert stats.text_count == 9        # the blank one is stripped
        assert file_sha1(path) == GOLDEN_HOSTILE_SHA1

    def test_hostile_bulk_and_streaming_relations_agree(self, tmp_path):
        loaded = []
        for bulk in (True, False):
            db = Database(str(tmp_path / f"{bulk}.db"))
            load_document(db, "h", events=hostile_events(), bulk=bulk)
            document = StoredDocument(db, "h")
            loaded.append((relations(db, "h"),
                           [node.value for node in document.scan()]))
            db.close()
        assert loaded[0] == loaded[1]
        values = loaded[0][1]
        assert "x" * (schema.VALUE_INLINE_MAX + 1) in values
        assert "a\x00b\x00" in values


class TestLoadMemory:
    #: Bytes of Python heap per node at the load's high-water: columns,
    #: index keys, histogram samples and the B+-tree under construction.
    #: Measured 167; the row-at-a-time shredder needed 384.
    BYTES_PER_NODE = 250

    def test_high_water_per_node_is_bounded(self, tmp_path):
        xml = generate_dblp(DblpConfig(articles=1600, inproceedings=0,
                                       name_pool=40, seed=3))
        # A small pool, so the measurement is the load, not cached pages.
        with XmlDbms(str(tmp_path / "m.db"), buffer_capacity=48) as dbms:
            tracemalloc.start()
            try:
                stats = dbms.load("d", xml=xml)
                __, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert stats.total_nodes >= 20_000
        assert peak / stats.total_nodes < self.BYTES_PER_NODE

    def test_store_releases_the_columns(self, tmp_path):
        shredded = shred_document(xml="<a><b>x</b><c/></a>")
        assert len(shredded.ins) == len(shredded.values) == 5
        db = Database(str(tmp_path / "r.db"))
        store_document(db, "d", shredded)
        db.close()
        assert not shredded.values and not shredded.label_keys
        assert not shredded.parent_keys
