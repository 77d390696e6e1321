"""Record codecs, key ordering, overflow store, database facade."""

import pytest

from repro.errors import CatalogError, StorageError
from repro.storage.db import Database
from repro.storage.overflow import OverflowStore
from repro.storage.record import (
    KeyCodec,
    RecordCodec,
    decode_key,
    encode_key,
)


class TestRecordCodec:
    def test_round_trip_xasr_shape(self):
        codec = RecordCodec(["u32", "u32", "u32", "u8", "u8", "str"])
        record = (2, 17, 1, 1, 0, "journal")
        assert codec.decode(codec.encode(record)) == record

    def test_empty_string(self):
        codec = RecordCodec(["str"])
        assert codec.decode(codec.encode(("",))) == ("",)

    def test_unicode_string(self):
        codec = RecordCodec(["str"])
        assert codec.decode(codec.encode(("héllo→",))) == ("héllo→",)

    def test_arity_mismatch(self):
        codec = RecordCodec(["u32"])
        with pytest.raises(StorageError):
            codec.encode((1, 2))

    def test_unknown_type_rejected(self):
        with pytest.raises(StorageError):
            RecordCodec(["float"])

    def test_trailing_bytes_rejected(self):
        codec = RecordCodec(["u32"])
        with pytest.raises(StorageError):
            codec.decode(codec.encode((1,)) + b"xx")


class TestKeyOrdering:
    def test_int_order_preserved(self):
        keys = [encode_key((value,)) for value in (0, 1, 2, 100, 2**31)]
        assert keys == sorted(keys)

    def test_string_order_preserved(self):
        words = ["", "a", "aa", "ab", "b", "ba"]
        keys = [encode_key((word,)) for word in words]
        assert keys == sorted(keys)

    def test_composite_order_matches_tuple_order(self):
        tuples = [(1, "b", 5), (1, "b", 6), (1, "c", 0), (2, "a", 0)]
        keys = [encode_key(t, ("u32", "str", "u32")) for t in tuples]
        assert keys == sorted(keys)
        assert [decode_key(k, ("u32", "str", "u32")) for k in keys] == \
            tuples

    def test_string_prefix_sorts_before_extension(self):
        assert encode_key(("ab",)) < encode_key(("abc",))

    def test_embedded_nul_round_trips(self):
        value = "a\x00b"
        key = encode_key((value,))
        assert decode_key(key, ("str",)) == (value,)

    def test_int_out_of_range_rejected(self):
        with pytest.raises(StorageError):
            encode_key((2**33,))

    def test_key_codec_round_trip(self):
        codec = KeyCodec(["u32", "str"])
        assert codec.decode(codec.encode((7, "x"))) == (7, "x")


class TestOverflowStore:
    def test_round_trip_small(self, database):
        store = database.overflow
        head, length = store.store(b"abc")
        assert store.load(head, length) == b"abc"

    def test_round_trip_multi_page(self, database):
        store = database.overflow
        data = bytes(range(256)) * 100   # ~25 KiB, several pages
        head, length = store.store(data)
        assert store.load(head, length) == data

    def test_empty_value_rejected(self, database):
        with pytest.raises(StorageError):
            database.overflow.store(b"")

    def test_free_releases_chain(self, database):
        store = database.overflow
        head, __ = store.store(b"z" * 10000)
        store.free(head)
        assert database.pager.free_head != 0


class TestDatabaseFacade:
    def test_create_and_reopen_btree(self, tmp_path):
        path = str(tmp_path / "db.db")
        with Database.create(path) as db:
            tree = db.create_btree("t")
            tree.insert(encode_key((1,)), b"one")
        with Database.open(path) as db:
            assert db.open_btree("t").search(encode_key((1,))) == b"one"

    def test_duplicate_name_rejected(self, database):
        database.create_btree("t")
        with pytest.raises(CatalogError):
            database.create_btree("t")

    def test_unknown_name_rejected(self, database):
        with pytest.raises(CatalogError):
            database.open_btree("nope")

    def test_wrong_kind_rejected(self, database):
        database.put_meta("m", {"x": 1})
        database.create_btree("t")
        with pytest.raises(CatalogError):
            database.open_btree("m")
        with pytest.raises(CatalogError):
            database.get_meta("t")

    def test_list_names_sorted_and_live(self, database):
        database.create_btree("b")
        database.create_btree("a")
        database.put_meta("m", {"x": 1})
        assert database.list_names() == ["a", "b", "m"]

    def test_drop_removes_name(self, database):
        database.put_meta("m", {"x": 1})
        database.drop("m")
        assert not database.exists("m")
        with pytest.raises(CatalogError):
            database.drop("m")

    def test_meta_upsert(self, database):
        database.put_meta("m", {"v": 1})
        database.put_meta("m", {"v": 2})
        assert database.get_meta("m") == {"v": 2}

    def test_get_meta_missing_returns_none(self, database):
        assert database.get_meta("missing") is None
