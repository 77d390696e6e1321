"""Write-ahead log, transactions, recovery, and the hardened pager header."""

from __future__ import annotations

import struct

import pytest

from repro.errors import (
    BTreeError,
    BufferPoolError,
    PageError,
    StorageError,
    WalError,
)
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.db import Database
from repro.storage.pager import Pager
from repro.storage.wal import WriteAheadLog, recover


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "wal.db")


class TestPagerHeaderHardening:
    """Satellite bugfix: corrupt files must raise clean StorageErrors."""

    def test_truncated_file(self, path):
        with open(path, "wb") as handle:
            handle.write(b"XY")
        with pytest.raises(PageError, match="wal.db"):
            Database.open(path)

    def test_garbage_magic(self, path):
        with open(path, "wb") as handle:
            handle.write(b"Z" * 4096)
        with pytest.raises(PageError, match="not an XML-DBMS file"):
            Database.open(path)

    def test_zero_page_size(self, path):
        # Used to escape as a raw struct.error from deep inside the
        # B+-tree layer; must be a StorageError naming the file.
        header = struct.Struct(">8sIIII").pack(b"XMLDBMS1", 0, 5, 0, 0)
        with open(path, "wb") as handle:
            handle.write(header + b"\x00" * 100)
        with pytest.raises(StorageError, match="wal.db"):
            Database.open(path)

    def test_zero_num_pages(self, path):
        header = struct.Struct(">8sIIII").pack(b"XMLDBMS1", 4096, 0, 0, 0)
        with open(path, "wb") as handle:
            handle.write(header + b"\x00" * 100)
        with pytest.raises(StorageError, match="num_pages"):
            Database.open(path)

    def test_valid_file_still_opens(self, path):
        with Database.create(path) as db:
            db.put_meta("m", {"x": 1})
        with Database.open(path) as db:
            assert db.get_meta("m") == {"x": 1}


class TestBTreeDelete:
    @pytest.fixture
    def tree(self, path):
        pager = Pager(path, create=True, page_size=512)
        pool = BufferPool(pager, capacity=64)
        tree = BTree.create(pool)
        yield tree
        pager.close()

    def test_delete_and_reinsert(self, tree):
        for i in range(100):
            tree.insert(f"k{i:04d}".encode(), b"v")
        assert tree.delete(b"k0042")
        assert tree.search(b"k0042") is None
        assert len(tree) == 99
        tree.insert(b"k0042", b"w")
        assert tree.search(b"k0042") == b"w"

    def test_delete_missing_raises(self, tree):
        tree.insert(b"a", b"1")
        with pytest.raises(BTreeError):
            tree.delete(b"zzz")
        assert tree.delete(b"zzz", missing_ok=True) is False

    def test_scan_skips_emptied_leaves(self, tree):
        keys = [f"k{i:04d}".encode() for i in range(300)]
        for key in keys:
            tree.insert(key, b"v")
        # Empty a whole middle region (spanning at least one leaf).
        for key in keys[100:200]:
            tree.delete(key)
        remaining = [key for key, __ in tree.items()]
        assert remaining == keys[:100] + keys[200:]
        assert len(tree) == 200

    def test_delete_first_key_of_leaf_keeps_routing(self, tree):
        keys = [f"k{i:04d}".encode() for i in range(300)]
        for key in keys:
            tree.insert(key, b"v")
        for key in keys:
            assert tree.delete(key)
        assert list(tree.items()) == []
        tree.insert(b"new", b"v")
        assert tree.search(b"new") == b"v"


class TestTransactions:
    def test_commit_persists(self, path):
        with Database.create(path) as db:
            with db.transaction():
                tree = db.create_btree("t")
                tree.insert(b"k", b"v")
        with Database.open(path) as db:
            assert db.open_btree("t").search(b"k") == b"v"

    def test_abort_rolls_back(self, path):
        with Database.create(path) as db:
            with db.transaction():
                db.create_btree("t")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.open_btree("t").insert(b"k", b"v")
                    db.put_meta("meta", {"seen": True})
                    raise RuntimeError("boom")
            assert db.open_btree("t").search(b"k") is None
            assert db.get_meta("meta") is None

    def test_nested_transaction_joins_outer(self, path):
        with Database.create(path) as db:
            with db.transaction():
                tree = db.create_btree("t")
                with db.transaction():
                    tree.insert(b"inner", b"v")
            assert db.open_btree("t").search(b"inner") == b"v"

    def test_no_steal_overflow_raises_and_aborts(self, path):
        with Database.create(path, buffer_capacity=8) as db:
            tree = db.create_btree("t")
            with pytest.raises(BufferPoolError, match="buffer_capacity"):
                with db.transaction():
                    for i in range(2000):
                        tree.insert(f"key{i:06d}".encode(), b"x" * 64)
            # The abort rolled everything back and the db still works.
            fresh = db.open_btree("t")
            assert len(fresh) == 0
            fresh.insert(b"after", b"v")
            assert fresh.search(b"after") == b"v"

    def test_flush_inside_transaction_refused(self, path):
        with Database.create(path) as db:
            with pytest.raises(BufferPoolError):
                with db.transaction():
                    db.buffer_pool.flush()

    def test_checkpoint_interval_resets_log(self, path):
        with Database.create(path, checkpoint_interval=2) as db:
            tree = db.create_btree("t")
            with db.transaction():
                tree.insert(b"a", b"1")
            assert db._wal.commits_since_checkpoint == 1
            with db.transaction():
                tree.insert(b"b", b"2")
            assert db._wal.commits_since_checkpoint == 0  # checkpointed


class TestRecovery:
    def _committed_but_not_written_back(self, path):
        """Create a database whose last transaction exists only in the
        WAL: commit the transaction, then undo the write-back by
        restoring the pre-transaction page images (the WAL still holds
        the commit, exactly as if the process died mid write-back)."""
        db = Database.create(path)
        tree = db.create_btree("t")
        tree.insert(b"base", b"0")
        db.checkpoint()
        before = open(path, "rb").read()
        with db.transaction():
            tree.insert(b"committed", b"1")
        # Simulate the crash: pre-transaction file content, current WAL.
        wal_bytes = open(path + ".wal", "rb").read()
        db.pager._file.close()
        db._wal.close()
        with open(path, "wb") as handle:
            handle.write(before)
        with open(path + ".wal", "wb") as handle:
            handle.write(wal_bytes)

    def test_replay_restores_committed_transaction(self, path):
        self._committed_but_not_written_back(path)
        with Database.open(path) as db:
            assert db.last_recovery is not None
            assert db.last_recovery.transactions_replayed == 1
            tree = db.open_btree("t")
            assert tree.search(b"committed") == b"1"
            assert tree.search(b"base") == b"0"

    def test_recovery_is_idempotent(self, path):
        self._committed_but_not_written_back(path)
        first = recover(path)
        assert first.transactions_replayed == 1
        second = recover(path)
        assert second.transactions_replayed == 0
        with Database.open(path) as db:
            assert db.open_btree("t").search(b"committed") == b"1"

    def test_torn_tail_discarded(self, path):
        self._committed_but_not_written_back(path)
        with open(path + ".wal", "ab") as handle:
            handle.write(b"torn garbage bytes")
        report = recover(path)
        assert report.transactions_replayed == 1
        assert report.tail_discarded == len(b"torn garbage bytes")

    def test_uncommitted_pages_discarded(self, path):
        # Page records with no COMMIT: the transaction never happened.
        with Database.create(path) as db:
            db.create_btree("t")
        wal = WriteAheadLog(path + ".wal", 4096)
        wal._append(1, 5, b"\x42" * 4096)  # PAGE record, no COMMIT
        wal.sync()
        wal.close()
        report = recover(path)
        assert report.transactions_replayed == 0
        assert report.tail_discarded > 0
        with Database.open(path) as db:
            assert db.open_btree("t") is not None

    def test_empty_wal_is_clean(self, path):
        with Database.create(path) as db:
            db.create_btree("t")
        with Database.open(path) as db:
            assert db.last_recovery is not None
            assert db.last_recovery.clean

    def test_corrupt_wal_header_raises(self, path):
        with Database.create(path) as db:
            db.create_btree("t")
        with open(path + ".wal", "wb") as handle:
            handle.write(b"NOTAWAL!" + b"\x00" * 100)
        with pytest.raises(WalError):
            recover(path)

    def test_create_discards_stale_wal(self, path):
        self._committed_but_not_written_back(path)
        with Database.create(path) as db:  # fresh file, stale log
            assert not db.exists("t")
        with Database.open(path) as db:
            assert db.last_recovery.clean
