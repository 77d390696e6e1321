"""Database facade: one file, a buffer pool, and a persistent catalog.

The catalog is itself a B+-tree mapping object names to a small JSON
payload (object kind, anchor page id, arbitrary metadata).  Its meta-page
id lives in the pager header, so a database file is fully self-describing:

>>> with Database.create("/tmp/example.db") as db:        # doctest: +SKIP
...     tree = db.create_btree("xasr:doc1")
...     tree.insert(b"k", b"v")
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.errors import CatalogError, WalError
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.overflow import OverflowStore
from repro.storage.pager import NO_PAGE, PAGE_SIZE, Pager
from repro.storage.record import encode_key
from repro.storage.wal import (
    CommitTicket,
    GroupCommitter,
    RecoveryReport,
    WriteAheadLog,
    default_wal_path,
    recover,
)

_KIND_BTREE = "btree"
_KIND_META = "meta"

#: Metadata payloads above this size are spilled to the overflow store;
#: the catalog entry then holds only the pointer.  Catalog entries live
#: in B+-tree leaves, so an inline payload must stay well under the page
#: size (statistics payloads with value histograms can exceed it).
_META_INLINE_MAX = 1024


class Database:
    """A single-file XML database.

    Owns the pager, the buffer pool, the overflow store and the catalog.
    Named objects:

    * B+-trees (tables and indexes),
    * bare metadata entries (per-document statistics, load info).

    Every page in the file is written by a loader or a write transaction;
    queries only read it (their sort runs and materialised intermediates
    go to a :class:`~repro.physical.spill.SpillFile` beside it).

    Catalog operations are thread-safe: a database-level mutex makes each
    name→object operation (existence check + create, lookup + open,
    lookup + drop) atomic, so a ``load`` racing a reader opening the same
    document cannot interleave inside the catalog.  Trees handed out hold
    no lock of their own: readers use them under a pinned snapshot, one
    writer at a time changes them, and the buffer pool never mutates a
    page buffer a reader holds (see :mod:`repro.storage.buffer`).
    """

    def __init__(self, path: str, create: bool = False,
                 buffer_capacity: int = 256, page_size: int = PAGE_SIZE,
                 checkpoint_interval: int = 16):
        wal_path = default_wal_path(path)
        self.last_recovery: RecoveryReport | None = None
        if not create:
            # Replay any committed-but-unapplied transactions *before*
            # the pager parses the file: the header page itself may be
            # among the logged images.
            self.last_recovery = recover(path, wal_path)
        elif os.path.exists(wal_path):
            # Fresh database over an old path: stale log records must
            # never replay over the new file.
            os.remove(wal_path)
        self.pager = Pager(path, page_size=page_size, create=create)
        self.buffer_pool = BufferPool(self.pager, capacity=buffer_capacity)
        self.overflow = OverflowStore(self.buffer_pool)
        self._lock = threading.RLock()
        self._wal = WriteAheadLog(wal_path, self.pager.page_size)
        #: Group-commit daemon: batches the fsyncs of pipelined commits
        #: and runs the durable write-back (see
        #: :class:`~repro.storage.wal.GroupCommitter`).  Owned here, not
        #: by any server layer, so a worker parked on a commit ticket
        #: always gets its fsync even while the serving stack shuts down.
        self._committer = GroupCommitter(self._wal, self._complete_commit)
        #: Serializes write transactions and checkpoints (one at a time;
        #: reads need no transaction and are unaffected).
        self._txn_lock = threading.RLock()
        #: Nesting depth of the *current* transaction — the explicit
        #: reentrancy marker.  Deliberately not inferred from
        #: ``buffer_pool.in_transaction``: if a commit or abort ever
        #: failed half-way and left the pool tracking, inferring would
        #: make every later transaction silently join the orphaned one
        #: and run unlogged; with the explicit flag they fail loudly in
        #: ``begin_tracking`` instead.
        self._txn_depth = 0
        #: Handle of the transaction currently inside :meth:`transaction`
        #: (reentrant blocks share it).
        self._active_txn: Transaction | None = None
        self.checkpoint_interval = checkpoint_interval
        if self.pager.catalog_root == NO_PAGE:
            self._catalog = BTree.create(self.buffer_pool)
            self.pager.set_catalog_root(self._catalog.meta_page_id)
        else:
            self._catalog = BTree(self.buffer_pool, self.pager.catalog_root)

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, path: str, buffer_capacity: int = 256,
               page_size: int = PAGE_SIZE,
               checkpoint_interval: int = 16) -> "Database":
        return cls(path, create=True, buffer_capacity=buffer_capacity,
                   page_size=page_size,
                   checkpoint_interval=checkpoint_interval)

    @classmethod
    def open(cls, path: str, buffer_capacity: int = 256,
             checkpoint_interval: int = 16) -> "Database":
        return cls(path, create=False, buffer_capacity=buffer_capacity,
                   checkpoint_interval=checkpoint_interval)

    def close(self) -> None:
        # Drain first: parked commits get their fsync and their ack
        # (never a silent drop), and the checkpoint below then sees no
        # held-back frames.
        self._committer.close()
        self.checkpoint()
        self._wal.close()
        self.buffer_pool.flush_and_clear()
        self.pager.close()

    def _complete_commit(self, ticket: CommitTicket) -> None:
        """Committer callback: durable write-back of one fsynced commit."""
        self.buffer_pool.complete_commit(ticket.commit_lsn, ticket.images,
                                         ticket.mods)

    # -- write transactions --------------------------------------------------

    @contextmanager
    def transaction(self, wait: bool = True) -> Iterator["Transaction"]:
        """Run a block of page mutations atomically and durably.

        All pages dirtied inside the block stay in the buffer pool
        (no-steal) until, on normal exit, their after-images plus the
        header page are appended to the WAL and the commit is *published*
        — pre-images move into the version chains (pinned snapshots keep
        reading the old state), the commit LSN is assigned, and the
        frames stay held back from the file until the group committer's
        batched fsync covers the commit.  If the block raises, every
        dirtied frame is discarded and the on-disk state is untouched —
        but the meta fields of open B+-tree instances over those pages
        are stale and the instances must be re-opened (decoded nodes go
        with the frames); the catalog itself is refreshed here.

        Yields a :class:`Transaction` handle.  With ``wait=True`` (the
        default) the block does not return until the commit is durable —
        single-writer callers keep the classic "fsynced on exit"
        contract.  With ``wait=False`` the caller must invoke
        :meth:`Transaction.wait_durable` itself before acknowledging the
        commit; doing so *after* releasing its own locks is what lets
        pipelined writers share one fsync.

        Transactions serialize on a database-level lock (reentrancy is
        allowed and joins the outer transaction).

        The transaction's working set must fit the buffer pool; a block
        dirtying more pages than there are frames raises
        :class:`~repro.errors.BufferPoolError` and aborts cleanly.
        """
        with self._txn_lock:
            if self._txn_depth:
                # Reentrant use joins the enclosing transaction: the
                # outer exit commits or aborts the union of both blocks.
                yield self._active_txn
                return
            txn = Transaction(self)
            self._active_txn = txn
            header_snapshot = self.pager.header_state()
            self.pager.defer_header_writes()
            self.buffer_pool.begin_tracking()
            self._txn_depth = 1
            try:
                try:
                    yield txn
                    # WAL append under deferral too: if the log write
                    # fails, nothing was acknowledged and the whole block
                    # rolls back like any other error — and the
                    # half-appended records are truncated away so they
                    # can never become replayable later.  (Truncating is
                    # safe precisely because appends happen under the
                    # transaction lock: nothing can have appended after
                    # us.)
                    images = self.buffer_pool.transaction_pages()
                    images[0] = self.pager.header_page_image()
                    log_mark = self._wal.size
                    try:
                        self._wal.append_commit(images)
                    except BaseException:
                        try:
                            self._wal.truncate_to(log_mark)
                        except OSError:  # pragma: no cover - best effort
                            pass
                        raise
                except BaseException:
                    try:
                        self.buffer_pool.end_tracking_abort()
                    finally:
                        # Even a failed abort must not leak the header
                        # deferral or the stale in-memory header state.
                        self.pager.resume_header_writes(write=False)
                        self.pager.restore_header_state(header_snapshot)
                        # The catalog tree's in-memory meta (root, entry
                        # count) may describe aborted pages; re-read it.
                        self._catalog._load_meta()
                    raise
                # Publish: new readers see the commit, existing snapshots
                # keep the old versions; durability is the committer's
                # batched fsync, which the ticket below waits on.
                self.pager.resume_header_writes(write=False)
                commit_lsn, mods = self.buffer_pool.publish_commit(
                    txn._on_publish)
                txn.commit_lsn = commit_lsn
                txn._ticket = self._committer.submit(
                    CommitTicket(commit_lsn, images, mods))
            finally:
                self._txn_depth = 0
                self._active_txn = None
        if wait:
            txn.wait_durable()
            self.maybe_checkpoint()

    def maybe_checkpoint(self) -> None:
        """Checkpoint if enough commits accumulated since the last one.

        ``wait=False`` transaction users call this after their own
        :meth:`Transaction.wait_durable`, keeping log growth bounded on
        the pipelined-commit path too.
        """
        if self._wal.commits_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Flush everything to the database file and reset the WAL.

        Bounds recovery work and log growth.  Must also be called before
        mutating the file *outside* a transaction (bulk loads): resetting
        the log first guarantees no stale record can later replay over
        unlogged writes.
        """
        with self._txn_lock:
            if self.buffer_pool.in_transaction:
                raise WalError("checkpoint during an open transaction")
            # Every appended commit must be fsynced and written back
            # before the log resets — a held-back frame surviving a log
            # reset would have no redo copy anywhere.
            self._committer.drain()
            self.buffer_pool.flush()
            self.pager.write_header()
            self.pager.sync()
            self._wal.checkpoint()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- catalog ------------------------------------------------------------

    def _catalog_get(self, name: str) -> dict[str, Any] | None:
        raw = self._catalog.search(encode_key((name,)))
        if raw is None:
            return None
        return json.loads(raw.decode("utf-8"))

    def _catalog_put(self, name: str, entry: dict[str, Any],
                     replace: bool = False) -> None:
        raw = json.dumps(entry, sort_keys=True).encode("utf-8")
        self._catalog.insert(encode_key((name,)), raw, replace=replace)

    def _catalog_delete(self, name: str) -> None:
        # The B+-tree has no structural delete (the paper's system never
        # needed one); a tombstone entry keeps the catalog consistent.
        self._catalog.insert(encode_key((name,)),
                             json.dumps(None).encode("utf-8"), replace=True)

    def list_names(self) -> list[str]:
        """All live object names, sorted."""
        from repro.storage.record import decode_key

        with self._lock:
            names = []
            for key, value in self._catalog.items():
                if json.loads(value.decode("utf-8")) is None:
                    continue
                (name,) = decode_key(key, ("str",))
                names.append(name)
            return names

    def exists(self, name: str) -> bool:
        with self._lock:
            return self._catalog_get(name) is not None

    # -- B+-trees ---------------------------------------------------------------

    def create_btree(self, name: str) -> BTree:
        with self._lock:
            if self.exists(name):
                raise CatalogError(f"object {name!r} already exists")
            tree = BTree.create(self.buffer_pool)
            self._catalog_put(name, {"kind": _KIND_BTREE,
                                     "meta_page": tree.meta_page_id},
                              replace=True)
            return tree

    def open_btree(self, name: str) -> BTree:
        with self._lock:
            entry = self._catalog_get(name)
            if entry is None or entry.get("kind") != _KIND_BTREE:
                raise CatalogError(f"no B+-tree named {name!r}")
            return BTree(self.buffer_pool, entry["meta_page"])

    def drop(self, name: str) -> None:
        """Remove an object from the catalog (a metadata entry's overflow
        chain is freed; B+-tree pages are not — see :meth:`drop_btree`)."""
        with self._lock:
            entry = self._catalog_get(name)
            if entry is None:
                raise CatalogError(f"no object named {name!r}")
            self._free_meta_overflow(entry)
            self._catalog_delete(name)

    def drop_btree(self, name: str) -> None:
        """Remove a B+-tree from the catalog *and free all its pages*.

        Only safe when no reader can still be traversing the tree (the
        caller holds whatever latch excludes them); the plain
        :meth:`drop` leaves pages alone precisely so that replaced
        documents stay readable by executions already running.
        """
        with self._lock:
            entry = self._catalog_get(name)
            if entry is None or entry.get("kind") != _KIND_BTREE:
                raise CatalogError(f"no B+-tree named {name!r}")
            BTree(self.buffer_pool, entry["meta_page"]).drop()
            self._catalog_delete(name)

    # -- metadata -----------------------------------------------------------------

    def put_meta(self, name: str, payload: dict[str, Any]) -> None:
        """Store a JSON metadata document under ``name`` (upsert).

        Large payloads are transparently spilled to the overflow store
        (and the spill chain of a replaced large payload is freed).
        """
        with self._lock:
            old = self._catalog_get(name)
            raw = json.dumps(payload, sort_keys=True).encode("utf-8")
            if len(raw) > _META_INLINE_MAX:
                head_page, length = self.overflow.store(raw)
                entry = {"kind": _KIND_META,
                         "overflow": [head_page, length]}
            else:
                entry = {"kind": _KIND_META, "payload": payload}
            self._catalog_put(name, entry, replace=True)
            self._free_meta_overflow(old)

    def get_meta(self, name: str) -> dict[str, Any] | None:
        with self._lock:
            entry = self._catalog_get(name)
            if entry is None:
                return None
            if entry.get("kind") != _KIND_META:
                raise CatalogError(f"object {name!r} is not metadata")
            spilled = entry.get("overflow")
            if spilled is not None:
                head_page, length = spilled
                raw = self.overflow.load(head_page, length)
                return json.loads(raw.decode("utf-8"))
            return entry["payload"]

    def _free_meta_overflow(self, entry: dict[str, Any] | None) -> None:
        """Free the spill chain of a replaced/dropped metadata entry."""
        if entry is None or entry.get("kind") != _KIND_META:
            return
        spilled = entry.get("overflow")
        if spilled is not None:
            self.overflow.free(spilled[0])

    # -- accounting -----------------------------------------------------------------

    @property
    def stats(self):
        """Buffer pool counters (logical I/O)."""
        return self.buffer_pool.stats

    def reset_stats(self) -> None:
        self.buffer_pool.reset_stats()

    def mvcc_stats(self) -> dict[str, int]:
        """Snapshot/version gauges plus group-commit counters."""
        stats = self.buffer_pool.mvcc_stats()
        stats.update(self._committer.stats())
        return stats


class Transaction:
    """Handle for one :meth:`Database.transaction` block.

    ``commit_lsn`` is the commit's position in the global commit
    sequence, assigned at publish time (None while the block is still
    running, or if the block aborted).  ``on_publish`` registers a
    callback to run *inside* the publish critical section — atomically
    with the LSN assignment, under the buffer pool mutex, so it must not
    block or take locks; the catalog layer uses it to bump document
    version counters in lock-step with snapshot visibility.
    """

    __slots__ = ("db", "commit_lsn", "_on_publish", "_ticket")

    def __init__(self, db: Database):
        self.db = db
        self.commit_lsn: int | None = None
        self._on_publish: list = []
        self._ticket = None

    def on_publish(self, callback) -> None:
        self._on_publish.append(callback)

    def wait_durable(self, timeout: float | None = None) -> None:
        """Block until the commit's covering fsync completed.

        Raises :class:`~repro.errors.WalError` if the group committer
        failed.  No-op for aborted blocks.
        """
        if self._ticket is not None:
            self._ticket.wait(timeout)
