"""MVCC snapshot isolation, proven differentially.

Three instruments:

* **Differential stress** — N reader threads iterate queries under
  snapshot tickets while M writer threads apply random XQUF updates.
  Every reader result must be byte-identical to a *serial replay* of the
  committed update history truncated at the reader's pinned snapshot
  LSN, with :func:`repro.updates.memory.apply_to_dom` as the oracle — a
  reader that observes a torn update, a half-applied index maintenance
  step, or a commit newer than its pin diverges from the replay.

* **Hypothesis property** — random interleavings of page-level commits,
  snapshot pins and frees at the buffer-pool layer: each snapshot sees
  exactly the prefix of commits with LSN <= its pin, and reclamation
  never frees a page any pinned snapshot can still reach (asserted
  against ``Pager.free_page_count``).

* **Group commit** — concurrent writers against a deliberately slow
  fsync must share fsyncs (``fsyncs_saved > 0``) while every commit
  remains individually durable and readers stay consistent throughout.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbms import XmlDbms
from repro.storage.btree import BTree
from repro.storage.db import Database
from repro.updates.memory import apply_to_dom
from repro.xmlkit.parser import parse as parse_document
from repro.xmlkit.serializer import serialize
from repro.xq.parser import parse_program

BASE_XML = "<log><meta>start</meta></log>"
JOIN_TIMEOUT = 120.0


def run_threads(workers: list[threading.Thread],
                errors: list[BaseException]) -> None:
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=JOIN_TIMEOUT)
        assert not worker.is_alive(), "worker timed out (deadlock?)"
    assert not errors, errors[0]


# ---------------------------------------------------------------------------
# differential stress: readers vs. serial replay at their snapshot LSN
# ---------------------------------------------------------------------------


class TestSnapshotDifferentialStress:
    """Concurrent readers each equal a serial replay at their pin."""

    WRITERS = 3
    UPDATES_PER_WRITER = 24
    READERS = 4

    def _writer_statements(self, tid: int,
                           rng: random.Random) -> list[str]:
        """A reproducible single-writer program over its own elements.

        Each writer only ever touches elements it inserted itself
        (names prefixed ``w{tid}``), so cross-thread interleavings
        cannot invalidate each other's target paths — the history
        replays deterministically in commit-LSN order.
        """
        statements = []
        live: list[str] = []
        for k in range(self.UPDATES_PER_WRITER):
            name = f"w{tid}x{k}"
            choice = rng.random()
            if live and choice < 0.20:
                victim = live.pop(rng.randrange(len(live)))
                statements.append(f"delete node /log/{victim}")
            elif live and choice < 0.40:
                target = rng.choice(live)
                statements.append(f"replace value of node /log/{target}"
                                  f'/text() with "{name}"')
            elif live and choice < 0.50:
                old = live.pop(rng.randrange(len(live)))
                renamed = f"w{tid}r{k}"
                statements.append(f"rename node /log/{old} as {renamed}")
                live.append(renamed)
            else:
                statements.append(f"insert node <{name}>{k}</{name}> "
                                  f"as last into /log")
                live.append(name)
        return statements

    def test_readers_equal_serial_replay_at_pinned_lsn(self, tmp_path):
        dbms = XmlDbms(str(tmp_path / "mvcc.db"), buffer_capacity=512)
        dbms.load("log", xml=BASE_XML)
        history: list[tuple[int, str]] = []
        history_lock = threading.Lock()
        observations: list[tuple[int, str]] = []
        obs_lock = threading.Lock()
        errors: list[BaseException] = []
        writers_done = threading.Event()
        remaining = [self.WRITERS]

        def writer(tid: int) -> None:
            try:
                rng = random.Random(1000 + tid)
                for statement in self._writer_statements(tid, rng):
                    result = dbms.update("log", statement)
                    assert result.commit_lsn > 0
                    with history_lock:
                        history.append((result.commit_lsn, statement))
            except BaseException as exc:  # noqa: BLE001 — surfaced by join
                errors.append(exc)
            finally:
                with history_lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        writers_done.set()

        def reader(tid: int) -> None:
            try:
                session = dbms.session()
                while True:
                    done_before = writers_done.is_set()
                    with dbms.read_ticket("log") as ticket:
                        text = session.query("log", "/log")
                        again = session.query("log", "/log")
                        # Repeatable read: one ticket, one state —
                        # regardless of commits landing in between.
                        assert text == again, \
                            f"ticket at lsn {ticket.snapshot_lsn} unstable"
                        with obs_lock:
                            observations.append(
                                (ticket.snapshot_lsn, text))
                    if done_before:
                        return
                    time.sleep(0.002 * tid)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        run_threads(
            [threading.Thread(target=writer, args=(tid,), daemon=True)
             for tid in range(self.WRITERS)]
            + [threading.Thread(target=reader, args=(tid,), daemon=True)
               for tid in range(self.READERS)],
            errors)

        assert len(history) == self.WRITERS * self.UPDATES_PER_WRITER
        lsns = [lsn for lsn, __ in history]
        assert len(set(lsns)) == len(lsns), "commit LSNs must be unique"
        ordered = sorted(history)

        # Serial replay oracle: for each observed snapshot LSN, apply
        # exactly the commits with LSN <= pin, in LSN order, to a DOM.
        replay_cache: dict[int, str] = {}

        def replay(pin_lsn: int) -> str:
            cached = replay_cache.get(pin_lsn)
            if cached is not None:
                return cached
            dom = parse_document(BASE_XML)
            for lsn, statement in ordered:
                if lsn > pin_lsn:
                    break
                apply_to_dom(dom, parse_program(statement).body)
            text = serialize(dom.root_element)
            replay_cache[pin_lsn] = text
            return text

        assert observations
        for pin_lsn, text in observations:
            assert text == replay(pin_lsn), \
                f"snapshot at lsn {pin_lsn} diverged from serial replay"

        stats = dbms.mvcc_stats()
        assert stats["snapshots_pinned"] == 0
        assert stats["snapshots_opened"] >= len(observations)
        # The stress only proves anything if readers genuinely hit the
        # version store (live-only reads would pass trivially).
        assert stats["versioned_reads"] > 0
        assert stats["group_commits"] == len(history)
        dbms.close()

    def test_streaming_cursors_equal_serial_replay_at_pinned_lsn(
            self, tmp_path):
        """The QueryServer streaming path: a cursor's *whole* result —
        first page to last — comes from the snapshot pinned at
        submission, no matter how many commits land mid-stream."""
        from repro.core import QueryServer

        dbms = XmlDbms(str(tmp_path / "stream.db"), buffer_capacity=512)
        dbms.load("log", xml=BASE_XML)
        server = QueryServer(dbms, workers=6)
        history: list[tuple[int, str]] = []
        history_lock = threading.Lock()
        observations: list[tuple[int, str]] = []
        obs_lock = threading.Lock()
        errors: list[BaseException] = []
        writers_done = threading.Event()
        writers = 2
        remaining = [writers]

        def writer(tid: int) -> None:
            try:
                rng = random.Random(2000 + tid)
                for statement in self._writer_statements(tid, rng):
                    result = dbms.update("log", statement)
                    with history_lock:
                        history.append((result.commit_lsn, statement))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                with history_lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        writers_done.set()

        def reader(tid: int) -> None:
            try:
                while True:
                    done_before = writers_done.is_set()
                    stream = server.submit_stream(
                        "log", "/log/*", serialize=True, page_size=3)
                    rows: list[str] = []
                    for page in stream.pages():
                        rows.extend(page)
                        # Stall between pages so commits land while the
                        # cursor is mid-stream.
                        time.sleep(0.001)
                    assert stream.snapshot_lsn is not None
                    with obs_lock:
                        observations.append(
                            (stream.snapshot_lsn, "".join(rows)))
                    if done_before:
                        return
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        run_threads(
            [threading.Thread(target=writer, args=(tid,), daemon=True)
             for tid in range(writers)]
            + [threading.Thread(target=reader, args=(tid,), daemon=True)
               for tid in range(3)],
            errors)
        server.close()

        ordered = sorted(history)
        replay_cache: dict[int, str] = {}

        def replay(pin_lsn: int) -> str:
            cached = replay_cache.get(pin_lsn)
            if cached is None:
                dom = parse_document(BASE_XML)
                for lsn, statement in ordered:
                    if lsn > pin_lsn:
                        break
                    apply_to_dom(dom, parse_program(statement).body)
                cached = "".join(serialize(child)
                                 for child in dom.root_element.children
                                 if child.is_element)
                replay_cache[pin_lsn] = cached
            return cached

        assert observations
        for pin_lsn, text in observations:
            assert text == replay(pin_lsn), \
                f"stream at lsn {pin_lsn} diverged from serial replay"
        # At least one stream must have been racing the writers (pinned
        # strictly before the last commit), or the test proved nothing.
        last_lsn = max(lsn for lsn, __ in history)
        assert any(pin < last_lsn for pin, __ in observations)
        dbms.close()


# ---------------------------------------------------------------------------
# hypothesis property: prefix visibility + reclamation safety
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(st.sampled_from(["commit", "pin", "release", "free"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=254)),
    min_size=1, max_size=32)


class TestSnapshotPrefixProperty:
    """Page-level model check of visibility and reclamation.

    The model: ``committed`` maps live page → its committed fill byte;
    every pinned snapshot remembers the mapping at its pin.  After any
    interleaving of commits, pins, releases and transactional frees,
    each snapshot must read its remembered bytes exactly, and the
    pager's free count must equal the model's (a freed page becomes
    reusable only once no snapshot pinned before the free remains).
    """

    PAGES = 4

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_prefix_visibility_and_reclamation(self, ops):
        path = os.path.join(tempfile.mkdtemp("mvccprop"), "p.db")
        db = Database(path, buffer_capacity=16)
        pool = db.buffer_pool
        page_size = db.pager.page_size
        try:
            committed: dict[int, int] = {}
            with db.transaction():
                for __ in range(self.PAGES):
                    page_id = pool.new_page(bytes([1]) * page_size)
                    committed[page_id] = 1
            base_free = db.pager.free_page_count()
            # (snapshot, expected page→byte at pin, lsn)
            pinned: list[tuple[object, dict[int, int], int]] = []
            # (free-commit lsn,) for frees whose pager free is deferred.
            free_gates: list[int] = []
            executed_frees = 0

            def model_executed_frees() -> int:
                floor = min((lsn for __, ___, lsn in pinned),
                            default=None)
                done = 0
                for gate in free_gates:
                    if floor is None or floor >= gate:
                        done += 1
                return done

            for kind, index, value in ops:
                if kind == "commit" and committed:
                    page_id = sorted(committed)[index % len(committed)]
                    fill = value + 1
                    with db.transaction():
                        pool.put_page(page_id, bytes([fill]) * page_size)
                    committed[page_id] = fill
                elif kind == "pin":
                    snapshot = pool.pin_snapshot()
                    pinned.append((snapshot, dict(committed),
                                   snapshot.lsn))
                elif kind == "release" and pinned:
                    snapshot, __, ___ = pinned.pop(index % len(pinned))
                    pool.release_snapshot(snapshot)
                elif kind == "free" and len(committed) > 1:
                    page_id = sorted(committed)[index % len(committed)]
                    with db.transaction() as txn:
                        pool.free_page(page_id)
                    committed.pop(page_id)
                    free_gates.append(txn.commit_lsn)

                # Every snapshot reads exactly its pinned prefix.
                for snapshot, expected, lsn in pinned:
                    if not expected:
                        continue
                    probe = sorted(expected)[value % len(expected)]
                    with pool.reading(snapshot):
                        data = pool.get_page(probe, pin=False)
                        assert data[0] == expected[probe], \
                            f"snapshot at lsn {lsn} read torn page {probe}"
                # Reclamation never frees a reachable page.
                executed_frees = model_executed_frees()
                assert db.pager.free_page_count() \
                    == base_free + executed_frees

            for snapshot, __, ___ in pinned:
                pool.release_snapshot(snapshot)
            assert db.pager.free_page_count() \
                == base_free + len(free_gates)
            stats = pool.mvcc_stats()
            assert stats["snapshots_pinned"] == 0
            assert stats["versions_retained"] == 0
            assert stats["pending_frees"] == 0
        finally:
            db.close()


# ---------------------------------------------------------------------------
# group commit: shared fsyncs, individual durability
# ---------------------------------------------------------------------------


class TestGroupCommit:
    def test_concurrent_writers_share_fsyncs(self, tmp_path,
                                             monkeypatch):
        """With a slow fsync, pipelined writers must batch: strictly
        fewer fsyncs than commits, every commit individually durable."""
        from repro.storage import wal as walmod

        real_sync = walmod.WriteAheadLog.sync

        def slow_sync(self):
            time.sleep(0.01)
            real_sync(self)

        monkeypatch.setattr(walmod.WriteAheadLog, "sync", slow_sync)
        dbms = XmlDbms(str(tmp_path / "gc.db"), buffer_capacity=256)
        dbms.load("log", xml=BASE_XML)
        threads = 8
        per_thread = 4
        errors: list[BaseException] = []
        lsns: list[int] = []
        lock = threading.Lock()

        def writer(tid: int) -> None:
            try:
                for k in range(per_thread):
                    result = dbms.update(
                        "log", f"insert node <g{tid}x{k}>v</g{tid}x{k}> "
                               f"as last into /log")
                    with lock:
                        lsns.append(result.commit_lsn)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        run_threads([threading.Thread(target=writer, args=(tid,),
                                      daemon=True)
                     for tid in range(threads)], errors)
        stats = dbms.mvcc_stats()
        assert stats["group_commits"] == threads * per_thread
        assert stats["group_fsyncs"] < stats["group_commits"], \
            "no fsync was ever shared — group commit is not batching"
        assert stats["fsyncs_saved"] \
            == stats["group_commits"] - stats["group_fsyncs"]
        assert stats["max_batch"] >= 2
        assert len(set(lsns)) == threads * per_thread
        # Every commit really landed (all inserts present, all whole).
        labels = sorted(node.name
                        for node in dbms.execute("log", "/log/*")
                        if node.name != "meta")
        assert labels == sorted(f"g{tid}x{k}" for tid in range(threads)
                                for k in range(per_thread))
        dbms.close()

    def test_commit_lsn_orders_snapshot_visibility(self, tmp_path):
        """A snapshot pinned between two commits sees exactly the first."""
        dbms = XmlDbms(str(tmp_path / "vis.db"))
        dbms.load("log", xml=BASE_XML)
        first = dbms.update("log",
                            "insert node <a>1</a> as last into /log")
        with dbms.read_ticket("log") as ticket:
            assert ticket.snapshot_lsn >= first.commit_lsn
            # Writers never run on a snapshot-bound thread; commit the
            # second update from the side while the ticket stays pinned.
            box: list = []
            helper = threading.Thread(
                target=lambda: box.append(dbms.update(
                    "log", "insert node <b>2</b> as last into /log")),
                daemon=True)
            helper.start()
            helper.join(timeout=JOIN_TIMEOUT)
            assert not helper.is_alive() and box
            assert box[0].commit_lsn > ticket.snapshot_lsn
            session = dbms.session()
            text = session.query("log", "/log")
            assert "<a>1</a>" in text
            assert "<b>" not in text
        # A fresh ticket (new pin) sees both commits.
        with dbms.read_ticket("log"):
            text = dbms.session().query("log", "/log")
            assert "<a>1</a>" in text and "<b>2</b>" in text
        dbms.close()


# ---------------------------------------------------------------------------
# shared decoded nodes: a bound reader never picks up a writer's node
# ---------------------------------------------------------------------------

class TestDecodedNodesRespectSnapshots:
    def test_bound_reader_ignores_node_published_before_commit(
            self, tmp_path):
        """Decoded nodes are shared pool-wide, so a writer's freshly
        published node is one lookup away from every reader.  Step a
        writer through capture → publish → commit while a reader stays
        bound to the snapshot pinned before it."""
        db = Database(str(tmp_path / "decoded.db"), buffer_capacity=16)
        pool = db.buffer_pool
        with db.transaction():
            tree = BTree.create(pool)
            tree.insert(b"k", b"old")
        leaf_id = tree.root_page_id

        published, commit, done = (threading.Event(), threading.Event(),
                                   threading.Event())
        errors: list[BaseException] = []
        live_nodes: list[object] = []

        def writer() -> None:
            try:
                with db.transaction():
                    # A different instance over the same meta page.
                    BTree(pool, tree.meta_page_id).insert(
                        b"k", b"new", replace=True)
                    live_nodes.append(pool.decoded(leaf_id))
                    published.set()
                    assert commit.wait(JOIN_TIMEOUT)
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)
            finally:
                published.set()
                done.set()

        snapshot = pool.pin_snapshot()
        try:
            with pool.reading(snapshot):
                assert tree.search(b"k") == b"old"
                shared = pool.decoded(leaf_id)
                assert shared is not None       # the reader published it
                worker = threading.Thread(target=writer, daemon=True)
                worker.start()
                assert published.wait(JOIN_TIMEOUT) and not errors
                # Pre-image captured, modified node published, not yet
                # committed: the live slot holds the writer's node ...
                (live,) = live_nodes
                assert live is not None and live is not shared
                assert list(live.values) == [b"new"]
                # ... which the bound reader must not be handed.
                assert pool.decoded(leaf_id) is None
                assert tree.search(b"k") == b"old"
                commit.set()
                assert done.wait(JOIN_TIMEOUT) and not errors
                worker.join(timeout=JOIN_TIMEOUT)
                assert not worker.is_alive()
                # Committed above the pin: still the snapshot's value.
                assert pool.decoded(leaf_id) is None
                assert tree.search(b"k") == b"old"
        finally:
            pool.release_snapshot(snapshot)
        later = pool.pin_snapshot()
        try:
            with pool.reading(later):
                assert tree.search(b"k") == b"new"
        finally:
            pool.release_snapshot(later)
        db.close()

    def test_fresh_instances_under_snapshots_while_a_writer_splits(
            self, tmp_path):
        """Stress: every reader iteration opens its *own* tree instance
        under a fresh snapshot — all of them share the pool's decoded
        nodes with a writer that keeps splitting leaves.  A reader that
        was ever handed a node newer than its pin sees a key beyond its
        counter (or misses one below it)."""
        commits, readers = 150, 6
        db = Database(str(tmp_path / "stress.db"), buffer_capacity=256,
                      page_size=256)
        pool = db.buffer_pool
        with db.transaction():
            tree = BTree.create(pool)
            tree.insert(b"zcounter", b"-1")
        meta = tree.meta_page_id
        done = threading.Event()
        errors: list[BaseException] = []
        checked = [0] * readers

        def key(i: int) -> bytes:
            return b"k%06d" % i

        def writer() -> None:
            try:
                for i in range(commits):
                    with db.transaction(wait=False) as txn:
                        tree.insert(key(i), b"v" * 20)
                        tree.insert(b"zcounter", b"%d" % i, replace=True)
                    txn.wait_durable()
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)
            finally:
                done.set()

        def reader(slot: int) -> None:
            try:
                while not done.is_set() or not checked[slot]:
                    snapshot = pool.pin_snapshot()
                    try:
                        with pool.reading(snapshot):
                            mine = BTree(pool, meta)
                            count = int(mine.search(b"zcounter"))
                            assert [k for k, __ in mine.items()] == [
                                *map(key, range(count + 1)), b"zcounter"]
                    finally:
                        pool.release_snapshot(snapshot)
                    checked[slot] += 1
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(
                [threading.Thread(target=writer, daemon=True)]
                + [threading.Thread(target=reader, args=(slot,),
                                    daemon=True)
                   for slot in range(readers)], errors)
        finally:
            sys.setswitchinterval(interval)
        assert all(checked)
        assert tree.height > 1                   # leaves really split
        db.close()
