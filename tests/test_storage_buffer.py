"""Buffer pool tests: pinning, LRU eviction, write-back, accounting."""

import gc
import threading
import tracemalloc

import pytest

from repro.core.dbms import XmlDbms
from repro.errors import BufferPoolError
from repro.storage.btree import BTree, _Node
from repro.storage.buffer import BufferPool
from repro.storage.db import Database
from repro.storage.pager import Pager


@pytest.fixture
def pool(tmp_path):
    pager = Pager(str(tmp_path / "buf.db"), create=True, page_size=256)
    pool = BufferPool(pager, capacity=3)
    yield pool
    pager.close()


def fill(pool, count):
    """Allocate ``count`` pages, each tagged with its index."""
    ids = []
    for index in range(count):
        ids.append(pool.new_page(image(pool, index + 1)))
    return ids


class TestBasics:
    def test_new_page_is_resident_unpinned_and_dirty(self, pool):
        page_id = pool.new_page(image(pool, 7))
        assert page_id in pool.resident_pages()
        assert pool.pin_count(page_id) == 0
        assert pool.pager.read_page(page_id)[0] == 0
        pool.flush()
        assert pool.pager.read_page(page_id)[0] == 7

    def test_get_page_returns_written_data(self, pool):
        (page_id,) = fill(pool, 1)
        with pool.pinned(page_id) as page:
            assert page[0] == 1

    def test_unpin_without_pin_rejected(self, pool):
        (page_id,) = fill(pool, 1)
        pool.get_page(page_id)
        pool.unpin(page_id)
        with pytest.raises(BufferPoolError):
            pool.unpin(page_id)

    def test_capacity_must_be_positive(self, pool):
        with pytest.raises(BufferPoolError):
            BufferPool(pool.pager, capacity=0)


class TestEviction:
    def test_lru_victim_is_least_recently_used(self, pool):
        first, second, third = fill(pool, 3)
        pool.get_page(first, pin=False)      # first becomes MRU
        fill(pool, 1)                        # force one eviction
        resident = pool.resident_pages()
        assert second not in resident
        assert first in resident

    def test_eviction_writes_back_dirty_pages(self, pool):
        ids = fill(pool, 6)                  # overflows capacity 3
        # All data must still be readable (faulted back from disk).
        for index, page_id in enumerate(ids):
            with pool.pinned(page_id) as page:
                assert page[0] == index + 1

    def test_pinned_pages_are_not_evicted(self, pool):
        first, __, __ = fill(pool, 3)
        pool.get_page(first)                 # keep pinned
        fill(pool, 2)
        assert first in pool.resident_pages()
        pool.unpin(first)

    def test_all_pinned_raises(self, pool):
        for page_id in fill(pool, 3):
            pool.get_page(page_id)           # never unpinned
        with pytest.raises(BufferPoolError):
            pool.new_page(image(pool, 4))


def image(pool, tag):
    """A fresh page image whose first byte is ``tag``."""
    return bytes([tag]).ljust(pool.pager.page_size, b"\0")


def publish(pool, page_id):
    """Decode-and-publish as a B+-tree reader does; returns the node."""
    node = object()
    pool.publish_decoded(page_id, pool.get_page(page_id, pin=False), node)
    assert pool.decoded(page_id) is node
    return node


class TestDecodedSlot:
    """The decoded form of a page lives and dies with its frame."""

    def test_counted_once_and_served_as_a_logical_hit(self, pool):
        (page_id,) = fill(pool, 1)
        assert pool.decoded(page_id) is None
        publish(pool, page_id)
        assert pool.stats.decodes == 1
        hits = pool.stats.hits
        assert pool.decoded(page_id) is not None
        assert pool.stats.hits == hits + 1
        assert pool.stats.decodes == 1

    def test_evicting_drops_it(self, pool):
        (page_id,) = fill(pool, 1)
        publish(pool, page_id)
        fill(pool, 3)
        assert page_id not in pool.resident_pages()
        assert pool.decoded(page_id) is None
        pool.get_page(page_id, pin=False)    # faulted back: undecoded
        assert pool.decoded(page_id) is None

    def test_freeing_drops_it(self, pool):
        (page_id,) = fill(pool, 1)
        publish(pool, page_id)
        pool.free_page(page_id)
        assert pool.decoded(page_id) is None
        reused = pool.new_page(image(pool, 2))
        assert reused == page_id
        assert pool.decoded(page_id) is None

    def test_flush_and_clear_drops_it(self, pool):
        (page_id,) = fill(pool, 1)
        publish(pool, page_id)
        pool.flush_and_clear()
        assert pool.decoded(page_id) is None

    @pytest.mark.parametrize("held", [False, True])
    def test_aborting_drops_it(self, pool, held):
        (page_id,) = fill(pool, 1)
        if held:
            # A commit whose group fsync is pending: abort restores the
            # frame's bytes instead of dropping the frame.
            pool.begin_tracking()
            pool.put_page(page_id, image(pool, 2))
            pool.publish_commit()
        pool.begin_tracking()
        pool.put_page(page_id, image(pool, 9), decoded=object())
        assert pool.decoded(page_id) is not None
        pool.end_tracking_abort()
        assert pool.decoded(page_id) is None
        with pool.pinned(page_id) as page:
            assert page[0] == (2 if held else 1)

    def test_every_dirtying_event_clears_it(self, pool):
        (page_id,) = fill(pool, 1)
        publish(pool, page_id)
        pool.put_page(page_id, image(pool, 3))
        assert pool.decoded(page_id) is None

    def test_only_the_live_frames_own_buffer_is_accepted(self, pool):
        (page_id,) = fill(pool, 1)
        with pool.pinned(page_id) as page:
            pool.publish_decoded(page_id, bytearray(page), object())
        assert pool.decoded(page_id) is None
        assert pool.stats.decodes == 0


class TestPublishedBuffersAreImmutable:
    """The one rule of the storage layer: a page buffer that another
    thread can reach is never mutated again — writers swap whole images
    in, so whoever holds the old buffer keeps exactly what it read."""

    def test_frames_carry_no_latch(self, pool):
        (page_id,) = fill(pool, 1)
        assert not hasattr(pool._frames[page_id], "latch")
        assert not hasattr(pool, "latched")

    def test_held_buffer_survives_write_commit_abort_and_eviction(
            self, pool):
        (page_id,) = fill(pool, 1)
        held = pool.get_page(page_id, pin=False)
        before = bytes(held)
        snapshot = pool.pin_snapshot()

        def check():
            assert bytes(held) == before
            with pool.reading(snapshot):
                assert pool.get_page(page_id, pin=False) is held

        pool.begin_tracking()
        committed = image(pool, 2)
        pool.put_page(page_id, committed)
        check()                              # in-flight pre-image
        images = pool.transaction_pages()
        lsn, mods = pool.publish_commit()
        check()                              # version chain
        # Abort while the commit's write-back is pending: the restore
        # arm puts the superseded buffer back, it copies nothing.
        pool.begin_tracking()
        pool.put_page(page_id, image(pool, 3))
        pool.end_tracking_abort()
        check()
        assert pool.get_page(page_id, pin=False) is committed
        pool.complete_commit(lsn, images, mods)
        # Abort with nothing pending: the frame is dropped.
        pool.begin_tracking()
        pool.put_page(page_id, image(pool, 4))
        pool.end_tracking_abort()
        assert page_id not in pool.resident_pages()
        check()
        assert pool.get_page(page_id, pin=False)[0] == 2
        fill(pool, 3)                        # evict, then re-fault
        assert page_id not in pool.resident_pages()
        assert pool.get_page(page_id, pin=False)[0] == 2
        check()
        assert bytes(committed) == bytes(image(pool, 2))
        pool.release_snapshot(snapshot)

    def test_snapshot_readers_cannot_publish(self, pool):
        (page_id,) = fill(pool, 1)
        snapshot = pool.pin_snapshot()
        with pool.reading(snapshot), pytest.raises(BufferPoolError):
            pool.put_page(page_id, image(pool, 2))
        pool.release_snapshot(snapshot)

    def test_image_must_be_one_whole_page(self, pool):
        (page_id,) = fill(pool, 1)
        with pytest.raises(BufferPoolError):
            pool.put_page(page_id, b"short")
        with pytest.raises(BufferPoolError):
            pool.new_page(b"short")

    def test_every_frame_holds_bytes(self, tmp_path, dblp_xml):
        """One write protocol: whatever wrote or faulted a page in —
        bulk load, tree inserts and splits, an overflow chain, eviction
        and re-read — the frame holds an immutable ``bytes``."""
        with XmlDbms(str(tmp_path / "bytes.db"),
                     buffer_capacity=64) as dbms:
            dbms.load("dblp", xml=dblp_xml)
            dbms.update("dblp", "insert node <big>{$v}</big> "
                        "as first into /dblp",
                        bindings={"v": "x" * 20_000})
            dbms.update("dblp", 'replace value of node '
                        '/dblp/big/text() with "small"')
            dbms.db.overflow.store(b"y" * 10_000)
            assert "small" in dbms.session().query("dblp", "/dblp/big")
            frames = dbms.db.buffer_pool._frames
            assert len(frames) > 8
            assert {type(frame.data) for frame in frames.values()} \
                == {bytes}

    def test_a_resident_frame_costs_its_page_and_little_else(
            self, tmp_path):
        frames = 512
        with Pager(str(tmp_path / "mem.db"), create=True) as pager:
            pool = BufferPool(pager, capacity=frames)
            ids = [pool.new_page(bytes(pager.page_size))
                   for __ in range(frames)]
            pool.flush_and_clear()
            tracemalloc.start()
            try:
                start, __ = tracemalloc.get_traced_memory()
                for page_id in ids:
                    pool.get_page(page_id, pin=False)
                resident, __ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(pool.resident_pages()) == frames
            per_frame = (resident - start) / frames
            assert per_frame <= pager.page_size + 400, per_frame


class TestFlush:
    def test_flush_persists_without_evicting(self, pool):
        (page_id,) = fill(pool, 1)
        pool.flush()
        assert page_id in pool.resident_pages()
        raw = pool.pager.read_page(page_id)
        assert raw[0] == 1

    def test_flush_and_clear_empties_pool(self, pool):
        fill(pool, 2)
        pool.flush_and_clear()
        assert pool.resident_pages() == []

    def test_free_page_returns_to_pager(self, pool):
        (page_id,) = fill(pool, 1)
        pool.free_page(page_id)
        assert pool.pager.free_head == page_id

    def test_free_pinned_page_rejected(self, pool):
        (page_id,) = fill(pool, 1)
        pool.get_page(page_id)
        with pytest.raises(BufferPoolError):
            pool.free_page(page_id)


class TestStats:
    def test_hit_and_miss_accounting(self, pool):
        (page_id,) = fill(pool, 1)
        pool.flush_and_clear()
        pool.get_page(page_id, pin=False)    # miss
        pool.get_page(page_id, pin=False)    # hit
        assert pool.stats.misses >= 1
        assert pool.stats.hits >= 1

    def test_hit_rate(self, pool):
        (page_id,) = fill(pool, 1)
        for __ in range(9):
            pool.get_page(page_id, pin=False)
        assert pool.stats.hit_rate > 0.8

    def test_memory_bytes_bounded_by_capacity(self, pool):
        fill(pool, 10)
        assert pool.memory_bytes <= 3 * pool.pager.page_size


class TestStatsReset:
    def test_reset_takes_the_pool_mutex_and_spares_earlier_reads(
            self, tmp_path):
        with Database(str(tmp_path / "reset.db"), create=True) as db:
            db.create_btree("t").insert(b"k", b"v")
            taken = db.stats                 # read before the reset
            hits = taken.hits
            assert hits > 0
            done = threading.Event()

            def reset():
                db.reset_stats()
                done.set()

            worker = threading.Thread(target=reset, daemon=True)
            with db.buffer_pool._lock:       # counters are mid-update
                worker.start()
                assert not done.wait(0.2)    # so the reset must wait
            assert done.wait(30)
            worker.join(30)
            assert not worker.is_alive()
            assert db.stats.hits == 0
            assert taken.hits == hits        # not zeroed under its reader


class TestStatsLocking:
    def test_commit_cycle_mutates_stats_only_under_the_pool_lock(
            self, pool):
        # Swap the stats object for a probe that asserts the pool
        # mutex is held on every counter mutation, then drive a full
        # write-transaction cycle including the durable write-back
        # (whose counter used to be bumped outside the lock).
        from repro.storage.buffer import BufferStats

        armed = []

        class AssertingStats(BufferStats):
            def __setattr__(self, name, value):
                if armed:
                    assert pool._lock._is_owned(), (
                        f"stats.{name} mutated without the pool lock")
                object.__setattr__(self, name, value)

        pool.stats = AssertingStats()
        armed.append(True)
        pool.begin_tracking()
        pool.new_page(image(pool, 7))
        images = pool.transaction_pages()
        lsn, mods = pool.publish_commit()
        pool.complete_commit(lsn, images, mods)
        assert pool.stats.dirty_writebacks == len(mods) >= 1


class TestBoundedMemorySoak:
    """Resident memory is a function of the pool, not of history: a long
    update run strands no tree instances and no decoded nodes."""

    UPDATES = 200

    @staticmethod
    def census():
        gc.collect()
        nodes = trees = 0
        for obj in gc.get_objects():
            if type(obj) is _Node:
                nodes += 1
            elif type(obj) is BTree:
                trees += 1
        return nodes, trees

    def test_updates_strand_no_trees_and_no_decoded_nodes(
            self, tmp_path, dblp_xml):
        with XmlDbms(str(tmp_path / "soak.db"),
                     buffer_capacity=512) as dbms:
            dbms.load("dblp", xml=dblp_xml)
            pool = dbms.db.buffer_pool
            session = dbms.session()

            dbms.update("dblp",
                        "insert node <soak>start</soak> as first into /dblp")

            def step(index):
                dbms.update(
                    "dblp", "replace value of node /dblp/soak/text() "
                    "with $n", bindings={"n": f"n{index}"})
                assert session.query("dblp", "/dblp/soak") \
                    == f"<soak>n{index}</soak>"

            for index in range(8):           # reach the steady state
                step(index)
            __, warm_trees = self.census()
            for index in range(8, 8 + self.UPDATES):
                step(index)
            nodes, trees = self.census()
            assert nodes <= len(pool.resident_pages())
            assert trees <= warm_trees
            # Nothing on the pool refers back to a tree instance.
            for value in vars(pool).values():
                items = (value.values() if isinstance(value, dict)
                         else value if isinstance(value, (list, set))
                         else ())
                assert not any(
                    isinstance(getattr(item, "__self__", None), BTree)
                    for item in items)


class TestDecodesCounter:
    def test_rerun_after_unrelated_update_decodes_only_touched_pages(
            self, loaded):
        """``decodes`` repeats exactly with one client.  An update builds
        new tree instances and a new engine generation, but a resident
        page is decoded once per pool, not once per instance: only pages
        the commit rewrote can need decoding again."""
        heavy = "for $a in //article return $a/title"
        loaded.update("dblp",
                      "insert node <soak>0</soak> as first into /dblp")
        loaded.db.checkpoint()
        loaded.db.buffer_pool.flush_and_clear()       # nothing decoded
        session = loaded.session()
        stats = loaded.buffer_stats
        start = stats.decodes
        expected = session.query("dblp", heavy)
        cold = stats.decodes - start
        session.query("dblp", heavy)
        assert stats.decodes - start == cold          # warm: none at all

        installed = loaded.mvcc_stats()["versions_installed"]
        loaded.update("dblp",
                      'replace value of node /dblp/soak/text() with "1"')
        touched = loaded.mvcc_stats()["versions_installed"] - installed
        assert 0 < touched < cold
        start = stats.decodes
        assert session.query("dblp", heavy) == expected
        assert stats.decodes - start <= touched
