"""Differential concurrency stress suite.

The serving layer's correctness claim is *differential*: whatever a
workload produces when executed serially, it must produce byte-identical
results when the same queries run from many threads and sessions against
one shared :class:`~repro.core.dbms.XmlDbms` — and it must keep making
progress (every test runs under a global deadlock timeout).

Layers under test:

* the :class:`~repro.storage.latch.SharedLatch` primitive itself;
* the B+-tree under the protocol production uses — a writer inside
  ``db.transaction()``, readers under pinned snapshots — vs. a dict model;
* the shared engine/plan caches (the stress test);
* catalog races — ``load()`` replacing a document under an open cursor;
* the :class:`~repro.core.server.QueryServer` worker pool, admission
  control and deadlines.
"""

import sys
import threading
import time

import pytest

from repro.core import QueryServer, XmlDbms
from repro.errors import (
    AdmissionError,
    CatalogError,
    ResourceLimitExceeded,
    ServerClosedError,
    WalError,
    XQSyntaxError,
)
from repro.storage.btree import BTree
from repro.storage.db import Database
from repro.storage.latch import SharedLatch
from repro.storage.record import encode_key
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.queries import CORRECTNESS_QUERIES

#: Global per-test deadlock budget (seconds).  Generous — the suite
#: normally finishes in a fraction of it — but finite, so a latch cycle
#: fails the test instead of hanging CI.
JOIN_TIMEOUT = 120.0

#: The stress geometry the issue pins: 8 threads × 16 sessions each.
STRESS_THREADS = 8
SESSIONS_PER_THREAD = 16

#: A representative slice of the milestone workload: every query family
#: (paths, nesting, construction, some/and/or/not, strict merging), kept
#: small enough that the full stress matrix stays fast.
STRESS_QUERIES = [
    CORRECTNESS_QUERIES["q01-all-titles"],
    CORRECTNESS_QUERIES["q03-text-leaves"],
    CORRECTNESS_QUERIES["q08-some-const"],
    CORRECTNESS_QUERIES["q10-strict-merge"],
    CORRECTNESS_QUERIES["q11-boolean"],
    CORRECTNESS_QUERIES["q16-kitchen-sink"],
]
STRESS_PROFILES = ["m4", "engine-2"]


def run_threads(workers, timeout=JOIN_TIMEOUT):
    """Start, join with a deadline, and re-raise worker failures."""
    errors = []

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(fn), daemon=True)
               for fn in workers]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    stuck = [thread for thread in threads if thread.is_alive()]
    assert not stuck, (f"{len(stuck)} worker thread(s) still alive after "
                       f"{timeout}s — deadlock?")
    if errors:
        raise errors[0]


@pytest.fixture(scope="module")
def shared_dbms(tmp_path_factory):
    """One dbms, shared by every thread in this module."""
    path = str(tmp_path_factory.mktemp("conc") / "conc.db")
    with XmlDbms(path, buffer_capacity=512) as dbms:
        dbms.load("dblp", xml=generate_dblp(
            DblpConfig(articles=20, inproceedings=6, name_pool=8)))
        yield dbms


# ---------------------------------------------------------------------------
# the latch primitive
# ---------------------------------------------------------------------------


class TestSharedLatch:
    def test_readers_are_concurrent(self):
        latch = SharedLatch()
        inside = threading.Barrier(4, timeout=JOIN_TIMEOUT)

        def reader():
            with latch.shared():
                # All four readers must sit inside the latch at once.
                inside.wait()

        run_threads([reader] * 4)

    def test_writer_excludes_readers_and_writers(self):
        latch = SharedLatch()
        active = []
        seen_overlap = []

        def worker(exclusive):
            def run():
                for __ in range(200):
                    ctx = (latch.exclusive() if exclusive
                           else latch.shared())
                    with ctx:
                        active.append(exclusive)
                        if exclusive and len(active) > 1:
                            seen_overlap.append(tuple(active))
                        active.pop()
            return run

        run_threads([worker(True), worker(True), worker(False),
                     worker(False)])
        assert not seen_overlap

    def test_exclusive_is_reentrant_and_allows_shared_inside(self):
        latch = SharedLatch()
        inside, outside = [], []

        def owner():
            with latch.exclusive():
                with latch.exclusive():
                    with latch.shared():
                        inside.append(True)

        def stranger():
            with latch.exclusive():
                outside.append(True)

        run_threads([owner])
        # Every nested hold was released: another thread gets it alone.
        run_threads([stranger])
        assert inside and outside

    def test_nested_shared_overtakes_a_waiting_writer(self):
        """Reader preference, the property the B+-tree depends on: a
        thread already holding the latch shared (an open scan) may take
        it shared again even while a writer is queued — a waiting
        writer blocks nobody."""
        latch = SharedLatch()
        reader_inside = threading.Event()
        writer_started = threading.Event()

        def reader():
            with latch.shared():
                reader_inside.set()
                assert writer_started.wait(JOIN_TIMEOUT)
                time.sleep(0.05)          # let the writer block
                with latch.shared():      # must not queue behind it
                    pass

        def writer():
            assert reader_inside.wait(JOIN_TIMEOUT)
            writer_started.set()
            with latch.exclusive():
                pass

        run_threads([reader, writer])


# ---------------------------------------------------------------------------
# B+-tree vs. dict model: transactional writers, snapshot readers
# ---------------------------------------------------------------------------


class TestBTreeUnderConcurrency:
    """A tree instance is not a synchronisation point; the protocol is.
    Writers run inside ``db.transaction()`` (one at a time), every
    reader opens its own instance under a pinned snapshot — and sees
    exactly the commits at or below its pin, never a half-applied
    split, while taking no latch anywhere."""

    @pytest.fixture
    def db(self, tmp_path):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Database(str(tmp_path / "t.db"), create=True,
                          buffer_capacity=256, page_size=512) as db:
                yield db
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def snapshot_reader(db, meta, check):
        """Run ``check(tree)`` on a fresh instance under a fresh pin."""
        pool = db.buffer_pool
        snapshot = pool.pin_snapshot()
        try:
            with pool.reading(snapshot):
                check(BTree(pool, meta))
        finally:
            pool.release_snapshot(snapshot)

    def test_scans_race_inserts_without_corruption(self, db):
        with db.transaction():
            tree = BTree.create(db.buffer_pool)
        meta = tree.meta_page_id
        committed = {}
        commit_lock = threading.Lock()
        writing = [2]
        racing = []

        def writer(base):
            def run():
                try:
                    for i in range(150):
                        key = base + i * 7
                        with db.transaction():
                            tree.insert(encode_key((key,)),
                                        str(key).encode(), replace=True)
                        with commit_lock:   # any later pin sees it
                            committed[key] = str(key).encode()
                finally:
                    with commit_lock:
                        writing[0] -= 1
            return run

        def scanner():
            while True:
                with commit_lock:
                    expected = dict(committed)
                    last = not writing[0]

                def check(mine):
                    got = dict(mine.range_scan())
                    # Every key committed before the pin must be
                    # present with its exact value; keys are strictly
                    # ascending (no torn splits).
                    keys = list(got)
                    assert keys == sorted(keys)
                    for key, value in expected.items():
                        assert got[encode_key((key,))] == value
                    if 0 < len(got) < 300:
                        racing.append(len(got))

                self.snapshot_reader(db, meta, check)
                if last:
                    return

        run_threads([writer(0), writer(100_000), scanner, scanner])
        assert racing                 # scans really ran between commits
        assert tree.height > 1        # and leaves really split
        assert dict(BTree(db.buffer_pool, meta).range_scan()) == {
            encode_key((key,)): value
            for key, value in committed.items()}

    def test_point_lookups_race_inserts(self, db):
        with db.transaction():
            tree = BTree.create(db.buffer_pool)
            for i in range(300):
                tree.insert(encode_key((i,)), str(i).encode())
        meta = tree.meta_page_id

        done = threading.Event()

        def reader():
            def check(mine):
                for i in range(300):
                    assert mine.search(encode_key((i,))) == \
                        str(i).encode()

            while not done.is_set():
                self.snapshot_reader(db, meta, check)

        def writer():
            try:
                for i in range(300, 600):
                    with db.transaction():
                        tree.insert(encode_key((i,)), str(i).encode())
            finally:
                done.set()

        run_threads([reader, reader, reader, writer])
        assert len(tree) == 600
        assert db.mvcc_stats()["versioned_reads"] > 0


# ---------------------------------------------------------------------------
# the headline stress test: N threads × M sessions ≡ serial
# ---------------------------------------------------------------------------


class TestStressDifferential:
    def test_shared_dbms_serves_identical_results(self, shared_dbms):
        """8 threads × 16 sessions each replay the workload; every result
        must be byte-identical to its serial execution."""
        expected = {
            (profile, query): shared_dbms.session(profile=profile)
            .query("dblp", query)
            for profile in STRESS_PROFILES
            for query in STRESS_QUERIES
        }

        def client(thread_index):
            def run():
                for session_index in range(SESSIONS_PER_THREAD):
                    profile = STRESS_PROFILES[
                        (thread_index + session_index)
                        % len(STRESS_PROFILES)]
                    with shared_dbms.session(profile=profile) as session:
                        for query in STRESS_QUERIES:
                            assert session.query("dblp", query) == \
                                expected[(profile, query)]
            return run

        run_threads([client(index) for index in range(STRESS_THREADS)])

    def test_interleaved_cursors_across_threads(self, shared_dbms):
        """Each thread drives several half-open cursors of its own while
        the other threads do the same against the shared engines."""
        queries = STRESS_QUERIES[:3]
        session = shared_dbms.session()
        expected = [session.query("dblp", query) for query in queries]

        def client():
            own = shared_dbms.session()
            prepared = [own.prepare("dblp", query) for query in queries]
            for __ in range(8):
                cursors = [p.execute() for p in prepared]
                # Drain round-robin, two nodes at a time.
                parts = [[] for __ in cursors]
                live = set(range(len(cursors)))
                while live:
                    for index in sorted(live):
                        nodes = cursors[index].fetch(2)
                        if nodes:
                            parts[index].extend(nodes)
                        else:
                            live.discard(index)
                for cursor in cursors:
                    cursor.close()
                from repro.xmlkit.serializer import serialize
                for index, nodes in enumerate(parts):
                    assert "".join(serialize(node) for node in nodes) \
                        == expected[index]
            return None

        run_threads([client] * STRESS_THREADS)

    def test_shared_session_prepare_is_thread_safe(self, shared_dbms):
        """One *shared* session: the locked plan cache serves every
        thread the same compiled plans, and hit counts add up."""
        session = shared_dbms.session()
        query = STRESS_QUERIES[0]
        expected = session.query("dblp", query)

        def client():
            for __ in range(20):
                assert session.query("dblp", query) == expected

        run_threads([client] * STRESS_THREADS)
        info = session.cache_info()
        assert info.hits + info.misses >= STRESS_THREADS * 20
        assert info.size >= 1


# ---------------------------------------------------------------------------
# catalog races: load()/drop() vs. open cursors
# ---------------------------------------------------------------------------

OLD_DOC = "<r>" + "".join(f"<item>old{i}</item>" for i in range(64)) + "</r>"
NEW_DOC = "<r>" + "".join(f"<item>new{i}</item>" for i in range(5)) + "</r>"


class TestCatalogRaces:
    @pytest.fixture
    def dbms(self, tmp_path):
        with XmlDbms(str(tmp_path / "cat.db"), buffer_capacity=64) as dbms:
            dbms.load("doc", xml=OLD_DOC)
            yield dbms

    def test_open_cursor_survives_replacement_on_old_snapshot(self, dbms):
        """A cursor opened before ``load()`` replaces its document
        finishes on the *old* snapshot — never a mix of the two."""
        session = dbms.session()
        expected_old = session.query("doc", "//item")
        prepared = session.prepare("doc", "//item")
        cursor = prepared.execute()
        first = cursor.fetch(3)          # cursor is live mid-results

        dbms.load("doc", xml=NEW_DOC)    # replace under the open cursor

        from repro.xmlkit.serializer import serialize
        rest = cursor.fetchall()
        cursor.close()
        text = "".join(serialize(node) for node in first + rest)
        assert text == expected_old
        assert "new" not in text

        # The *next* execution of the same prepared query re-prepares
        # against the replacement document.
        assert prepared.query() == session.query("doc", "//item")
        assert "old" not in prepared.query()

    def test_replacement_racing_readers_is_linearizable(self, dbms):
        """Concurrent readers during ``load()`` see exactly the old or
        exactly the new document, never a torn mixture."""
        session = dbms.session()
        old_text = session.query("doc", "//item")
        stop = threading.Event()
        outputs = []

        def reader():
            own = dbms.session()
            while not stop.is_set():
                outputs.append(own.query("doc", "//item"))

        def replacer():
            try:
                for xml in (NEW_DOC, OLD_DOC, NEW_DOC):
                    time.sleep(0.02)
                    dbms.load("doc", xml=xml)
            finally:
                stop.set()

        run_threads([reader, reader, replacer])
        new_text = dbms.session().query("doc", "//item")
        for text in outputs:
            assert text in (old_text, new_text), \
                f"torn read: {text[:80]}..."

    def test_execute_after_drop_raises_catalog_error(self, dbms):
        session = dbms.session()
        prepared = session.prepare("doc", "//item")
        assert prepared.query()          # works while loaded
        dbms.drop("doc")
        with pytest.raises(CatalogError):
            prepared.execute()


# ---------------------------------------------------------------------------
# the query server
# ---------------------------------------------------------------------------


class TestQueryServer:
    def test_results_match_serial_under_load(self, shared_dbms):
        expected = {query: shared_dbms.session().query("dblp", query)
                    for query in STRESS_QUERIES}
        with QueryServer(shared_dbms, workers=STRESS_THREADS,
                         max_pending=256) as server:
            futures = [(query, server.submit("dblp", query,
                                             serialize=True))
                       for __ in range(6)
                       for query in STRESS_QUERIES]
            for query, future in futures:
                assert future.result(timeout=JOIN_TIMEOUT) \
                    == expected[query]
            stats = server.stats()
        assert stats.completed == len(futures)
        assert stats.failed == stats.rejected == 0

    def test_admission_control_rejects_over_queue_depth(self, shared_dbms):
        with QueryServer(shared_dbms, workers=1, max_pending=2) as server:
            # One worker, queue depth 2: a burst of 50 submissions must
            # overrun the queue while the worker is busy, and each
            # overrun fails fast with AdmissionError.
            rejected = 0
            accepted = []
            for __ in range(50):
                try:
                    accepted.append(
                        server.submit("dblp", STRESS_QUERIES[5]))
                except AdmissionError:
                    rejected += 1
            assert rejected > 0, "queue depth was never enforced"
            for future in accepted:
                future.result(timeout=JOIN_TIMEOUT)
            assert server.stats().rejected == rejected

    def test_deadline_counts_queue_wait(self, shared_dbms):
        """A query admitted under a deadline that expires while it sits
        in the queue fails with ResourceLimitExceeded."""
        with QueryServer(shared_dbms, workers=1,
                         max_pending=64) as server:
            backlog = [server.submit("dblp", query)
                       for __ in range(8)
                       for query in STRESS_QUERIES]
            doomed = server.submit("dblp", STRESS_QUERIES[0],
                                   time_limit=1e-6)
            with pytest.raises(ResourceLimitExceeded):
                doomed.result(timeout=JOIN_TIMEOUT)
            for future in backlog:
                future.result(timeout=JOIN_TIMEOUT)

    def test_submit_after_close_raises(self, shared_dbms):
        server = QueryServer(shared_dbms, workers=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit("dblp", "//title")

    def test_close_without_wait_cancels_pending(self, shared_dbms):
        server = QueryServer(shared_dbms, workers=1, max_pending=64)
        futures = [server.submit("dblp", query)
                   for __ in range(8)
                   for query in STRESS_QUERIES]
        server.close(wait=False)
        cancelled = sum(1 for future in futures if future.cancelled())
        finished = sum(1 for future in futures
                       if future.done() and not future.cancelled())
        assert cancelled + finished == len(futures)
        assert server.stats().cancelled == cancelled

    def test_per_query_overrides_and_bindings(self, shared_dbms):
        query = ("declare variable $who external; "
                 "for $a in //author return "
                 "if (some $t in $a/text() satisfies $t = $who) "
                 "then <hit>{ $a }</hit> else ()")
        session = shared_dbms.session()
        authors = session.execute("dblp", "//author/text()")
        who = authors[0].text
        expected = session.query("dblp", query, bindings={"who": who})
        with QueryServer(shared_dbms, workers=2) as server:
            future = server.submit("dblp", query, bindings={"who": who},
                                   profile="engine-2", serialize=True)
            assert future.result(timeout=JOIN_TIMEOUT) == expected

    def test_server_rides_out_a_replacement_load(self, tmp_path):
        """Queries racing a ``load()`` through the server resolve to the
        old or the new document, and queries after it see the new one."""
        with XmlDbms(str(tmp_path / "srv.db")) as dbms:
            dbms.load("doc", xml=OLD_DOC)
            old_text = dbms.session().query("doc", "//item")
            with QueryServer(dbms, workers=4, max_pending=256) as server:
                futures = []
                for index in range(40):
                    if index == 20:
                        dbms.load("doc", xml=NEW_DOC)
                    futures.append(server.submit("doc", "//item",
                                                 serialize=True))
                new_text = dbms.session().query("doc", "//item")
                for future in futures:
                    assert future.result(timeout=JOIN_TIMEOUT) in (
                        old_text, new_text)
                late = server.submit("doc", "//item", serialize=True)
                assert late.result(timeout=JOIN_TIMEOUT) == new_text


# ---------------------------------------------------------------------------
# latency histograms and lifecycle hardening (the network-PR satellites)
# ---------------------------------------------------------------------------


class TestServerObservability:
    def test_stats_expose_latency_percentiles(self, shared_dbms):
        """Every served query lands in both fixed-bucket histograms,
        and the snapshots expose ordered, finite percentiles."""
        with QueryServer(shared_dbms, workers=2,
                         max_pending=64) as server:
            futures = [server.submit("dblp", query)
                       for __ in range(4)
                       for query in STRESS_QUERIES]
            for future in futures:
                future.result(timeout=JOIN_TIMEOUT)
            stats = server.stats()
        for snapshot in (stats.queue_wait, stats.execution):
            assert snapshot.count == len(futures)
            assert 0.0 <= snapshot.p50_ms <= snapshot.p90_ms \
                <= snapshot.p99_ms
            assert snapshot.p99_ms <= snapshot.max_ms * 2 + 1e-9
            assert snapshot.mean_ms >= 0.0
        # Real work happened, so execution time is measurably nonzero.
        assert stats.execution.max_ms > 0.0
        assert stats.execution.as_dict()["p99_ms"] \
            == stats.execution.p99_ms

    def test_failed_queries_still_count_into_histograms(self, shared_dbms):
        with QueryServer(shared_dbms, workers=1) as server:
            good = server.submit("dblp", STRESS_QUERIES[0])
            bad = server.submit("dblp", "for $x in")
            good.result(timeout=JOIN_TIMEOUT)
            with pytest.raises(XQSyntaxError):
                bad.result(timeout=JOIN_TIMEOUT)
            stats = server.stats()
        assert stats.execution.count == 2
        assert stats.queue_wait.count == 2

    def test_server_stats_snapshots_consistent_under_burst(
            self, shared_dbms):
        """No torn counter reads: every ``stats()`` snapshot taken
        while a query burst is in flight satisfies the accounting
        invariants, and per-reader the counters only move forward."""
        with QueryServer(shared_dbms, workers=3,
                         max_pending=256) as server:
            stop = threading.Event()
            violations = []

            def submitter():
                for __ in range(6):
                    futures = [server.submit("dblp", query)
                               for query in STRESS_QUERIES]
                    for future in futures:
                        future.result(timeout=JOIN_TIMEOUT)
                stop.set()

            def reader():
                previous = None
                while not stop.is_set():
                    stats = server.stats()
                    settled = (stats.completed + stats.failed
                               + stats.cancelled + stats.pending)
                    if settled > stats.submitted:
                        violations.append(
                            f"settled {settled} > submitted "
                            f"{stats.submitted}")
                    if stats.pending > stats.peak_pending:
                        violations.append("pending above its watermark")
                    if previous is not None:
                        for field in ("submitted", "completed",
                                      "failed", "cancelled",
                                      "rejected"):
                            if getattr(stats, field) < getattr(
                                    previous, field):
                                violations.append(
                                    f"{field} went backwards")
                        if (stats.execution.count
                                < previous.execution.count):
                            violations.append(
                                "execution histogram shrank")
                    previous = stats
                    # Exercise the registry read path concurrently too.
                    page = server.metrics_registry.collect()
                    if page.get("server.submitted", 0) < 0:
                        violations.append("negative registry counter")
                    time.sleep(0.001)  # let the workers breathe

            run_threads([submitter, reader, reader])
            assert not violations, violations[:5]
            final = server.stats()
            assert final.submitted == 6 * len(STRESS_QUERIES)
            assert final.completed == final.submitted

    def test_mediator_stats_snapshots_consistent_under_burst(
            self, tmp_path):
        """MediatorStats reads race mediator traffic without tearing:
        counters never go backwards and never overcount traffic."""
        from repro.net import NetworkServer
        from repro.shard import ShardedServer

        dbs, servers = [], []
        for index in range(2):
            dbms = XmlDbms(str(tmp_path / f"shard-{index}.db"),
                           buffer_capacity=128)
            server = NetworkServer(dbms, workers=2, page_size=8,
                                   log_interval=0.0, shard_id=index)
            server.start()
            dbs.append(dbms)
            servers.append(server)
        try:
            with ShardedServer([s.address for s in servers],
                               timeout=30.0) as mediator:
                mediator.load(
                    "r",
                    "<r>" + "<i>x</i>" * 24 + "</r>", parts=2)
                stop = threading.Event()
                violations = []
                rounds = 5

                def driver():
                    for __ in range(rounds):
                        rows = mediator.execute("r", "//i")
                        assert len(rows) == 24
                    stop.set()

                def reader():
                    previous = None
                    while not stop.is_set():
                        stats = mediator.stats()
                        if stats.rows_streamed > (
                                stats.queries + stats.fanouts) * 24:
                            violations.append(
                                "rows_streamed overcounts")
                        if previous is not None:
                            for field in ("queries", "fanouts",
                                          "updates", "loads",
                                          "errors", "rows_streamed"):
                                if getattr(stats, field) < getattr(
                                        previous, field):
                                    violations.append(
                                        f"{field} went backwards")
                        previous = stats
                        mediator.metrics_registry.render_text()
                        time.sleep(0.001)

                run_threads([driver, reader, reader])
                assert not violations, violations[:5]
                final = mediator.stats()
                assert final.fanouts == rounds
                assert final.rows_streamed == rounds * 24
                assert final.errors == 0
        finally:
            for server in servers:
                server.stop()
            for dbms in dbs:
                dbms.close()


class TestStreaming:
    def test_stream_pages_reassemble_the_serial_result(self, shared_dbms):
        expected = shared_dbms.session().query(
            "dblp", STRESS_QUERIES[0])
        with QueryServer(shared_dbms, workers=2) as server:
            stream = server.submit_stream("dblp", STRESS_QUERIES[0],
                                          serialize=True, page_size=3)
            pages = list(stream.pages())
            assert all(len(page) <= 3 for page in pages)
            text = "".join(row for page in pages for row in page)
            assert text == expected
            assert stream.future.result(timeout=JOIN_TIMEOUT) \
                == stream.rows_produced

    def test_backpressure_bounds_producer_readahead(self, shared_dbms):
        """With the consumer stalled, the producer parks after filling
        the page buffer instead of materializing the result."""
        with QueryServer(shared_dbms, workers=1) as server:
            stream = server.submit_stream("dblp", STRESS_QUERIES[0],
                                          page_size=1,
                                          max_buffered_pages=2)
            deadline = time.monotonic() + JOIN_TIMEOUT
            while stream.rows_produced < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.1)              # producer gets no further
            assert stream.rows_produced <= 2 + 2
            assert not stream.future.done()
            total = sum(len(page) for page in stream.pages())
            assert stream.future.result(timeout=JOIN_TIMEOUT) == total

    def test_closing_a_stream_frees_its_worker(self, shared_dbms):
        with QueryServer(shared_dbms, workers=1) as server:
            stream = server.submit_stream("dblp", STRESS_QUERIES[0],
                                          page_size=1,
                                          max_buffered_pages=1)
            assert stream.next_page(timeout=JOIN_TIMEOUT)
            stream.close()
            # The single worker must come back to serve this.
            after = server.submit("dblp", STRESS_QUERIES[0],
                                  serialize=True)
            assert after.result(timeout=JOIN_TIMEOUT) == \
                shared_dbms.session().query("dblp", STRESS_QUERIES[0])
            assert stream.future.result(timeout=JOIN_TIMEOUT) is None


class TestCloseSemantics:
    def test_close_is_idempotent(self, shared_dbms):
        server = QueryServer(shared_dbms, workers=1)
        server.submit("dblp", STRESS_QUERIES[0])
        server.close()
        server.close()                   # second close: quiet no-op
        with pytest.raises(ServerClosedError):
            server.submit("dblp", STRESS_QUERIES[0])
        with pytest.raises(ServerClosedError):
            server.submit_stream("dblp", STRESS_QUERIES[0])

    def test_concurrent_closers_race_submitters_without_deadlock(
            self, shared_dbms):
        """8 closers and 4 submitters hammer one server; every closer
        returns (no deadlock, enforced by run_threads' join timeout),
        every accepted future settles, and post-close submissions fail
        with ServerClosedError."""
        server = QueryServer(shared_dbms, workers=2, max_pending=128)
        start = threading.Barrier(12, timeout=JOIN_TIMEOUT)
        accepted = []
        accepted_lock = threading.Lock()

        def closer():
            start.wait()
            server.close()

        def submitter():
            start.wait()
            for __ in range(40):
                try:
                    future = server.submit("dblp", STRESS_QUERIES[0])
                except (ServerClosedError, AdmissionError):
                    pass
                else:
                    with accepted_lock:
                        accepted.append(future)

        run_threads([closer] * 8 + [submitter] * 4)
        # close(wait=True) returned everywhere: all workers are gone
        # and every accepted future has settled one way or the other.
        for future in accepted:
            assert future.done()
        with pytest.raises(ServerClosedError):
            server.submit("dblp", STRESS_QUERIES[0])

    def test_close_shuts_open_streams_with_a_typed_reason(
            self, shared_dbms):
        server = QueryServer(shared_dbms, workers=1)
        stream = server.submit_stream("dblp", STRESS_QUERIES[0],
                                      page_size=1,
                                      max_buffered_pages=1)
        assert stream.next_page(timeout=JOIN_TIMEOUT)
        server.close()
        with pytest.raises(ServerClosedError):
            while True:
                if stream.next_page(timeout=JOIN_TIMEOUT) is None:
                    break

    def test_close_with_writers_parked_in_group_commit_queue(
            self, tmp_path, monkeypatch):
        """Shutdown must never strand a commit in the group-commit queue.

        With a deliberately slow fsync, writers park in the committer
        waiting for their batch.  Closing the server (and then the
        database) while they wait must give every submitted update a
        definite outcome — a durable acknowledgement or a typed error,
        never a hang or a silent drop — and every acknowledged update
        must still be there after reopening the file.
        """
        from repro.storage import wal as walmod

        real_sync = walmod.WriteAheadLog.sync

        def slow_sync(wal):
            time.sleep(0.05)
            real_sync(wal)

        monkeypatch.setattr(walmod.WriteAheadLog, "sync", slow_sync)
        db_path = str(tmp_path / "parked.db")
        dbms = XmlDbms(db_path, buffer_capacity=256)
        dbms.load("log", xml="<log><meta>m</meta></log>")
        server = QueryServer(dbms, workers=4)
        futures = [
            server.submit("log", f"insert node <p{i}>v</p{i}> "
                                 f"as last into /log")
            for i in range(12)
        ]
        # Workers are now executing updates whose commits sit behind
        # ~50ms fsyncs; close while the committer queue is non-empty.
        server.close()
        acked = []
        for i, future in enumerate(futures):
            assert future.done()  # close(wait=True) settles everything
            try:
                result = future.result(timeout=0)
            except (ServerClosedError, WalError):
                continue  # a typed refusal is a definite outcome
            assert result.commit_lsn > 0
            acked.append(i)
        assert acked, "every update was refused — nothing exercised"
        dbms.close()
        # Reopen: recovery must replay every acknowledged commit.
        with XmlDbms(db_path) as reopened:
            text = reopened.query("log", "/log")
            for i in acked:
                assert f"<p{i}>v</p{i}>" in text
