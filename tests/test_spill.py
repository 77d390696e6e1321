"""Sort runs and materialised intermediates live outside the database.

A spilling operator writes to one anonymous temporary file beside the
database file.  The claims under test:

* a query never writes to the database file, the buffer pool or the
  catalog — so a writer aborting or committing beside it cannot take its
  runs away, and it cannot leak pages or catalog keys;
* the file is gone when the execution ends, however it ends: finished,
  abandoned half-way, cursor closed, connection dropped;
* spilling plans stay byte-identical to the milestone-1 oracle through
  the QueryServer and over a socket, beside a committing updater;
* merge blocks count against the memory budget like any buffered batch.
"""

import os
import re
import threading
import time
from dataclasses import replace

import pytest

from repro.core import QueryServer, XmlDbms
from repro.engine.profiles import EngineProfile
from repro.errors import ResourceLimitExceeded
from repro.grading.tester import EfficiencyQuery, Tester
from repro.net import NetClient, NetworkServer
from repro.optimizer.planner import PlannerConfig
from repro.physical import spill
from repro.physical.context import NODE_BYTES, Bindings, ExecutionContext
from repro.physical.materialize import Materializer
from repro.physical.operators import FullScan
from repro.physical.sort import ExternalSort
from repro.xasr import StoredDocument

JOIN_TIMEOUT = 60.0

#: An m4 engine forced to sort, in runs of 50 rows.
SPILLING = EngineProfile(
    name="spill-50", description="sort for order, 50-row runs",
    planner=replace(PlannerConfig(), order_strategy="sort",
                    sort_run_budget_rows=50))

EVERY_AUTHOR = "for $a in //author return $a"


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def wait_until(predicate, timeout=JOIN_TIMEOUT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def footprint(dbms):
    """Everything a query could leave behind."""
    db = dbms.db
    return {"names": db.list_names(),
            "catalog_keys": len(db._catalog),
            "pages": db.pager.num_pages,
            "pages_written": db.pager.pages_written,
            "writebacks": db.stats.dirty_writebacks,
            "fds": open_fds(),
            "files": sorted(os.listdir(os.path.dirname(db.pager.path)))}


def bindings(doc):
    return Bindings({"#root": doc.root()})


def in_values(batches):
    return [row[0].in_ for batch in batches for row in batch]


@pytest.fixture
def spills(monkeypatch):
    """Counts the spill files opened while the test runs."""
    opened = []
    original = spill.SpillFile.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(spill.SpillFile, "__init__", counting)
    return opened


@pytest.fixture
def dblp(tmp_path, dblp_xml):
    with XmlDbms(str(tmp_path / "spill.db"), buffer_capacity=256) as dbms:
        dbms.load("dblp", xml=dblp_xml)
        dbms.update("dblp",
                    "insert node <soak>n0</soak> as first into /dblp")
        dbms.db.checkpoint()
        yield dbms


# ---------------------------------------------------------------------------
# the file itself
# ---------------------------------------------------------------------------


class TestSpillFile:
    def test_runs_round_trip_in_blocks(self, dblp):
        doc = StoredDocument(dblp.db, "dblp")
        nodes = list(doc.scan())[:23]
        rows = [(a, b) for a, b in zip(nodes, reversed(nodes))]
        before = open_fds()
        file = spill.SpillFile(dblp.db.pager.path, 2)
        try:
            first = file.append(rows[:10])
            second = file.append(rows[10:])
            assert open_fds() == before + 1
            blocks = list(file.blocks(second, doc, 5))
            assert [len(block) for block in blocks] == [5, 5, 3]
            assert [row for block in blocks for row in block] == rows[10:]
            assert list(file.blocks(first, doc, 100)) == [rows[:10]]
        finally:
            file.close()
        assert open_fds() == before

    def test_rows_without_columns_keep_their_count(self, dblp):
        doc = StoredDocument(dblp.db, "dblp")
        file = spill.SpillFile(dblp.db.pager.path, 0)
        try:
            run = file.append([(), (), ()])
            assert list(file.blocks(run, doc, 2)) == [[(), ()], [()]]
        finally:
            file.close()

    def test_it_has_no_name(self, dblp):
        directory = os.path.dirname(dblp.db.pager.path)
        before = sorted(os.listdir(directory))
        file = spill.SpillFile(dblp.db.pager.path, 1)
        try:
            file.append([(StoredDocument(dblp.db, "dblp").root(),)])
            assert sorted(os.listdir(directory)) == before
        finally:
            file.close()


# ---------------------------------------------------------------------------
# a query leaves nothing behind
# ---------------------------------------------------------------------------


class TestNothingIsLeftBehind:
    def test_abandoned_materializer_spill(self, dblp, spills):
        """What SemiJoin does at the first match: the consumer closes
        after a few batches of a pass that had already spilled."""
        doc = StoredDocument(dblp.db, "dblp")
        ctx = ExecutionContext(doc, batch_size=2)
        before = footprint(dblp)
        mat = Materializer(FullScan("A", []), memory_threshold_rows=3)
        batches = mat.batches(ctx, bindings(doc))
        for __ in range(3):
            next(batches)
        assert len(spills) == 1 and open_fds() == before["fds"] + 1
        batches.close()
        assert footprint(dblp) == before
        # A partial pass never masquerades as the result.
        assert in_values(mat.batches(ctx, bindings(doc))) \
            == [node.in_ for node in doc.scan()]
        mat.reset()
        assert footprint(dblp) == before

    def test_two_hundred_spilling_executions(self, dblp, spills):
        doc = StoredDocument(dblp.db, "dblp")
        expected = [node.in_ for node in doc.scan()]
        before = footprint(dblp)
        for __ in range(100):
            ctx = ExecutionContext(doc, batch_size=64)
            sort = ExternalSort(FullScan("A", []), ("A",),
                                run_budget_rows=100)
            assert in_values(sort.batches(ctx, bindings(doc))) == expected
            assert sort.spilled_runs > 3 and ctx.meter.current == 0
            mat = Materializer(FullScan("A", []), memory_threshold_rows=3)
            assert in_values(mat.batches(ctx, bindings(doc))) == expected
            assert in_values(mat.batches(ctx, bindings(doc))) == expected
            mat.reset()
        assert len(spills) == 200
        assert footprint(dblp) == before

    def test_merge_blocks_count_against_the_budget(self, dblp, spills):
        """The buffer phase fits the budget run by run; the merge holds
        one block of every run at once and must trip it."""
        doc = StoredDocument(dblp.db, "dblp")
        before = open_fds()
        ctx = ExecutionContext(doc, memory_budget=NODE_BYTES * 40,
                               batch_size=16)
        sort = ExternalSort(FullScan("A", []), ("A",), run_budget_rows=30)
        with pytest.raises(ResourceLimitExceeded) as caught:
            list(sort.batches(ctx, bindings(doc)))
        assert caught.value.kind == "memory"
        assert sort.spilled_runs > 3 and len(spills) == 1
        del caught
        assert open_fds() == before


# ---------------------------------------------------------------------------
# beside a writer
# ---------------------------------------------------------------------------


class TestSpillBesideAWriter:
    """A reader's runs used to be pages of the database file, allocated
    outside any transaction: a writer's abort rolled the page count back
    over them and the reader died with ``PageError``."""

    @pytest.mark.parametrize("outcome", ["abort", "commit"])
    def test_runs_survive_the_writers_outcome(self, dblp, spills,
                                              outcome):
        db = dblp.db
        in_txn, midway, finished = (threading.Event(), threading.Event(),
                                    threading.Event())
        errors: list[BaseException] = []

        class Abort(Exception):
            pass

        def writer() -> None:
            try:
                with db.transaction():
                    db.put_meta("beside", {"dirty": outcome})
                    in_txn.set()
                    assert midway.wait(JOIN_TIMEOUT)
                    if outcome == "abort":
                        raise Abort
            except Abort:
                pass
            except BaseException as error:  # noqa: BLE001 - reported
                errors.append(error)
            finally:
                in_txn.set()
                finished.set()

        db.put_meta("beside", {"dirty": "no"})    # the key exists: the
        db.checkpoint()                           # writer allocates nothing
        pages = db.pager.num_pages
        worker = threading.Thread(target=writer, daemon=True)
        with dblp.read_ticket("dblp"):
            doc = StoredDocument(db, "dblp")
            expected = in_values(
                ExternalSort(FullScan("A", []), ("A",)).batches(
                    ExecutionContext(doc), bindings(doc)))
            worker.start()
            assert in_txn.wait(JOIN_TIMEOUT) and not errors
            # Every run is written while the transaction is open ...
            sort = ExternalSort(FullScan("A", []), ("A",),
                                run_budget_rows=3)
            batches = sort.batches(ExecutionContext(doc, batch_size=8),
                                   bindings(doc))
            rows = in_values([next(batches) for __ in range(5)])
            assert sort.spilled_runs > 100 and len(spills) == 1
            assert db.pager.num_pages == pages
            midway.set()
            assert finished.wait(JOIN_TIMEOUT) and not errors
            # ... and read back after it is gone.
            rows += in_values(batches)
        worker.join(JOIN_TIMEOUT)
        assert not worker.is_alive()
        assert rows == expected and len(rows) > 300
        assert db.pager.num_pages == pages
        assert db.get_meta("beside") == {
            "dirty": "no" if outcome == "abort" else "commit"}


# ---------------------------------------------------------------------------
# served, beside committing updates
# ---------------------------------------------------------------------------


def at_version(base: str, result: str) -> str:
    """``base`` (the oracle's answer while ``/dblp/soak`` was ``n0``)
    as the oracle gives it at the version ``result`` was read at."""
    (version,) = set(re.findall(r"<soak>(n\d+)</soak>", result))
    return base.replace("<soak>n0</soak>", f"<soak>{version}</soak>")


class Updater:
    """Commits ``replace value of`` updates until stopped."""

    def __init__(self, dbms):
        self.dbms = dbms
        self.commits = 0
        self._stop = threading.Event()
        self.errors: list[BaseException] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                self.commits += 1
                self.dbms.update(
                    "dblp", "replace value of node /dblp/soak/text() "
                    "with $v", bindings={"v": f"n{self.commits}"})
        except BaseException as error:  # noqa: BLE001 - reported
            self.errors.append(error)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(JOIN_TIMEOUT)
        assert not self._thread.is_alive() and not self.errors


class TestServedBesideUpdates:
    #: More rows than one batch, so the sort is still merging while the
    #: first pages go out.
    QUERY = "for $x in //* return $x"

    def test_query_server_matches_the_oracle_at_its_snapshot(
            self, dblp, spills):
        base = dblp.session(profile="m1").query("dblp", self.QUERY)
        assert base.count("<soak>n0</soak>") == 2
        with QueryServer(dblp, workers=2, profile=SPILLING) as server:
            with Updater(dblp) as updater:
                for __ in range(6):
                    stream = server.submit_stream(
                        "dblp", self.QUERY, serialize=True, page_size=16,
                        max_buffered_pages=2)
                    result = "".join(row for page in stream.pages()
                                     for row in page)
                    assert result == at_version(base, result)
                assert wait_until(lambda: updater.commits > 3)
        assert len(spills) == 6
        final = dblp.session(profile="m1").query("dblp", self.QUERY)
        assert final == at_version(base, final) != base

    def test_socket_close_and_disconnect_return_every_descriptor(
            self, dblp, spills):
        base = dblp.session(profile="m1").query("dblp", self.QUERY)
        with NetworkServer(dblp, workers=2, profile=SPILLING,
                           page_size=4, max_buffered_pages=1,
                           log_interval=0.0) as served:
            host, port = served.address
            streams = served.query_server._streams
            with Updater(dblp), \
                    NetClient(host, port, timeout=JOIN_TIMEOUT) as client:
                result = client.query("dblp", self.QUERY)
                assert result == at_version(base, result)
            # The updater is gone: from here descriptors only move with
            # the connections and spill files under test.
            assert wait_until(lambda: not served._connections)
            baseline = open_fds()
            assert len(spills) == 1

            # Cursor closed mid-stream: the sort is parked in its merge,
            # the spill file open under it.
            client = NetClient(host, port, timeout=JOIN_TIMEOUT)
            cursor = client.execute("dblp", self.QUERY, page_size=1)
            assert len(cursor.fetch_page()) == 1
            assert len(spills) == 2
            assert open_fds() == baseline + 3   # two sockets, one file
            cursor.close()
            assert wait_until(
                lambda: not streams and open_fds() == baseline + 2)

            # Connection dropped mid-FETCH, without CLOSE.
            cursor = client.execute("dblp", self.QUERY, page_size=1)
            assert len(cursor.fetch_page()) == 1
            assert len(spills) == 3
            client._sock.close()
            assert wait_until(
                lambda: not streams and open_fds() == baseline), \
                f"{open_fds()} descriptors open, {baseline} before"

    def test_tester_budget(self, dblp, spills):
        """Under the paper's 20 MB a spilling plan passes; under a
        budget below its merge blocks it is an over-memory run."""
        query = EfficiencyQuery("authors", EVERY_AUTHOR, "")
        result = Tester(dblp, "dblp", time_limit=30.0) \
            .run_efficiency(SPILLING, query)
        assert result.status == "ok" and len(spills) == 1
        result = Tester(dblp, "dblp", time_limit=30.0,
                        memory_limit_bytes=NODE_BYTES * 120) \
            .run_efficiency(SPILLING, query)
        assert result.status == "memory" and len(spills) == 2
