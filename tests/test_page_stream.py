"""The one page stream: hand-off primitive, conformance, leaks.

Three layers of claims:

* :class:`~repro.core.stream.Handoff` wakes the *other* side at once on
  every transition — asserted on event ordering, never on wall time;
* a :class:`~repro.core.stream.PageStream` behaves the same whoever
  feeds it: one body runs against a local ``QueryServer`` and against a
  ``ShardedServer`` merging a partitioned document over in-process
  shards;
* streams that end, fail or are abandoned leave nothing behind — no
  thread, leased connection, registered stream or pinned snapshot.
"""

import threading
import time

import pytest

from repro.core import PageStream, QueryServer, XmlDbms
from repro.core.stream import Handoff, StreamAborted
from repro.errors import (
    CursorClosedError,
    ResourceLimitExceeded,
    ServerClosedError,
)
from repro.net import NetworkServer
from repro.shard import ShardedServer

JOIN_TIMEOUT = 60.0
ITEMS = 100
EXPECTED = [f"<item>v{i}</item>" for i in range(ITEMS)]
ITEMS_XML = "<r>" + "".join(EXPECTED) + "</r>"


def wait_until(predicate, timeout=JOIN_TIMEOUT, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- the hand-off primitive --------------------------------------------------


class ProbedHandoff(Handoff):
    """Sets ``waiting`` from inside the wait, condition still held.

    Whoever then acquires the condition (every transition does) can
    only get it once the waiter has really parked — so "blocked, then
    woken" is an ordering of events, not a race against a sleep.
    """

    def __init__(self, capacity):
        super().__init__(capacity)
        self.waiting = threading.Event()

    def _wait_locked(self, end):
        self.waiting.set()
        return super()._wait_locked(end)


def blocked_call(handoff, call):
    """Run ``call`` on a thread, return once it is parked in a wait."""
    outcome = []

    def run():
        try:
            outcome.append(("returned", call()))
        except BaseException as error:  # noqa: BLE001 — the outcome
            outcome.append(("raised", error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert handoff.waiting.wait(JOIN_TIMEOUT), "never blocked"

    def result():
        thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive(), "never woke"
        return outcome[0]

    return result


class TestHandoff:
    def test_items_then_none(self):
        handoff = Handoff(2)
        assert handoff.put("a") and handoff.put("b")
        handoff.finish()
        assert [handoff.get(), handoff.get(), handoff.get()] == \
            ["a", "b", None]
        assert handoff.get() is None          # and it stays ended

    def test_error_surfaces_behind_the_buffered_items(self):
        handoff = Handoff(2)
        handoff.put("a")
        handoff.finish(ValueError("boom"))       # never blocks
        assert handoff.get() == "a"
        with pytest.raises(ValueError):
            handoff.get()

    def test_timeouts_leave_the_lane_untouched(self):
        handoff = Handoff(1)
        with pytest.raises(TimeoutError):
            handoff.get(timeout=0.01)
        assert handoff.put("a")
        assert handoff.put("b", timeout=0.01) is False   # still full
        assert handoff.get() == "a"
        assert handoff.put("b", timeout=0.01)
        assert handoff.get(timeout=0.01) == "b"

    @pytest.mark.parametrize("wake, expected", [
        (lambda h: h.put("page"), ("returned", "page")),
        (lambda h: h.finish(), ("returned", None)),
        (lambda h: h.finish(KeyError("typed")), ("raised", KeyError)),
        (lambda h: h.close(), ("raised", CursorClosedError)),
        (lambda h: h.close(ServerClosedError("bye")),
         ("raised", ServerClosedError)),
    ])
    def test_consumer_blocked_on_empty_wakes(self, wake, expected):
        handoff = ProbedHandoff(1)
        result = blocked_call(handoff, handoff.get)
        wake(handoff)
        kind, value = result()
        assert kind == expected[0]
        if kind == "raised":
            assert isinstance(value, expected[1])
        else:
            assert value == expected[1]

    def test_producer_blocked_on_full_wakes_on_get(self):
        handoff = ProbedHandoff(1)
        handoff.put("a")
        result = blocked_call(handoff, lambda: handoff.put("b"))
        assert handoff.get() == "a"
        assert result() == ("returned", True)
        assert handoff.get() == "b"

    def test_producer_blocked_on_full_wakes_on_close(self):
        handoff = ProbedHandoff(1)
        handoff.put("a")
        result = blocked_call(handoff, lambda: handoff.put("b"))
        handoff.close()
        kind, error = result()
        assert kind == "raised" and isinstance(error, StreamAborted)
        with pytest.raises(StreamAborted):
            handoff.put("c")                   # and stays closed
        handoff.close(ServerClosedError("late"))     # first reason sticks
        with pytest.raises(CursorClosedError):
            handoff.get()


def test_lanes_merge_by_rank_and_recut_to_page_size():
    ended = []
    stream = PageStream("d", page_size=3, max_buffered_pages=4, lanes=2,
                        on_end=lambda s, error: ended.append(error))
    stream.lanes[1].put((0, ["x", "y"]))
    stream.lanes[1].finish()
    stream.lanes[0].put((0, ["a", "b"]))
    stream.lanes[0].put((2, ["c", "d"]))
    stream.lanes[0].finish()
    assert list(stream.pages()) == [["a", "b", "c"], ["d", "x", "y"]]
    assert stream.total_rows == 6 and ended == [None]
    stream.close()
    assert ended == [None]                     # on_end ran exactly once


# -- conformance: one body, both servers -------------------------------------


@pytest.fixture(params=["local", "sharded"])
def service(request, tmp_path):
    """A QueryService with one worker per process serving ``d``."""
    if request.param == "local":
        with XmlDbms(str(tmp_path / "local.db")) as dbms:
            dbms.load("d", xml=ITEMS_XML)
            with QueryServer(dbms, workers=1) as server:
                yield server
        return
    dbs = [XmlDbms(str(tmp_path / f"shard-{index}.db"))
           for index in range(2)]
    shards = [NetworkServer(dbms, workers=1, log_interval=0.0,
                            shard_id=index)
              for index, dbms in enumerate(dbs)]
    for shard in shards:
        shard.start()
    mediator = ShardedServer([shard.address for shard in shards],
                             timeout=JOIN_TIMEOUT)
    try:
        mediator.load("d", xml=ITEMS_XML, parts=2)
        yield mediator
    finally:
        mediator.close()
        for shard in shards:
            shard.stop()
        for dbms in dbs:
            dbms.close()


def open_stream(service, **overrides):
    options = {"serialize": True, "page_size": 7,
               "max_buffered_pages": 2, **overrides}
    return service.submit_stream("d", "/r/item", **options)


def hog_every_worker(service):
    """A stream nobody drains: every process's one worker is parked on
    its backpressure (the first page proves they all picked it up)."""
    hog = open_stream(service, page_size=1, max_buffered_pages=1)
    assert hog.next_page(timeout=JOIN_TIMEOUT) == EXPECTED[:1]
    return hog


class TestConformance:
    def test_pages_in_order_then_none(self, service):
        stream = open_stream(service)
        pages = list(stream.pages())
        assert [row for page in pages for row in page] == EXPECTED
        assert [len(page) for page in pages] == [7] * 14 + [2]
        assert stream.total_rows == ITEMS
        assert stream.plan_cache_hit in (True, False)
        assert stream.closed
        assert stream.next_page() is None      # the end stays the end

    def test_close_is_idempotent_and_final(self, service):
        stream = open_stream(service)
        assert stream.next_page(timeout=JOIN_TIMEOUT) == EXPECTED[:7]
        assert not stream.closed
        stream.close()
        stream.close()
        assert stream.closed and stream.total_rows is None
        with pytest.raises(CursorClosedError):
            stream.next_page()

    def test_timeout_leaves_the_stream_open_and_resumable(self, service):
        hog = hog_every_worker(service)
        stalled = open_stream(service)
        with pytest.raises(TimeoutError):
            stalled.next_page(timeout=0.05)
        assert not stalled.closed
        hog.close()                            # the workers come back
        assert stalled.next_page(timeout=JOIN_TIMEOUT) == EXPECTED[:7]
        stalled.close()

    def test_close_from_another_thread_wakes_a_blocked_fetch(
            self, service):
        hog = hog_every_worker(service)
        stalled = open_stream(service)
        entered = threading.Event()
        raised = []

        def fetch():
            entered.set()
            try:
                stalled.next_page()
            except BaseException as error:  # noqa: BLE001 — asserted
                raised.append(error)

        fetcher = threading.Thread(target=fetch, daemon=True)
        fetcher.start()
        assert entered.wait(JOIN_TIMEOUT)
        time.sleep(0.05)                       # let it park in the wait
        stalled.close()
        fetcher.join(JOIN_TIMEOUT)
        assert not fetcher.is_alive(), "close() did not wake next_page()"
        assert [type(error) for error in raised] == [CursorClosedError]
        hog.close()

    def test_typed_error_surfaces_behind_the_buffered_pages(
            self, service):
        stream = open_stream(service, page_size=1, time_limit=1.0)
        time.sleep(1.2)          # the deadline lapses on backpressure
        rows = 0
        with pytest.raises(ResourceLimitExceeded) as info:
            while True:
                rows += len(stream.next_page(timeout=JOIN_TIMEOUT))
        assert info.value.kind == "time"
        assert 0 < rows < ITEMS, "buffered pages come before the error"
        assert stream.closed and stream.total_rows is None
        with pytest.raises(CursorClosedError):
            stream.next_page()


# -- leaks -------------------------------------------------------------------


def test_no_stream_kind_leaks_threads_leases_or_snapshots(tmp_path):
    """200 local, routed and fan-out streams, a third abandoned
    mid-stream: afterwards every count is back where it started."""
    dbs = [XmlDbms(str(tmp_path / f"leak-{index}.db"))
           for index in range(3)]
    local_dbms, shard_dbs = dbs[0], dbs[1:]
    local_dbms.load("d", xml=ITEMS_XML)
    local = QueryServer(local_dbms, workers=2)
    shards = [NetworkServer(dbms, workers=2, log_interval=0.0,
                            shard_id=index)
              for index, dbms in enumerate(shard_dbs)]
    for shard in shards:
        shard.start()
    mediator = ShardedServer([shard.address for shard in shards],
                             timeout=JOIN_TIMEOUT)
    mediator.load("d", xml=ITEMS_XML, parts=2)      # fan-out
    mediator.load("solo", xml=ITEMS_XML)            # routed
    targets = [(local, "d"), (mediator, "solo"), (mediator, "d")]

    def run(count):
        for index in range(count):
            server, document = targets[index % 3]
            stream = server.submit_stream(
                document, "/r/item", serialize=True, page_size=5,
                max_buffered_pages=2)
            if index // 3 % 3 == 0:            # a third of each kind
                assert stream.next_page(timeout=JOIN_TIMEOUT)
                stream.close()
            else:
                assert sum(map(len, stream.pages())) == ITEMS

    def counts():
        pools = mediator.cluster_stats()["pools"]
        return {
            # Every thread counts.  A pool may end up idling one more
            # connection than it started with, and an open connection
            # owns exactly one server thread; anything else that
            # stays behind is a leak.
            "threads": threading.active_count() - sum(
                shard.metrics.snapshot()["connections_open"]
                for shard in shards),
            "leased": [pool["connects"] - pool["discards"] - pool["idle"]
                       for pool in pools],
            "streams": [len(server._streams) for server in
                        [local, *(s.query_server for s in shards)]],
            "mediator_streams": len(mediator._streams),
            "snapshots": [dbms.mvcc_stats()["snapshots_pinned"]
                          for dbms in dbs],
        }

    try:
        run(9)                                 # dial pools, warm caches
        assert wait_until(lambda: counts()["leased"] == [0, 0])
        before = counts()
        run(200)
        assert wait_until(lambda: counts() == before), \
            f"leaked: {counts()} != {before}"
        assert before["streams"] == [0, 0, 0]
        assert before["snapshots"] == [0, 0, 0]
        assert mediator.stats().errors == 0
    finally:
        mediator.close()
        local.close()
        for shard in shards:
            shard.stop()
        for dbms in dbs:
            dbms.close()
