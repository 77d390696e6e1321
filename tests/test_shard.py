"""Sharded serving: routing, fan-out merge, failure semantics.

The fixture is an in-process cluster — N real ``NetworkServer``s on
daemon threads, each over its own ``XmlDbms``, with a ``ShardedServer``
mediating over real sockets — fast enough for property tests.  The
claims under test:

* routed single-document queries and updates behave exactly like a
  direct connection to the owning shard;
* fan-out queries (``"*"`` and partitioned documents) return rows
  byte-identical and in the same document order as one unsharded
  ``QueryServer`` holding all the data — including under an injected
  slow shard (the hypothesis property);
* one dead shard yields typed ``ShardUnavailableError`` for *its*
  documents while the others keep answering; a restarted shard heals
  through the pool's retry;
* the mediator itself serves the wire protocol unchanged behind a
  ``NetworkServer``, and ``python -m repro.shard`` manages a real
  process cluster (the subprocess test).
"""

import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QueryServer, XmlDbms
from repro.core.server import PageEnvelope
from repro.errors import (
    CatalogError,
    ShardError,
    ShardUnavailableError,
    UpdateError,
)
from repro.net import NetClient, NetworkServer
from repro.net.pool import ConnectionPool
from repro.shard import ShardedServer, split_document
from repro.shard.mediator import statement_text
from repro.xq.parser import parse_program

SHARDS = 3


def items_xml(count, tag="item"):
    return ("<r>"
            + "".join(f"<{tag}>v{i}</{tag}>" for i in range(count))
            + "</r>")


class SlowQueryServer(QueryServer):
    """A QueryServer whose streams pause before every page.

    Injected into one cluster member to model a slow shard: the merge
    must still produce exact document order, just later.
    """

    delay = 0.01

    def submit_stream(self, *args, **kwargs):
        stream = super().submit_stream(*args, **kwargs)
        inner = stream.next_page

        def slow_next_page(timeout=None):
            time.sleep(self.delay)
            return inner(timeout)

        stream.next_page = slow_next_page
        return stream


class Cluster:
    """N in-process shard servers plus a mediator over real sockets."""

    def __init__(self, tmp_path, shards=SHARDS, slow=None):
        self.dbs = []
        self.servers = []
        for index in range(shards):
            dbms = XmlDbms(str(tmp_path / f"shard-{index}.db"),
                           buffer_capacity=256)
            query_server = None
            if index == slow:
                query_server = SlowQueryServer(dbms, workers=2)
            server = NetworkServer(dbms, workers=2, page_size=8,
                                   log_interval=0.0, shard_id=index,
                                   query_server=query_server)
            server.start()
            self.dbs.append(dbms)
            self.servers.append(server)
        self.mediator = ShardedServer(
            [server.address for server in self.servers], timeout=30.0)

    def close(self):
        self.mediator.close()
        for server in self.servers:
            server.stop()
        for dbms in self.dbs:
            dbms.close()


@pytest.fixture
def cluster(tmp_path):
    cluster = Cluster(tmp_path)
    yield cluster
    cluster.close()


# -- partitioning ------------------------------------------------------------


def test_split_document_contiguous_and_exhaustive():
    chunks = split_document(items_xml(10), 3)
    assert len(chunks) == 3
    assert chunks[0] == ("<r><item>v0</item><item>v1</item>"
                         "<item>v2</item><item>v3</item></r>")
    # Recombining the chunks' items reproduces the original order.
    combined = "".join(c.removeprefix("<r>").removesuffix("</r>")
                       for c in chunks)
    assert items_xml(10) == "<r>" + combined + "</r>"


def test_split_document_rejects_empty_chunks():
    with pytest.raises(ShardError):
        split_document(items_xml(2), 3)
    with pytest.raises(ShardError):
        split_document(items_xml(2), 0)


def test_statement_text_redeclares_externals():
    program = parse_program("declare variable $v external; "
                            "for $i in /r/item return $i")
    text = statement_text(program)
    assert "declare variable $v external;" in text
    assert parse_program(text).externals == program.externals


# -- routing -----------------------------------------------------------------


def test_routed_query_and_update(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(20))
    assert med.execute("a", "/r/item") == [
        f"<item>v{i}</item>" for i in range(20)]
    result = med.update("a", "insert node <extra/> into /r")
    assert result.nodes_inserted == 1
    assert med.execute("a", "//extra") == ["<extra/>"]


def test_unknown_document_is_catalog_error(cluster):
    with pytest.raises(CatalogError):
        cluster.mediator.submit_stream("nope", "/r")


def test_load_balances_across_shards(cluster):
    med = cluster.mediator
    for index in range(6):
        med.load(f"d{index}", xml=items_xml(1))
    placements = med.documents()
    owners = [shards[0] for shards in placements.values()]
    assert {owners.count(shard) for shard in range(SHARDS)} == {2}


def test_partitioned_load_and_merge(cluster):
    med = cluster.mediator
    med.load("big", xml=items_xml(50), parts=SHARDS)
    assert med.documents()["big"] == tuple(range(SHARDS))
    assert med.execute("big", "/r/item") == [
        f"<item>v{i}</item>" for i in range(50)]


def test_failed_partitioned_load_keeps_previous_catalog_entry(cluster):
    """Chunks load in parallel and the catalog entry is published only
    after every shard acknowledged: one dead member fails the load
    typed and the name still resolves to its previous placement."""
    med = cluster.mediator
    med.load("big", xml=items_xml(30))  # whole, on one shard
    before = med.documents()
    loads = med.stats().loads
    cluster.servers[SHARDS - 1].stop()
    with pytest.raises(ShardUnavailableError) as info:
        med.load("big", xml=items_xml(31), parts=SHARDS)
    assert info.value.shard == SHARDS - 1
    assert med.documents() == before
    assert med.stats().loads == loads
    with pytest.raises(ShardUnavailableError):
        med.load("new", xml=items_xml(31), parts=SHARDS)
    assert "new" not in med.documents()


def test_partitioned_load_places_every_chunk_concurrently(cluster):
    """All chunk LOADs are in flight together: each member's load
    blocks until every member has received its own."""
    arrived = threading.Barrier(SHARDS, timeout=10)
    for dbms in cluster.dbs:
        load = dbms.load

        def rendezvous(name, *args, _load=load, **kwargs):
            arrived.wait()
            return _load(name, *args, **kwargs)

        dbms.load = rendezvous
    med = cluster.mediator
    assert med.load("big", xml=items_xml(30), parts=SHARDS) == \
        tuple(range(SHARDS))
    assert not arrived.broken
    assert med.execute("big", "/r/item") == [
        f"<item>v{i}</item>" for i in range(30)]


def test_partitioned_update_rejected(cluster):
    med = cluster.mediator
    med.load("big", xml=items_xml(10), parts=2)
    with pytest.raises(UpdateError):
        med.update("big", "insert node <x/> into /r")


def test_fanout_all_documents_in_name_order(cluster):
    med = cluster.mediator
    med.load("b", xml=items_xml(3, tag="bee"))
    med.load("a", xml=items_xml(2, tag="aye"))
    rows = med.execute("*", "/r/*")
    assert rows == (["<aye>v0</aye>", "<aye>v1</aye>"]
                    + [f"<bee>v{i}</bee>" for i in range(3)])


def test_stats_counts_queries_fanouts_and_rows(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(5))
    med.execute("a", "/r/item")
    med.execute("*", "/r/item")
    stats = med.stats()
    assert stats.queries == 1
    assert stats.fanouts == 1
    assert stats.loads == 1
    assert stats.rows_streamed == 10
    assert stats.pool_connects >= 1


def test_cluster_stats_aggregates_numeric_counters(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(5))
    med.execute("a", "/r/item")
    view = med.cluster_stats()
    assert set(view) == {"mediator", "shards", "aggregate", "pools"}
    assert len(view["shards"]) == SHARDS
    total = sum(shard["server"]["submitted"]
                for shard in view["shards"].values())
    assert view["aggregate"]["server"]["submitted"] == total
    assert view["aggregate"]["server"]["submitted"] >= 1


def test_health_reports_every_shard(cluster):
    report = cluster.mediator.health()
    assert all(entry["ok"] for entry in report.values())
    assert [entry["shard_id"] for entry in report.values()] == [0, 1, 2]


# -- the merge property ------------------------------------------------------


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.data_too_large])
@given(counts=st.lists(st.integers(min_value=0, max_value=12),
                       min_size=1, max_size=4),
       partition_counts=st.integers(min_value=3, max_value=30))
def test_fanout_matches_single_process_reference(
        tmp_path_factory, counts, partition_counts):
    """Fan-out rows are byte-identical, in document order, with a slow
    shard injected — against an unsharded QueryServer reference."""
    tmp_path = tmp_path_factory.mktemp("merge")
    documents = {f"doc{index}": items_xml(count, tag=f"t{index}")
                 for index, count in enumerate(counts)}
    documents["part"] = items_xml(partition_counts, tag="part")

    # Reference: every document in ONE database, one QueryServer.
    reference_rows = []
    with XmlDbms(str(tmp_path / "ref.db"), buffer_capacity=256) as ref:
        for name in sorted(documents):
            ref.load(name, xml=documents[name])
        with QueryServer(ref, workers=1) as server:
            for name in sorted(documents):
                stream = server.submit_stream(name, "/r/*",
                                              serialize=True)
                for page in stream.pages():
                    reference_rows.extend(page)

    cluster = Cluster(tmp_path, slow=1)
    try:
        med = cluster.mediator
        for name in sorted(documents):
            if name == "part":
                med.load(name, xml=documents[name], parts=SHARDS)
            else:
                med.load(name, xml=documents[name])
        assert med.execute("*", "/r/*", time_limit=60.0) == \
            reference_rows
    finally:
        cluster.close()


# -- failure semantics -------------------------------------------------------


def test_dead_shard_is_typed_and_scoped(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(3))
    med.load("b", xml=items_xml(3))
    med.load("c", xml=items_xml(3))
    placements = med.documents()
    victim_doc = next(name for name, shards in placements.items()
                      if shards == (1,))
    survivor_doc = next(name for name, shards in placements.items()
                        if shards != (1,))
    cluster.servers[1].stop()
    with pytest.raises(ShardUnavailableError) as info:
        med.execute(victim_doc, "/r/item")
    assert info.value.shard == 1
    # The others keep answering, queries and fan-outs alike fail only
    # where the dead shard is actually needed.
    assert med.execute(survivor_doc, "/r/item") == [
        f"<item>v{i}</item>" for i in range(3)]
    with pytest.raises(ShardUnavailableError):
        med.execute("*", "/r/item")


def test_dead_shard_update_is_typed(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(3))
    shard = med.documents()["a"][0]
    cluster.servers[shard].stop()
    with pytest.raises(ShardUnavailableError) as info:
        med.update("a", "insert node <x/> into /r")
    assert info.value.shard == shard
    assert info.value.document == "a"


def test_pool_retry_heals_a_restarted_shard(cluster, tmp_path):
    med = cluster.mediator
    med.load("a", xml=items_xml(4))
    shard = med.documents()["a"][0]
    assert med.execute("a", "/r/item")  # pool now holds a connection
    # Restart the member on the SAME port over the same database.
    host, port = cluster.servers[shard].address
    cluster.servers[shard].stop()
    dbms = cluster.dbs[shard]
    replacement = NetworkServer(dbms, host=host, port=port, workers=2,
                                page_size=8, log_interval=0.0,
                                shard_id=shard)
    replacement.start()
    cluster.servers[shard] = replacement
    # The pooled connection is stale; the retry must absorb that.
    assert med.execute("a", "/r/item") == [
        f"<item>v{i}</item>" for i in range(4)]
    assert med.stats().pool_retries >= 1


def test_connection_pool_reuses_and_counts(cluster):
    host, port = cluster.servers[0].address
    with ConnectionPool(host, port, capacity=2) as pool:
        first = pool.run(lambda client: client.stats())
        second = pool.run(lambda client: client.stats())
        assert first and second
        stats = pool.stats()
        assert stats["connects"] == 1
        assert stats["reuses"] == 1
    with pytest.raises(ShardUnavailableError):
        with ConnectionPool("127.0.0.1", 1, capacity=1,
                            timeout=2.0) as dead:
            dead.run(lambda client: client.stats())


# -- the wire front door over a mediator -------------------------------------


def test_mediator_served_over_network_server(cluster):
    med = cluster.mediator
    med.load("a", xml=items_xml(6))
    med.load("big", xml=items_xml(12), parts=SHARDS)
    front = NetworkServer(None, query_server=med, log_interval=0.0)
    host, port = front.start()
    try:
        with NetClient(host, port) as client:
            assert client.query("a", "/r/item") == "".join(
                f"<item>v{i}</item>" for i in range(6))
            assert client.query("big", "/r/item") == "".join(
                f"<item>v{i}</item>" for i in range(12))
            statement = client.prepare(
                "a", "declare variable $want external; "
                     "for $i in /r/item return "
                     "if (some $t in $i/text() satisfies $t = $want) "
                     "then $i else ()")
            assert statement.query(bindings={"want": "v3"}) == \
                "<item>v3</item>"
            client.load("fresh", "<r><item>new</item></r>")
            assert client.query("fresh", "/r/item") == \
                "<item>new</item>"
            counts = client.update("a",
                                   "insert node <x/> into /r")
            assert counts["nodes_inserted"] == 1
            stats = client.stats()
            assert stats["server"]["shards"] == SHARDS
    finally:
        front.stop()


def test_page_envelope_round_trip():
    envelope = PageEnvelope(document="d", base=16,
                            rows=["<a/>", "<b/>"], eof=False)
    assert PageEnvelope.from_payload(envelope.as_payload()) == envelope
    final = PageEnvelope(document="d", base=18, rows=[], eof=True,
                         total_rows=18, plan_cache_hit=True)
    assert PageEnvelope.from_payload(final.as_payload()) == final


# -- the real process cluster ------------------------------------------------


def test_shard_main_subprocess_lifecycle(tmp_path):
    """``python -m repro.shard`` spawns members, serves, dies cleanly."""
    import os
    import signal as signals

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.shard",
         "--shards", "2", "--data-dir", str(tmp_path / "cluster"),
         "--generate", "dblp=dblp:40", "--partition", "dblp",
         "--log-interval", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": str(
                 __import__("pathlib").Path(__file__).parent.parent
                 / "src")})
    try:
        banner = process.stdout.readline().split()
        assert banner[0] == "LISTENING", process.stderr.read()[-2000:]
        host, port = banner[1], int(banner[2])
        with NetClient(host, port) as client:
            rows = client.execute("dblp", "//author").fetchall()
            assert rows, "partitioned document served no rows"
            assert client.stats()["server"]["shards"] == 2
    finally:
        process.send_signal(signals.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    assert process.returncode == 0


def test_execute_closes_its_stream_on_success_and_error():
    # execute() owns the stream it opens: it must close it whether the
    # page iteration completes or raises, or the shard-side cursor and
    # the mediator's stream registry leak.
    server = ShardedServer([("127.0.0.1", 1)])

    class FakeStream:
        def __init__(self, fail):
            self.fail = fail
            self.closed = False

        def pages(self):
            yield ["<row/>"]
            if self.fail:
                raise RuntimeError("mid-stream failure")

        def close(self, reason=None):
            self.closed = True

    try:
        good = FakeStream(fail=False)
        server.submit_stream = lambda *args, **kwargs: good
        assert server.execute("doc", "$doc") == ["<row/>"]
        assert good.closed

        bad = FakeStream(fail=True)
        server.submit_stream = lambda *args, **kwargs: bad
        with pytest.raises(RuntimeError):
            server.execute("doc", "$doc")
        assert bad.closed
    finally:
        del server.submit_stream
        server.close()
