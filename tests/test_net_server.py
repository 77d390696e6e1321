"""End-to-end tests for the network front door, over real sockets.

Everything here talks TCP to an in-process
:class:`~repro.net.server.NetworkServer` (plus one subprocess test for
``python -m repro.serve``).  The claims under test:

* the full request vocabulary works — handshake, prepared statements
  with external-variable bindings, streamed multi-page fetches,
  updates, STATS — with results byte-identical to the in-process API;
* failures are *typed* and *scoped*: an ``AdmissionError`` or an
  expired deadline comes back as the same exception class the
  in-process API raises, and the connection (and server) live on;
* protocol violations drop exactly the offending connection, without
  crashing the server or leaking cursors/streams/workers;
* a client that vanishes mid-stream frees its server-side state — the
  leak-proof-disconnect guarantee backpressure makes interesting;
* a silent or stalled peer costs one thread, never another connection
  or ``stop()``, and no connection outlives itself as a thread.
"""

import os
import pathlib
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.core import QueryServer, XmlDbms
from repro.errors import (
    AdmissionError,
    CatalogError,
    ProtocolError,
    ResourceLimitExceeded,
    ServerError,
    UpdateError,
    XmlError,
    XQSyntaxError,
)
from repro.net import NetClient, NetworkServer
from repro.net import server as net_server
from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    MsgKind,
    encode_frame,
)

JOIN_TIMEOUT = 60.0

ITEMS_DOC = ("<r>"
             + "".join(f"<item>v{i}</item>" for i in range(100))
             + "</r>")

BOUND_QUERY = ("declare variable $want external; "
               "for $i in /r/item return "
               "if (some $t in $i/text() satisfies $t = $want) "
               "then $i else ()")


def wait_until(predicate, timeout=JOIN_TIMEOUT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def server(tmp_path):
    """A served XmlDbms with the items document loaded."""
    with XmlDbms(str(tmp_path / "net.db"), buffer_capacity=256) as dbms:
        dbms.load("doc", xml=ITEMS_DOC)
        with NetworkServer(dbms, workers=2, max_pending=16,
                           page_size=8, log_interval=0.0) as served:
            yield served


@pytest.fixture
def client(server):
    host, port = server.address
    with NetClient(host, port, timeout=JOIN_TIMEOUT) as made:
        yield made


# ---------------------------------------------------------------------------
# the happy path
# ---------------------------------------------------------------------------


class TestProtocolConversation:
    def test_handshake_reports_server_info(self, client):
        assert client.server_info["version"] == PROTOCOL_VERSION
        assert client.server_info["max_frame"] > 0
        assert client.server_info["page_size"] == 8

    def test_query_matches_in_process_results(self, server, client):
        expected = server.dbms.session().query("doc", "/r/item")
        assert client.query("doc", "/r/item") == expected

    def test_multi_page_fetch_streams_every_row(self, client):
        with client.execute("doc", "/r/item", page_size=7) as cursor:
            rows = cursor.fetchall()
        assert len(rows) == 100
        assert rows[0] == "<item>v0</item>"
        assert rows[-1] == "<item>v99</item>"
        assert cursor.total_rows == 100
        # 100 rows at 7/page cannot have arrived in one round trip.
        assert cursor.plan_cache_hit in (True, False)

    def test_prepared_statement_with_bindings(self, client):
        statement = client.prepare("doc", BOUND_QUERY)
        assert statement.externals == ("want",)
        assert statement.query(bindings={"want": "v7"}) \
            == "<item>v7</item>"
        assert statement.query(bindings={"want": "v41"}) \
            == "<item>v41</item>"
        statement.close()

    def test_prepare_rejects_updating_statements(self, client):
        with pytest.raises(UpdateError):
            client.prepare("doc", "insert node <x/> as last into /r")

    def test_update_round_trip_and_visibility(self, client):
        counts = client.update(
            "doc", "insert node <item>fresh</item> as last into /r")
        assert counts["nodes_inserted"] == 2   # element + text node
        rows = client.execute("doc", "/r/item").fetchall()
        assert rows[-1] == "<item>fresh</item>"
        counts = client.update("doc", 'delete nodes //item')
        assert counts["nodes_deleted"] > 0

    def test_stats_payload_shape(self, client):
        client.query("doc", "/r/item")
        stats = client.stats(recent=4)
        server_side, network = stats["server"], stats["network"]
        assert server_side["completed"] >= 1
        for section in ("queue_wait", "execution"):
            histogram = server_side[section]
            assert histogram["count"] >= 1
            assert histogram["p99_ms"] >= histogram["p50_ms"] >= 0.0
        assert network["queries"] >= 1
        assert network["rows_sent"] >= 100
        assert network["bytes_sent"] > 0
        assert network["connections_open"] == 1
        assert network["latency"]["count"] >= 1
        record = network["recent"][-1]
        assert record["status"] == "ok"
        assert record["rows"] == 100

    def test_interleaved_cursors_on_one_connection(self, client):
        first = client.execute("doc", "/r/item", page_size=5)
        second = client.execute("doc", "/r/item", page_size=9)
        page_a = first.fetch_page()
        page_b = second.fetch_page()
        assert len(page_a) == 5 and len(page_b) == 9
        assert len(first.fetchall()) == 95   # the remaining rows
        second.close()
        first.close()


# ---------------------------------------------------------------------------
# typed failures keep the connection (and server) alive
# ---------------------------------------------------------------------------


class TestTypedFailures:
    def test_syntax_error_is_typed_and_connection_survives(self, client):
        with pytest.raises(XQSyntaxError):
            client.query("doc", "for $x in")
        assert client.query("doc", "/r/item").startswith("<item>v0</item>")

    def test_unknown_document_is_a_catalog_error(self, client):
        with pytest.raises(CatalogError):
            client.query("nope", "/r/item")
        assert client.query("doc", "/r/item").startswith("<item>v0</item>")

    @pytest.mark.parametrize("xml", ["<r><item>v0</item>",
                                     "<r>&#xD800;</r>"])
    def test_failed_load_is_typed_and_leaves_the_catalog_alone(
            self, server, client, xml):
        """Fresh name or replacement, a malformed LOAD registers and
        destroys nothing on the server."""
        catalog = server.dbms.db.list_names()
        for name in ("fresh", "doc"):
            with pytest.raises(XmlError):
                client.load(name, xml)
        assert server.dbms.db.list_names() == catalog
        assert server.dbms.documents() == ["doc"]
        assert client.query("doc", "/r/item").startswith("<item>v0</item>")
        client.load("fresh", "<r><item>ok</item></r>")
        assert client.query("fresh", "/r/item") == "<item>ok</item>"

    def test_admission_error_reaches_client_and_server_stays_up(
            self, tmp_path):
        with XmlDbms(str(tmp_path / "adm.db")) as dbms:
            dbms.load("doc", xml=ITEMS_DOC)
            with NetworkServer(dbms, workers=1, max_pending=1,
                               page_size=1, max_buffered_pages=1,
                               log_interval=0.0) as served:
                host, port = served.address
                with NetClient(host, port) as client:
                    # Cursor 1 occupies the only worker (blocked on
                    # backpressure after ~2 pages of 100) — EXECUTE_OK
                    # does not wait for the dequeue, its first page
                    # does; cursor 2 then fills the one queue slot and
                    # the burst overruns admission control.
                    first = client.execute("doc", "/r/item")
                    head = first.fetch_page()
                    client.execute("doc", "/r/item")
                    rejected = 0
                    for __ in range(10):
                        try:
                            client.execute("doc", "/r/item")
                        except AdmissionError:
                            rejected += 1
                    assert rejected == 10
                    # Same connection, still healthy: drain cursor 1.
                    assert len(head) + len(first.fetchall()) == 100

    def test_deadline_expiry_is_typed_resource_limit(self, tmp_path):
        with XmlDbms(str(tmp_path / "dl.db")) as dbms:
            dbms.load("doc", xml=ITEMS_DOC)
            with NetworkServer(dbms, workers=1, max_pending=16,
                               page_size=1, max_buffered_pages=1,
                               log_interval=0.0) as served:
                host, port = served.address
                with NetClient(host, port) as client:
                    blocker = client.execute("doc", "/r/item")
                    doomed = client.execute("doc", "/r/item",
                                            time_limit=0.05)
                    time.sleep(0.2)      # deadline lapses in the queue
                    # Draining the blocker frees the only worker, which
                    # dequeues the doomed query and finds it expired.
                    assert len(blocker.fetchall()) == 100
                    with pytest.raises(ResourceLimitExceeded) as info:
                        doomed.fetchall()
                    assert info.value.kind == "time"
                    # The failed cursor is gone server-side.
                    with pytest.raises(ServerError):
                        client._fetch(doomed.handle)

    def test_unknown_handles_are_server_errors(self, client):
        with pytest.raises(ServerError):
            client._fetch(12345)
        with pytest.raises(ServerError):
            client._close_cursor(9999)
        with pytest.raises(ServerError):
            client._request(MsgKind.CLOSE, {"statement": 777},
                            MsgKind.CLOSE_OK)

    def test_fetch_after_close_is_a_typed_error(self, client):
        cursor = client.execute("doc", "/r/item", page_size=3)
        cursor.fetch_page()
        cursor.close()
        with pytest.raises(ServerError):
            client._fetch(cursor.handle)
        cursor.close()                   # idempotent client-side


# ---------------------------------------------------------------------------
# protocol violations drop the connection without collateral damage
# ---------------------------------------------------------------------------


def _raw_connection(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=JOIN_TIMEOUT)
    return sock


def _read_frames(sock):
    """Read until the peer closes; return the decoded frames."""
    decoder = FrameDecoder()
    frames = []
    while True:
        try:
            data = sock.recv(65536)
        except (ConnectionError, socket.timeout):
            break
        if not data:
            break
        decoder.feed(data)
        frames.extend(decoder.frames())
    return frames


class TestProtocolViolations:
    def test_version_mismatch_answers_error_then_drops(self, server):
        sock = _raw_connection(server)
        try:
            sock.sendall(encode_frame(MsgKind.HELLO, {"version": 99}))
            frames = _read_frames(sock)
        finally:
            sock.close()
        assert frames, "server must answer before dropping"
        kind, payload = frames[0]
        assert kind is MsgKind.ERROR
        assert payload["error"] == "ProtocolError"
        assert "version" in payload["message"]

    def test_garbage_length_prefix_drops_without_crash(self, server):
        sock = _raw_connection(server)
        try:
            sock.sendall(encode_frame(MsgKind.HELLO,
                                      {"version": PROTOCOL_VERSION}))
            sock.sendall(struct.pack("!I", 0xDEADBEEF))
            frames = _read_frames(sock)
        finally:
            sock.close()
        kinds = [kind for kind, __ in frames]
        assert kinds[0] is MsgKind.HELLO_OK
        assert kinds[-1] is MsgKind.ERROR
        # The listener survived: a fresh client still gets answers.
        host, port = server.address
        with NetClient(host, port) as client:
            assert client.query("doc", "/r/item").startswith("<item>v0</item>")
        assert server.metrics.snapshot()["protocol_errors"] >= 1

    def test_violation_mid_session_frees_open_cursors(self, server):
        """A client with a live (backpressured) stream that then breaks
        the protocol loses the connection — and the server closes its
        streams, freeing the producing worker."""
        host, port = server.address
        client = NetClient(host, port, timeout=JOIN_TIMEOUT)
        client.execute("doc", "/r/item", page_size=1)   # live stream
        assert len(server.query_server._streams) == 1
        # Now break framing on the same socket.
        client._sock.sendall(struct.pack("!I", 0))
        assert wait_until(
            lambda: len(server.query_server._streams) == 0), \
            "stream leaked after a protocol violation dropped the peer"
        client.close()
        with NetClient(host, port) as fresh:
            assert fresh.query("doc", "/r/item").startswith("<item>v0</item>")

    def test_bad_execute_payload_is_a_violation(self, server):
        host, port = server.address
        with NetClient(host, port) as client:
            with pytest.raises(ProtocolError):
                client._request(MsgKind.EXECUTE,
                                {"document": "doc", "query": "/r/item",
                                 "bindings": {"x": 42}},
                                MsgKind.EXECUTE_OK)
            # Violations drop the connection.
            with pytest.raises(ProtocolError):
                client.query("doc", "/r/item")

    @pytest.mark.parametrize("kind, field, bad", [
        *[(MsgKind.EXECUTE, "page_size", bad)
          for bad in (0, True, "8", -1, None)],
        *[(MsgKind.STATS, "recent", bad) for bad in (True, "8", -1)],
    ])
    def test_counts_must_be_real_integers_in_range(self, server, kind,
                                                   field, bad):
        """``0`` is not "use the default" and ``true`` is not 1."""
        host, port = server.address
        with NetClient(host, port) as client:
            with pytest.raises(ProtocolError, match=field):
                client._request(kind, {"document": "doc",
                                       "query": "/r/item", field: bad},
                                MsgKind.ERROR)
        assert not server.query_server._streams

    def test_abrupt_disconnect_mid_stream_frees_the_worker(self, server):
        """The headline leak-proofing test: kill the socket while the
        server is blocked producing pages, then prove the worker pool
        recovered by running more queries than there are workers."""
        host, port = server.address
        for __ in range(3):              # repeat: no slow accumulation
            client = NetClient(host, port, timeout=JOIN_TIMEOUT)
            cursor = client.execute("doc", "/r/item", page_size=1)
            assert cursor.fetch_page() == ["<item>v0</item>"]
            client._sock.close()         # vanish without CLOSE
            assert wait_until(
                lambda: len(server.query_server._streams) == 0), \
                "disconnect leaked a stream"
        with NetClient(host, port) as fresh:
            for __ in range(4):          # > workers: none are stuck
                assert len(fresh.execute("doc", "/r/item").fetchall()) \
                    == 100


# ---------------------------------------------------------------------------
# silent and stalled peers, shutdown, thread leaks
# ---------------------------------------------------------------------------


def _conn_threads():
    return [thread for thread in threading.enumerate()
            if thread.name == "repro-net-conn"]


def _stall_mid_frame(server):
    """A handshaken raw connection parked halfway through an EXECUTE:
    the length prefix promises bytes that never come."""
    sock = _raw_connection(server)
    sock.sendall(encode_frame(MsgKind.HELLO,
                              {"version": PROTOCOL_VERSION}))
    decoder = FrameDecoder()
    while (frame := decoder.next_frame()) is None:
        decoder.feed(sock.recv(65536))
    assert frame[0] is MsgKind.HELLO_OK
    frame = encode_frame(MsgKind.EXECUTE,
                         {"document": "doc", "query": "/r/item"})
    sock.sendall(frame[:len(frame) // 2])
    return sock


class TestHostilePeers:
    def test_silent_peer_is_dropped_at_the_handshake_deadline(
            self, server, monkeypatch):
        monkeypatch.setattr(net_server, "HANDSHAKE_TIMEOUT", 0.2)
        sock = _raw_connection(server)
        try:
            # Returns at the server's hang-up; our own (much longer)
            # socket timeout would raise instead.
            assert sock.recv(1) == b""
        finally:
            sock.close()
        assert wait_until(lambda: not _conn_threads()), \
            "the dropped connection left its thread behind"
        assert server.metrics.snapshot()["connections_open"] == 0

    def test_peer_stalled_mid_frame_delays_nobody_else(self, server):
        stalled = _stall_mid_frame(server)
        try:
            host, port = server.address
            with NetClient(host, port, timeout=JOIN_TIMEOUT) as client:
                assert len(client.execute("doc", "/r/item").fetchall()) \
                    == 100
        finally:
            stalled.close()

    def test_stop_wakes_stalled_and_fetching_connections(self, tmp_path):
        """One peer parked mid-frame, another parked in a FETCH no
        worker will ever feed: stop() hangs up on both and returns
        with their threads gone and their streams closed.  The pool is
        the caller's, so stop() cannot lean on closing it."""
        with XmlDbms(str(tmp_path / "stop.db")) as dbms:
            dbms.load("doc", xml=ITEMS_DOC)
            with QueryServer(dbms, workers=1) as pool:
                served = NetworkServer(dbms, query_server=pool,
                                       page_size=1, max_buffered_pages=1,
                                       log_interval=0.0)
                host, port = served.start()
                stalled = _stall_mid_frame(served)
                client = NetClient(host, port, timeout=JOIN_TIMEOUT)
                # Unconsumed, the first cursor pins the only worker on
                # backpressure; the second never leaves the queue.
                assert client.execute("doc", "/r/item").fetch_page()
                starved = client.execute("doc", "/r/item")
                fetch = encode_frame(MsgKind.FETCH,
                                     {"cursor": starved.handle})
                received = served.metrics.snapshot()["bytes_received"]
                client._sock.sendall(fetch)
                assert wait_until(
                    lambda: served.metrics.snapshot()["bytes_received"]
                    == received + len(fetch))
                assert len(pool._streams) == 2
                stopper = threading.Thread(target=served.stop)
                stopper.start()
                stopper.join(JOIN_TIMEOUT)
                assert not stopper.is_alive(), "stop() is stuck"
                assert not _conn_threads()
                # The streams are closed; the one worker now meets
                # each in turn and lets go of it.
                assert wait_until(lambda: not pool._streams)
                assert dbms.mvcc_stats()["snapshots_pinned"] == 0
                stalled.close()
                client._sock.close()

    def test_connection_churn_leaves_no_thread_behind(self, server):
        host, port = server.address
        baseline = set(threading.enumerate())
        for __ in range(200):
            NetClient(host, port, timeout=JOIN_TIMEOUT).close()
        assert wait_until(
            lambda: set(threading.enumerate()) <= baseline), \
            f"leaked {set(threading.enumerate()) - baseline}"
        network = server.metrics.snapshot()
        assert network["connections_total"] == 200
        assert network["connections_open"] == 0


# ---------------------------------------------------------------------------
# sharing one QueryServer between front doors
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_wrapping_an_existing_query_server(self, tmp_path):
        """A NetworkServer handed a QueryServer must serve through it
        and must not close it on stop()."""
        with XmlDbms(str(tmp_path / "own.db")) as dbms:
            dbms.load("doc", xml=ITEMS_DOC)
            with QueryServer(dbms, workers=2) as pool:
                served = NetworkServer(dbms, query_server=pool,
                                       log_interval=0.0)
                host, port = served.start()
                with NetClient(host, port) as client:
                    assert client.query("doc", "/r/item") \
                        .startswith("<item>v0</item>")
                served.stop()
                # The pool is still ours, still working.
                future = pool.submit("doc", "/r/item", serialize=True)
                assert future.result(timeout=JOIN_TIMEOUT)


# ---------------------------------------------------------------------------
# the command-line entry point
# ---------------------------------------------------------------------------


class TestServeSubprocess:
    def test_server_processes_never_import_asyncio(self):
        """Every server process pays for what its entry point imports:
        asyncio (and the ssl and ~40 modules it drags in) stays out,
        and so do the generators unless ``--generate`` asks."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        heavy = subprocess.run(
            [sys.executable, "-c",
             "import repro.serve, repro.shard.__main__, sys; "
             "print(*sorted({'asyncio', 'ssl', 'tempfile', "
             "'repro.workloads.dblp'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=JOIN_TIMEOUT,
            check=True).stdout.split()
        assert heavy == []
        importers = [
            path for path in pathlib.Path(src, "repro").rglob("*.py")
            if re.search(r"^\s*(import|from)\s+asyncio\b",
                         path.read_text(encoding="utf-8"), re.M)]
        assert importers == []

    def test_serve_starts_answers_and_shuts_down_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "src")])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--generate", "doc=dblp:12", "--port", "0",
             "--workers", "2", "--log-interval", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("LISTENING "), banner
            __, host, port = banner.split()
            with NetClient(host, int(port),
                           timeout=JOIN_TIMEOUT) as client:
                rows = client.execute(
                    "doc",
                    "for $t in //article/title return $t").fetchall()
                assert len(rows) == 12
                assert client.stats()["network"]["queries"] == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=JOIN_TIMEOUT) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
