"""The blocking front end: one thread per TCP connection.

One :class:`NetworkServer` owns a listening socket, an accept thread
and one ``repro-net-conn`` thread per connection, and serves a
*threaded* :class:`~repro.core.server.QueryService` — a local
:class:`~repro.core.server.QueryServer` or the shard mediator.  The
protocol is strict request/response, so a connection thread reads a
frame, does the work inline (waiting, if it must, for a stream's next
page or an update's result) and ``sendall``s the reply; a slow query
or a stalled peer occupies only its own thread.

Deadlines and load shedding come from the admission-control machinery
underneath: an EXECUTE that overruns ``max_pending`` fails with a typed
``AdmissionError`` frame immediately, a query whose deadline expires —
in the queue, mid-execution, or blocked on a slow client's backpressure
— surfaces as ``ResourceLimitExceeded``.  Either way the connection
stays up; only protocol violations (bad framing) drop it.

Per connection the server keeps a statement table (PREPARE handle →
parsed program) and a cursor table (EXECUTE handle → live
:class:`~repro.core.stream.PageStream`).  Both are torn down
unconditionally when the connection ends, however it ends — the stream
close is what releases a worker blocked producing pages for a client
that vanished, so disconnects can never leak cursors or workers.

Observability: every query that reaches EXECUTE gets a per-query record
(rows, bytes, wall latency, plan-cache hit, outcome), aggregated into a
latency histogram and counters exposed through the STATS message — next
to the served layer's own ``stats()`` — and summarized by a periodic
structured log line on the ``repro.net`` logger.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import socket
import threading
import time
from collections import deque

from repro.core.server import (
    DEFAULT_MAX_BUFFERED_PAGES,
    DEFAULT_PAGE_SIZE,
    PageEnvelope,
    QueryServer,
    QueryService,
)
from repro.errors import ProtocolError, ReproError, ServerError, UpdateError
from repro.obs import LatencyHistogram, SlowQueryLog, TraceContext
from repro.net.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    MsgKind,
    encode_error,
    encode_frame,
)
from repro.xq.parser import parse_program

logger = logging.getLogger("repro.net")

#: Seconds a fresh connection gets to complete the HELLO handshake.
HANDSHAKE_TIMEOUT = 10.0


class _NetMetrics:
    """Network-layer counters and per-query records.

    Locked because every connection thread records here while STATS
    snapshots are read from any of them (or the owner's thread).
    """

    def __init__(self, recent_capacity: int = 256):
        self._lock = threading.Lock()
        # guarded by: self._lock
        self.connections_open = 0
        # guarded by: self._lock
        self.connections_total = 0
        # guarded by: self._lock
        self.protocol_errors = 0
        # guarded by: self._lock
        self.bytes_sent = 0
        # guarded by: self._lock
        self.bytes_received = 0
        # guarded by: self._lock
        self.queries = 0
        # guarded by: self._lock
        self.updates = 0
        # guarded by: self._lock
        self.errors_sent = 0
        # guarded by: self._lock
        self.rows_sent = 0
        # guarded by: self._lock
        self.latency = LatencyHistogram()
        # guarded by: self._lock
        self.recent: deque[dict] = deque(maxlen=recent_capacity)

    def record_query(self, record: dict) -> None:
        with self._lock:
            self.queries += 1
            self.rows_sent += record["rows"]
            self.latency.record(record["seconds"])
            self.recent.append(record)

    def count(self, attribute: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, attribute, getattr(self, attribute) + amount)

    def snapshot(self, recent: int = 0) -> dict:
        with self._lock:
            payload = {
                "connections_open": self.connections_open,
                "connections_total": self.connections_total,
                "protocol_errors": self.protocol_errors,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "queries": self.queries,
                "updates": self.updates,
                "errors_sent": self.errors_sent,
                "rows_sent": self.rows_sent,
                "latency": self.latency.snapshot().as_dict(),
            }
            if recent:
                payload["recent"] = list(self.recent)[-recent:]
            return payload


class _Connection:
    """One client connection: handshake, dispatch loop, cleanup — all
    on the connection's own thread, except :meth:`abort`."""

    def __init__(self, server: "NetworkServer", sock: socket.socket):
        self.server = server
        self.sock = sock
        self.decoder = FrameDecoder(max_frame=server.max_frame)
        self.statements: dict[int, tuple[str, object]] = {}
        self.cursors: dict[int, dict] = {}
        self._next_id = 1

    # -- framing -------------------------------------------------------------

    def _read_frame(self) -> tuple[MsgKind, dict]:
        while (frame := self.decoder.next_frame()) is None:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("peer closed the connection")
            self.server.metrics.count("bytes_received", len(data))
            self.decoder.feed(data)
        return frame

    def _send(self, kind: MsgKind, payload: dict) -> None:
        frame = encode_frame(kind, payload)
        self.sock.sendall(frame)
        self.server.metrics.count("bytes_sent", len(frame))

    def _send_error(self, error: BaseException) -> None:
        self.server.metrics.count("errors_sent")
        self._send(MsgKind.ERROR, encode_error(error))

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        try:
            # The deadline covers the first frame only: a peer that
            # never says HELLO costs its thread this long, no longer.
            self.sock.settimeout(HANDSHAKE_TIMEOUT)
            kind, payload = self._read_frame()
            self.sock.settimeout(None)
            if kind is not MsgKind.HELLO:
                raise ProtocolError(f"expected HELLO, got {kind.name}")
            if payload.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client speaks "
                    f"{payload.get('version')!r}, server speaks "
                    f"{PROTOCOL_VERSION}")
            hello_ok = {
                "server": "repro", "version": PROTOCOL_VERSION,
                "max_frame": self.server.max_frame,
                "page_size": self.server.page_size}
            if self.server.shard_id is not None:
                hello_ok["shard_id"] = self.server.shard_id
            self._send(MsgKind.HELLO_OK, hello_ok)
            while True:
                kind, payload = self._read_frame()
                try:
                    self._dispatch(kind, payload)
                except (ProtocolError, ConnectionError):
                    raise
                except ReproError as error:
                    # Application-level failure: typed frame, stay up.
                    self._send_error(error)
                except Exception as error:  # noqa: BLE001 — typed frame
                    logger.exception("unexpected error serving %s", kind)
                    self._send_error(error)
        except ProtocolError as error:
            # Broken framing cannot be resynchronized: answer once
            # (best effort) and drop the connection.
            self.server.metrics.count("protocol_errors")
            with contextlib.suppress(OSError):
                self._send_error(error)
        except OSError:
            pass        # peer went away, said nothing, or stop() hung up

    def abort(self) -> None:
        """``stop()``'s wake-up call, from its thread: the shutdown ends
        a ``recv``/``sendall``, closing the streams ends a FETCH parked
        on a producer.  A cursor opened after the ``list()`` snapshot
        cannot send its EXECUTE_OK, so :meth:`cleanup` gets it."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        for state in list(self.cursors.values()):
            state["stream"].close()

    def cleanup(self) -> None:
        """Tear down this connection's server-side state.

        Closing every live stream is what unblocks (and frees) a worker
        mid-production for a vanished client — the leak-proofing the
        disconnect tests pin down.
        """
        for state in self.cursors.values():
            state["stream"].close()
        self.cursors.clear()
        self.statements.clear()

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, kind: MsgKind, payload: dict) -> None:
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ProtocolError(f"unexpected {kind.name} frame from a client")
        handler(self, payload)

    @staticmethod
    def _field(payload: dict, name: str, kinds, where: str):
        value = payload.get(name)
        if not isinstance(value, kinds):
            raise ProtocolError(f"{where} requires {name!r}")
        return value

    @staticmethod
    def _int_field(payload: dict, name: str, default: int,
                   minimum: int) -> int:
        """An optional count: absent is ``default``, ``true`` is not 1."""
        value = payload.get(name, default)
        if type(value) is not int or value < minimum:
            raise ProtocolError(f"bad {name} {value!r}")
        return value

    def _on_prepare(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "PREPARE")
        text = self._field(payload, "query", str, "PREPARE")
        program = parse_program(text)
        if program.is_updating:
            raise UpdateError("updating statements cannot be prepared; "
                              "send them as UPDATE frames")
        handle = self._next_id
        self._next_id += 1
        self.statements[handle] = (document, program)
        self._send(MsgKind.PREPARE_OK, {
            "statement": handle,
            "document": document,
            "externals": sorted(program.required_variables())})

    def _execute_target(self, payload: dict) -> tuple[str, object]:
        if "statement" in payload:
            handle = payload["statement"]
            try:
                return self.statements[handle]
            except (KeyError, TypeError):
                raise ServerError(
                    f"unknown statement handle {handle!r}") from None
        document = self._field(payload, "document", str, "EXECUTE")
        query = self._field(payload, "query", str, "EXECUTE")
        return document, query

    def _on_execute(self, payload: dict) -> None:
        document, query = self._execute_target(payload)
        bindings = payload.get("bindings") or None
        if bindings is not None and not (
                isinstance(bindings, dict)
                and all(isinstance(value, str)
                        for value in bindings.values())):
            raise ProtocolError("EXECUTE bindings must map names to "
                                "strings")
        page_size = self._int_field(payload, "page_size",
                                    self.server.page_size, minimum=1)
        overrides = {}
        if "time_limit" in payload:
            time_limit = payload["time_limit"]
            if time_limit is not None and not isinstance(
                    time_limit, (int, float)):
                raise ProtocolError(f"bad time_limit {time_limit!r}")
            overrides["time_limit"] = time_limit
        trace = self._trace_context(payload, "EXECUTE", document)
        # Admission control happens right here, synchronously: an
        # AdmissionError propagates to run() and leaves as a typed
        # frame while the connection lives on.
        stream = self.server.query_server.submit_stream(
            document, query, bindings=bindings, serialize=True,
            page_size=page_size,
            max_buffered_pages=self.server.max_buffered_pages,
            trace=trace, **overrides)
        handle = self._next_id
        self._next_id += 1
        self.cursors[handle] = {
            "stream": stream, "document": document, "rows": 0,
            "bytes": 0, "started": time.monotonic(), "trace": trace}
        self._send(MsgKind.EXECUTE_OK, {"cursor": handle})

    def _trace_context(self, payload: dict,
                       where: str, document: str) -> TraceContext | None:
        """Rebuild the caller's trace context, if the frame carries one."""
        wire = payload.get("trace")
        if wire is None:
            return None
        if not isinstance(wire, dict):
            raise ProtocolError(f"{where} trace must be an object")
        name = "shard" if self.server.shard_id is not None else "server"
        trace = TraceContext.from_payload(wire, name=name,
                                          document=document)
        if self.server.shard_id is not None:
            trace.root.attributes["shard"] = self.server.shard_id
        return trace

    def _on_fetch(self, payload: dict) -> None:
        handle = payload.get("cursor")
        state = self.cursors.get(handle)
        if state is None:
            raise ServerError(f"unknown cursor handle {handle!r}")
        stream = state["stream"]
        try:
            page = stream.next_page()
        except BaseException as error:
            self.cursors.pop(handle, None)
            stream.close()
            self._finish_query(state, "error", type(error).__name__)
            raise
        if page is None:
            self.cursors.pop(handle, None)
            spans = self._finish_query(state, "ok", None)
            envelope = PageEnvelope(
                document=state["document"], base=state["rows"],
                rows=[], eof=True, total_rows=state["rows"],
                plan_cache_hit=stream.plan_cache_hit, spans=spans)
        else:
            envelope = PageEnvelope(
                document=state["document"], base=state["rows"],
                rows=page, eof=False)
            state["rows"] += len(page)
            state["bytes"] += sum(len(row) for row in page)
        self._send(MsgKind.PAGE,
                   {"cursor": handle, **envelope.as_payload()})

    def _finish_query(self, state: dict, status: str,
                      error: str | None) -> list | None:
        record = {
            "document": state["document"],
            "rows": state["rows"],
            "bytes": state["bytes"],
            "seconds": round(time.monotonic() - state["started"], 6),
            "plan_cache_hit": state["stream"].plan_cache_hit,
            "status": status,
        }
        if error is not None:
            record["error"] = error
        spans = None
        trace = state.get("trace")
        if trace is not None:
            close_attrs = {"status": status, "rows": state["rows"]}
            if error is not None:
                close_attrs["error"] = error
            spans = trace.close(**close_attrs)
        self.server.metrics.record_query(record)
        self.server.slow_log.observe(record, spans)
        return spans

    def _on_update(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "UPDATE")
        statement = self._field(payload, "statement", str, "UPDATE")
        bindings = payload.get("bindings") or None
        trace = self._trace_context(payload, "UPDATE", document)
        future = self.server.query_server.submit(document, statement,
                                                 bindings=bindings,
                                                 trace=trace)
        result = future.result()
        self.server.metrics.count("updates")
        body = dataclasses.asdict(result)
        if trace is not None:
            body["spans"] = trace.close(status="ok")
        self._send(MsgKind.UPDATE_OK, body)

    def _on_load(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "LOAD")
        xml = self._field(payload, "xml", str, "LOAD")
        self.server.query_server.load(document, xml=xml)
        self._send(MsgKind.LOAD_OK, {"document": document})

    def _on_close(self, payload: dict) -> None:
        if "cursor" in payload:
            state = self.cursors.pop(payload["cursor"], None)
            if state is None:
                raise ServerError(
                    f"unknown cursor handle {payload['cursor']!r}")
            state["stream"].close()
            self._finish_query(state, "closed", None)
            self._send(MsgKind.CLOSE_OK, {"cursor": payload["cursor"]})
            return
        if "statement" in payload:
            if self.statements.pop(payload["statement"], None) is None:
                raise ServerError(
                    f"unknown statement handle {payload['statement']!r}")
            self._send(MsgKind.CLOSE_OK,
                       {"statement": payload["statement"]})
            return
        raise ProtocolError("CLOSE requires 'cursor' or 'statement'")

    def _on_stats(self, payload: dict) -> None:
        recent = self._int_field(payload, "recent", 0, minimum=0)
        self._send(MsgKind.STATS_OK, self.server.stats(recent))

    def _on_metrics(self, payload: dict) -> None:
        self._send(MsgKind.METRICS_OK, {
            "text": self.server.metrics_registry.render_text()})

    #: The frames a client may send after HELLO.
    _HANDLERS = {
        MsgKind.PREPARE: _on_prepare, MsgKind.EXECUTE: _on_execute,
        MsgKind.FETCH: _on_fetch, MsgKind.UPDATE: _on_update,
        MsgKind.LOAD: _on_load, MsgKind.CLOSE: _on_close,
        MsgKind.STATS: _on_stats, MsgKind.METRICS: _on_metrics,
    }


class NetworkServer:
    """Serve a :class:`~repro.core.dbms.XmlDbms` over TCP.

    Owns a :class:`~repro.core.server.QueryServer` (or wraps any
    :class:`~repro.core.server.QueryService` passed as
    ``query_server``) and the listening socket.  Two ways to run it:

    * :meth:`start` / :meth:`stop` — accept on a background thread
      (what the tests and the embedding use);
    * ``python -m repro.serve`` — the command-line entry point
      (:mod:`repro.serve`), which also handles document loading and
      signals.
    """

    def __init__(self, dbms, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, max_pending: int = 64,
                 profile: str = "m4",
                 time_limit: float | None = None,
                 memory_budget: int | None = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 max_buffered_pages: int = DEFAULT_MAX_BUFFERED_PAGES,
                 max_frame: int = MAX_FRAME,
                 log_interval: float = 30.0,
                 query_server: QueryService | None = None,
                 shard_id: int | None = None,
                 slow_query_seconds: float | None = None):
        self.dbms = dbms
        self.host = host
        self.port = port
        self.shard_id = shard_id
        self.page_size = page_size
        self.max_buffered_pages = max_buffered_pages
        self.max_frame = max_frame
        self.log_interval = log_interval
        self._owns_query_server = query_server is None
        self.query_server = query_server or QueryServer(
            dbms, workers=workers, max_pending=max_pending,
            profile=profile, time_limit=time_limit,
            memory_budget=memory_budget)
        self.metrics = _NetMetrics()
        # Join the served layer's registry, so METRICS serves every
        # layer's counters off one page.
        self.metrics_registry = self.query_server.metrics_registry
        self.metrics_registry.register("network", self.metrics.snapshot)
        # Threshold None disables the slow-query log (nothing is ever
        # over an infinite threshold) but keeps its counter exported.
        self.slow_log = SlowQueryLog(
            float("inf") if slow_query_seconds is None
            else slow_query_seconds)
        self.metrics_registry.register("slowlog", self.slow_log)
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        self._stopping = threading.Event()
        #: The accept thread, then (optionally) the stats-line thread.
        self._threads: list[threading.Thread] = []
        #: Never held across a call that takes another lock.
        self._conn_lock = threading.Lock()
        # guarded by: self._conn_lock
        self._connections: dict[_Connection, threading.Thread] = {}

    # -- threads -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                if self._stopping.is_set():
                    return
                # Out of descriptors, or the peer reset before we got
                # to it: keep listening, but do not spin.
                logger.exception("accept failed; retrying")
                self._stopping.wait(1.0)
                continue
            # Request/response over small frames: Nagle plus delayed
            # ACK would add ~40 ms to every round trip.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock)
            thread = threading.Thread(target=self._serve, args=(connection,),
                                      name="repro-net-conn", daemon=True)
            with self._conn_lock:
                self._connections[connection] = thread
            thread.start()

    def _serve(self, connection: _Connection) -> None:
        self.metrics.count("connections_total")
        self.metrics.count("connections_open")
        try:
            connection.run()
        finally:
            # However it ended — goodbye, violation, stop() — the
            # tables empty and every stream closes.
            connection.cleanup()
            self.metrics.count("connections_open", -1)
            with self._conn_lock:
                del self._connections[connection]
            connection.sock.close()

    def _log_periodically(self) -> None:
        while not self._stopping.wait(self.log_interval):
            logger.info("%s", json.dumps(self.stats(), sort_keys=True))

    # -- observability -------------------------------------------------------

    def stats(self, recent: int = 0) -> dict:
        """The STATS payload: worker-pool and network observability."""
        return {
            "server": dataclasses.asdict(self.query_server.stats()),
            "network": self.metrics.snapshot(recent=recent),
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and accept on a daemon thread; returns (host, port)."""
        if self._listener is not None:
            raise ServerError("NetworkServer is already started")
        family, _, _, _, sockaddr = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE)[0]
        self._listener = socket.create_server(sockaddr[:2], family=family)
        self.address = self._listener.getsockname()[:2]
        self._threads = [threading.Thread(
            target=self._accept_loop, name="repro-net-accept",
            daemon=True)]
        if self.log_interval > 0:
            self._threads.append(threading.Thread(
                target=self._log_periodically, name="repro-net-log",
                daemon=True))
        for thread in self._threads:
            thread.start()
        logger.info("listening on %s:%d", *self.address)
        return self.address

    def stop(self) -> None:
        """Stop accepting, hang up on every connection, join their
        threads and (if owned) close the worker pool.  Nothing polls:
        a shutdown wakes whoever is parked on that socket."""
        if self._listener is not None:
            self._stopping.set()
            with contextlib.suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            for thread in self._threads:
                thread.join()
            self._listener.close()
            self._listener = None
            # The accept thread is gone, so this is every connection
            # there will ever be.
            with self._conn_lock:
                live = dict(self._connections)
            for connection in live:
                connection.abort()
            for thread in live.values():
                thread.join()
        if self._owns_query_server:
            self.query_server.close()

    def __enter__(self) -> "NetworkServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
