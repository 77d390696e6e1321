"""The asyncio front end: TCP connections feeding the worker pool.

One :class:`NetworkServer` owns an asyncio event loop serving any
number of connections, and bridges them to a *threaded*
:class:`~repro.core.server.QueryService` — a local
:class:`~repro.core.server.QueryServer` or the shard mediator:

* cheap control operations (admission, statement bookkeeping) run
  directly on the loop — ``submit``/``submit_stream`` never block;
* blocking waits (a stream's next page, an update's result) hop to a
  thread pool via ``run_in_executor`` / ``asyncio.wrap_future``, so a
  slow query stalls only its own connection, never the loop.

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
to the served layer's own ``stats()`` — and
summarized by a periodic structured log line on the ``repro.net``
logger.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

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
    MsgKind,
    decode_body,
    encode_error,
    encode_frame,
)
from repro.xq.parser import parse_program

logger = logging.getLogger("repro.net")

_HEADER = struct.Struct("!I")

#: Seconds a fresh connection gets to complete the HELLO handshake.
HANDSHAKE_TIMEOUT = 10.0


class _NetMetrics:
    """Network-layer counters and per-query records.

    Locked because STATS snapshots may be read from outside the event
    loop (tests, the owner's thread) while the loop is recording.
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
    """One client connection: handshake, dispatch loop, cleanup."""

    def __init__(self, server: "NetworkServer",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.statements: dict[int, tuple[str, object]] = {}
        self.cursors: dict[int, dict] = {}
        self._next_id = 1

    # -- framing -------------------------------------------------------------

    async def _read_frame(self) -> tuple[MsgKind, dict]:
        header = await self.reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length == 0:
            raise ProtocolError("zero-length frame")
        if length > self.server.max_frame:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the "
                f"{self.server.max_frame}-byte limit")
        body = await self.reader.readexactly(length)
        self.server.metrics.count("bytes_received",
                                  _HEADER.size + length)
        return decode_body(body)

    async def _send(self, kind: MsgKind, payload: dict) -> None:
        frame = encode_frame(kind, payload)
        self.writer.write(frame)
        self.server.metrics.count("bytes_sent", len(frame))
        await self.writer.drain()

    async def _send_error(self, error: BaseException) -> None:
        self.server.metrics.count("errors_sent")
        await self._send(MsgKind.ERROR, encode_error(error))

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        try:
            kind, payload = await asyncio.wait_for(self._read_frame(),
                                                   HANDSHAKE_TIMEOUT)
            if kind is not MsgKind.HELLO:
                raise ProtocolError(f"expected HELLO, got {kind.name}")
            if payload.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client speaks "
                    f"{payload.get('version')!r}, server speaks "
                    f"{PROTOCOL_VERSION}")
        except ProtocolError as error:
            self.server.metrics.count("protocol_errors")
            with contextlib.suppress(Exception):
                await self._send_error(error)
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError):
            return
        hello_ok = {
            "server": "repro", "version": PROTOCOL_VERSION,
            "max_frame": self.server.max_frame,
            "page_size": self.server.page_size}
        if self.server.shard_id is not None:
            hello_ok["shard_id"] = self.server.shard_id
        await self._send(MsgKind.HELLO_OK, hello_ok)

        while True:
            try:
                kind, payload = await self._read_frame()
            except (asyncio.IncompleteReadError, ConnectionError):
                return                       # client went away
            except ProtocolError as error:
                # Broken framing cannot be resynchronized: answer once
                # (best effort) and drop the connection.
                self.server.metrics.count("protocol_errors")
                with contextlib.suppress(Exception):
                    await self._send_error(error)
                return
            try:
                await self._dispatch(kind, payload)
            except ProtocolError as error:
                self.server.metrics.count("protocol_errors")
                with contextlib.suppress(Exception):
                    await self._send_error(error)
                return
            except ReproError as error:
                # Application-level failure: typed frame, connection
                # stays up.
                await self._send_error(error)
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except asyncio.CancelledError:
                raise
            except Exception as error:      # noqa: BLE001 — typed frame
                logger.exception("unexpected error serving %s", kind)
                await self._send_error(error)

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

    async def _dispatch(self, kind: MsgKind, payload: dict) -> None:
        if kind is MsgKind.PREPARE:
            await self._on_prepare(payload)
        elif kind is MsgKind.EXECUTE:
            await self._on_execute(payload)
        elif kind is MsgKind.FETCH:
            await self._on_fetch(payload)
        elif kind is MsgKind.UPDATE:
            await self._on_update(payload)
        elif kind is MsgKind.LOAD:
            await self._on_load(payload)
        elif kind is MsgKind.CLOSE:
            await self._on_close(payload)
        elif kind is MsgKind.STATS:
            await self._on_stats(payload)
        elif kind is MsgKind.METRICS:
            await self._on_metrics(payload)
        else:
            raise ProtocolError(f"unexpected {kind.name} frame from a "
                                f"client")

    @staticmethod
    def _field(payload: dict, name: str, kinds, where: str):
        value = payload.get(name)
        if not isinstance(value, kinds):
            raise ProtocolError(f"{where} requires {name!r}")
        return value

    async def _on_prepare(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "PREPARE")
        text = self._field(payload, "query", str, "PREPARE")
        loop = asyncio.get_running_loop()
        # Parsing is pure CPU but can be nontrivial for pathological
        # inputs; keep the loop responsive by hopping off it.
        program = await loop.run_in_executor(self.server.executor,
                                             parse_program, text)
        if program.is_updating:
            raise UpdateError("updating statements cannot be prepared; "
                              "send them as UPDATE frames")
        handle = self._next_id
        self._next_id += 1
        self.statements[handle] = (document, program)
        await self._send(MsgKind.PREPARE_OK, {
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

    async def _on_execute(self, payload: dict) -> None:
        document, query = self._execute_target(payload)
        bindings = payload.get("bindings") or None
        if bindings is not None and not (
                isinstance(bindings, dict)
                and all(isinstance(value, str)
                        for value in bindings.values())):
            raise ProtocolError("EXECUTE bindings must map names to "
                                "strings")
        page_size = payload.get("page_size") or self.server.page_size
        if not isinstance(page_size, int) or page_size < 1:
            raise ProtocolError(f"bad page_size {page_size!r}")
        overrides = {}
        if "time_limit" in payload:
            time_limit = payload["time_limit"]
            if time_limit is not None and not isinstance(
                    time_limit, (int, float)):
                raise ProtocolError(f"bad time_limit {time_limit!r}")
            overrides["time_limit"] = time_limit
        trace = self._trace_context(payload, "EXECUTE", document)
        # Admission control happens right here, synchronously: an
        # AdmissionError propagates to the dispatch loop and leaves as
        # a typed frame while the connection lives on.
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
        await self._send(MsgKind.EXECUTE_OK, {"cursor": handle})

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

    async def _on_fetch(self, payload: dict) -> None:
        handle = payload.get("cursor")
        state = self.cursors.get(handle)
        if state is None:
            raise ServerError(f"unknown cursor handle {handle!r}")
        stream = state["stream"]
        loop = asyncio.get_running_loop()
        try:
            page = await loop.run_in_executor(self.server.executor,
                                              stream.next_page)
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
            await self._send(MsgKind.PAGE,
                             {"cursor": handle, **envelope.as_payload()})
            return
        envelope = PageEnvelope(document=state["document"],
                                base=state["rows"], rows=page, eof=False)
        state["rows"] += len(page)
        state["bytes"] += sum(len(row) for row in page)
        await self._send(MsgKind.PAGE,
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

    async def _on_update(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "UPDATE")
        statement = self._field(payload, "statement", str, "UPDATE")
        bindings = payload.get("bindings") or None
        trace = self._trace_context(payload, "UPDATE", document)
        future = self.server.query_server.submit(document, statement,
                                                 bindings=bindings,
                                                 trace=trace)
        result = await asyncio.wrap_future(future)
        self.server.metrics.count("updates")
        body = dataclasses.asdict(result)
        if trace is not None:
            body["spans"] = trace.close(status="ok")
        await self._send(MsgKind.UPDATE_OK, body)

    async def _on_load(self, payload: dict) -> None:
        document = self._field(payload, "document", str, "LOAD")
        xml = self._field(payload, "xml", str, "LOAD")
        loop = asyncio.get_running_loop()
        # Parsing and storing a document is blocking work; hop off the
        # loop so one big LOAD doesn't stall every other connection.
        await loop.run_in_executor(
            self.server.executor,
            lambda: self.server.query_server.load(document, xml=xml))
        await self._send(MsgKind.LOAD_OK, {"document": document})

    async def _on_close(self, payload: dict) -> None:
        if "cursor" in payload:
            state = self.cursors.pop(payload["cursor"], None)
            if state is None:
                raise ServerError(
                    f"unknown cursor handle {payload['cursor']!r}")
            state["stream"].close()
            self._finish_query(state, "closed", None)
            await self._send(MsgKind.CLOSE_OK,
                             {"cursor": payload["cursor"]})
            return
        if "statement" in payload:
            if self.statements.pop(payload["statement"], None) is None:
                raise ServerError(
                    f"unknown statement handle {payload['statement']!r}")
            await self._send(MsgKind.CLOSE_OK,
                             {"statement": payload["statement"]})
            return
        raise ProtocolError("CLOSE requires 'cursor' or 'statement'")

    async def _on_stats(self, payload: dict) -> None:
        recent = payload.get("recent", 0)
        if not isinstance(recent, int) or recent < 0:
            raise ProtocolError(f"bad recent {recent!r}")
        await self._send(MsgKind.STATS_OK, self.server.stats(recent))

    async def _on_metrics(self, payload: dict) -> None:
        loop = asyncio.get_running_loop()
        # Producers may take subsystem locks; render off the loop.
        text = await loop.run_in_executor(
            self.server.executor,
            self.server.metrics_registry.render_text)
        await self._send(MsgKind.METRICS_OK, {"text": text})


class NetworkServer:
    """Serve a :class:`~repro.core.dbms.XmlDbms` over TCP.

    Owns a :class:`~repro.core.server.QueryServer` (or wraps any
    :class:`~repro.core.server.QueryService` passed as
    ``query_server``) and an asyncio event loop.  Two ways to run it:

    * :meth:`start` / :meth:`stop` — spin the loop on a background
      thread (what the tests and the embedding use);
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
        self.executor = ThreadPoolExecutor(
            max_workers=max(8, self.query_server.io_slots * 2),
            thread_name_prefix="repro-net-io")
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
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._log_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._start_error: BaseException | None = None

    # -- asyncio side --------------------------------------------------------

    async def start_async(self) -> tuple[str, int]:
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        if self.log_interval > 0:
            self._log_task = asyncio.get_running_loop().create_task(
                self._log_periodically())
        logger.info("listening on %s:%d", *self.address)
        return self.address

    async def stop_async(self) -> None:
        """Stop accepting, drop every connection, release their state."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._log_task is not None:
            self._log_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._log_task
            self._log_task = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(self, reader, writer)
        task = asyncio.current_task()
        self._connections.add(task)
        self.metrics.count("connections_total")
        self.metrics.count("connections_open")
        try:
            await connection.run()
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-read.  Swallowing the
            # cancellation here (after cleanup below) keeps the
            # streams-module connection callback from re-raising it
            # into the loop's exception handler on 3.11.
            pass
        finally:
            # Unconditional: whether the client said goodbye, broke the
            # protocol, or the task was cancelled by shutdown, the
            # statement/cursor tables empty and every stream closes.
            connection.cleanup()
            self.metrics.count("connections_open", -1)
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _log_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.log_interval)
            logger.info("%s", json.dumps(self.stats(),
                                         sort_keys=True))

    # -- observability -------------------------------------------------------

    def stats(self, recent: int = 0) -> dict:
        """The STATS payload: worker-pool and network observability."""
        return {
            "server": dataclasses.asdict(self.query_server.stats()),
            "network": self.metrics.snapshot(recent=recent),
        }

    # -- background-thread harness -------------------------------------------

    def start(self) -> tuple[str, int]:
        """Run the event loop on a daemon thread; returns (host, port)."""
        if self._thread is not None:
            raise ServerError("NetworkServer is already started")
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start_async())
            except BaseException as error:  # surfaced to start()
                self._start_error = error
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=_run,
                                        name="repro-net-loop",
                                        daemon=True)
        self._thread.start()
        ready.wait()
        if self._start_error is not None:
            self._thread.join()
            self._thread = None
            error, self._start_error = self._start_error, None
            raise error
        return self.address

    def stop(self) -> None:
        """Shut down the loop thread and (if owned) the worker pool."""
        if self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(self.stop_async(),
                                                      self._loop)
            future.result(timeout=60.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60.0)
            self._thread = None
        self.executor.shutdown(wait=False)
        if self._owns_query_server:
            self.query_server.close()

    def __enter__(self) -> "NetworkServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
