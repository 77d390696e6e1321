"""The blocking client library for the network front door.

A thin, dependency-free socket client speaking the protocol of
:mod:`repro.net.protocol`::

    from repro.net import NetClient

    with NetClient(host, port) as client:
        statement = client.prepare("dblp", '''
            declare variable $who external;
            for $a in //author return
            if (some $t in $a/text() satisfies $t = $who)
            then $a else ()''')
        with statement.execute(bindings={"who": "Wei Wang"}) as cursor:
            for row in cursor:              # streamed page by page
                print(row)

Result rows arrive as serialized XML strings (the server serializes on
its worker threads).  Server-side failures raise the same typed
exceptions the in-process API raises — ``AdmissionError``,
``ResourceLimitExceeded``, ``CatalogError``, ``BindingError`` … —
rebuilt from the error frames, so calling code is written once for
both deployments.

One request is in flight per connection at a time (the protocol is
strict request/response); the client serializes calls with a lock, so
sharing one ``NetClient`` between threads is safe but pipelines
nothing.  Open one client per thread of control for parallelism, as
with any DBMS connection.
"""

from __future__ import annotations

import socket
import threading

from repro.core.server import PageEnvelope
from repro.errors import ProtocolError
from repro.obs import TraceContext
from repro.net.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    MsgKind,
    decode_error,
    encode_frame,
)

#: Default per-operation socket timeout.  Generous: a FETCH legitimately
#: waits out the server-side queue; the *deadline* is the server's job
#: (pass ``time_limit`` to ``execute``), the socket timeout only guards
#: against a dead peer.
DEFAULT_TIMEOUT = 120.0


class NetClient:
    """A blocking connection to a :class:`~repro.net.server.NetworkServer`."""

    def __init__(self, host: str, port: int,
                 timeout: float | None = DEFAULT_TIMEOUT,
                 max_frame: int = MAX_FRAME):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder(max_frame=max_frame)
        self._lock = threading.RLock()
        self._closed = False
        hello = self._request(MsgKind.HELLO,
                              {"version": PROTOCOL_VERSION},
                              MsgKind.HELLO_OK)
        #: The server's HELLO_OK payload (version, limits, defaults).
        self.server_info = hello

    # -- plumbing ------------------------------------------------------------

    def _read_frame(self) -> tuple[MsgKind, dict]:
        while True:
            frame = self._decoder.next_frame()
            if frame is not None:
                return frame
            try:
                data = self._sock.recv(65536)
            except TimeoutError:
                raise                    # a dead peer, not bad framing
            except OSError as error:
                raise ProtocolError(
                    f"connection lost: {error}") from error
            if not data:
                raise ProtocolError("server closed the connection")
            self._decoder.feed(data)

    def _request(self, kind: MsgKind, payload: dict,
                 expect: MsgKind) -> dict:
        with self._lock:
            if self._closed:
                raise ProtocolError("client is closed")
            try:
                self._sock.sendall(encode_frame(kind, payload))
            except TimeoutError:
                raise
            except OSError as error:
                raise ProtocolError(
                    f"connection lost: {error}") from error
            got, response = self._read_frame()
        if got is MsgKind.ERROR:
            raise decode_error(response)
        if got is not expect:
            raise ProtocolError(f"expected {expect.name}, server sent "
                                f"{got.name}")
        return response

    # -- the client surface --------------------------------------------------

    def prepare(self, document: str, query: str) -> "RemoteStatement":
        """Validate ``query`` server-side; returns a reusable handle."""
        response = self._request(MsgKind.PREPARE,
                                 {"document": document, "query": query},
                                 MsgKind.PREPARE_OK)
        return RemoteStatement(self, response["statement"], document,
                               tuple(response["externals"]))

    def execute(self, document: str, query: str,
                bindings: dict[str, str] | None = None,
                page_size: int | None = None,
                time_limit: float | None = None,
                trace=None) -> "RemoteCursor":
        """Run a one-shot query; returns a streaming cursor.

        ``trace`` may be a :class:`~repro.obs.TraceContext` (its id and
        deadline go on the wire, and the server's span tree is grafted
        under its current span when the cursor hits eof) or an
        already-encoded wire payload dict (spans then surface on
        ``cursor.spans`` only).
        """
        return self._execute({"document": document, "query": query},
                             bindings, page_size, time_limit, trace)

    @staticmethod
    def _trace_payload(trace) -> dict | None:
        if trace is None:
            return None
        if isinstance(trace, TraceContext):
            return trace.as_payload()
        return dict(trace)

    def _execute(self, target: dict, bindings, page_size,
                 time_limit, trace=None) -> "RemoteCursor":
        payload = dict(target)
        if bindings:
            payload["bindings"] = dict(bindings)
        if page_size is not None:
            payload["page_size"] = page_size
        if time_limit is not None:
            payload["time_limit"] = time_limit
        wire_trace = self._trace_payload(trace)
        if wire_trace is not None:
            payload["trace"] = wire_trace
        response = self._request(MsgKind.EXECUTE, payload,
                                 MsgKind.EXECUTE_OK)
        return RemoteCursor(self, response["cursor"], trace=trace)

    def query(self, document: str, query: str,
              bindings: dict[str, str] | None = None,
              time_limit: float | None = None) -> str:
        """Execute and concatenate the serialized result rows."""
        with self.execute(document, query, bindings=bindings,
                          time_limit=time_limit) as cursor:
            return "".join(cursor)

    def update(self, document: str, statement: str,
               bindings: dict[str, str] | None = None,
               trace=None) -> dict:
        """Run an updating statement; returns the per-kind counts.

        With a :class:`~repro.obs.TraceContext` as ``trace``, the
        server's spans are grafted under its current span and stripped
        from the returned dict; a raw payload dict leaves them under
        ``"spans"`` for the caller.
        """
        payload = {"document": document, "statement": statement}
        if bindings:
            payload["bindings"] = dict(bindings)
        wire_trace = self._trace_payload(trace)
        if wire_trace is not None:
            payload["trace"] = wire_trace
        response = self._request(MsgKind.UPDATE, payload,
                                 MsgKind.UPDATE_OK)
        if isinstance(trace, TraceContext):
            trace.attach(response.pop("spans", None))
        return response

    def load(self, document: str, xml: str) -> None:
        """Load (or replace) ``document`` from an XML string.

        The server parses and stores the document before answering, so
        a successful return means the document is queryable (and, on a
        durable database, logged to the WAL).
        """
        self._request(MsgKind.LOAD, {"document": document, "xml": xml},
                      MsgKind.LOAD_OK)

    def stats(self, recent: int = 0) -> dict:
        """The server's STATS payload (pool + network observability)."""
        payload = {"recent": recent} if recent else {}
        return self._request(MsgKind.STATS, payload, MsgKind.STATS_OK)

    def metrics(self) -> str:
        """The server's Prometheus-style metrics page as text."""
        return self._request(MsgKind.METRICS, {},
                             MsgKind.METRICS_OK)["text"]

    def _fetch(self, cursor: int) -> dict:
        return self._request(MsgKind.FETCH, {"cursor": cursor},
                             MsgKind.PAGE)

    def _close_cursor(self, cursor: int) -> None:
        self._request(MsgKind.CLOSE, {"cursor": cursor},
                      MsgKind.CLOSE_OK)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop the connection; the server reclaims all session state."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RemoteStatement:
    """A server-validated statement handle, executable many times."""

    def __init__(self, client: NetClient, handle: int, document: str,
                 externals: tuple[str, ...]):
        self.client = client
        self.handle = handle
        self.document = document
        #: Variables every execution must bind.
        self.externals = externals

    def execute(self, bindings: dict[str, str] | None = None,
                page_size: int | None = None,
                time_limit: float | None = None,
                trace=None) -> "RemoteCursor":
        """Run the prepared statement; returns a streaming cursor."""
        return self.client._execute({"statement": self.handle},
                                    bindings, page_size, time_limit,
                                    trace)

    def query(self, bindings: dict[str, str] | None = None,
              **overrides) -> str:
        """Execute and concatenate the serialized result rows."""
        with self.execute(bindings=bindings, **overrides) as cursor:
            return "".join(cursor)

    def close(self) -> None:
        """Release the server-side handle."""
        self.client._request(MsgKind.CLOSE,
                             {"statement": self.handle},
                             MsgKind.CLOSE_OK)


class RemoteCursor:
    """A streaming remote result: iterate serialized rows, page by page.

    Each page is one FETCH round trip; the server produces at most a
    bounded number of pages ahead (its backpressure window), so a
    consumer reading slowly slows the producer rather than buffering
    the whole result anywhere.
    """

    def __init__(self, client: NetClient, handle: int, trace=None):
        self.client = client
        self.handle = handle
        self.trace = trace
        self._buffer: list[str] = []
        self._index = 0
        self._eof = False
        #: Populated from the final page.
        self.total_rows: int | None = None
        self.plan_cache_hit: bool | None = None
        #: The server's serialized span tree (traced queries, at eof).
        self.spans: list | None = None

    def fetch_envelope(self) -> PageEnvelope:
        """The next page with its merge-key metadata.

        Returns the full :class:`~repro.core.server.PageEnvelope` —
        ``document``, ``base`` (index of the page's first row in the
        whole result), ``rows`` and ``eof`` — which is what the shard
        mediator's k-way merge consumes.  After the ``eof`` envelope
        the cursor is exhausted and further calls return empty final
        envelopes.
        """
        if self._eof:
            return PageEnvelope(document="", base=self.total_rows or 0,
                                rows=[], eof=True,
                                total_rows=self.total_rows,
                                plan_cache_hit=self.plan_cache_hit)
        try:
            envelope = PageEnvelope.from_payload(
                self.client._fetch(self.handle))
        except BaseException:
            # The server dropped the cursor along with the error (or
            # broke the protocol); a later close() must not CLOSE a
            # handle that no longer exists.
            self._eof = True
            raise
        if envelope.eof:
            self._eof = True
            self.total_rows = envelope.total_rows
            self.plan_cache_hit = envelope.plan_cache_hit
            self.spans = envelope.spans
            if isinstance(self.trace, TraceContext):
                self.trace.attach(envelope.spans)
        return envelope

    def fetch_page(self) -> list[str]:
        """The next server page (empty at end of results)."""
        if self._eof:
            return []
        return self.fetch_envelope().rows

    def __iter__(self):
        return self

    def __next__(self) -> str:
        while self._index >= len(self._buffer):
            if self._eof:
                raise StopIteration
            self._buffer = self.fetch_page()
            self._index = 0
        row = self._buffer[self._index]
        self._index += 1
        return row

    def fetchall(self) -> list[str]:
        """Every remaining row."""
        return list(self)

    def close(self) -> None:
        """Abandon the cursor early; the server frees it (idempotent)."""
        if self._eof:
            return
        self._eof = True
        self.client._close_cursor(self.handle)

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
