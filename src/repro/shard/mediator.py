"""The shard mediator: one query surface over many shard processes.

:class:`ShardedServer` fronts N independent ``python -m repro.serve``
processes (or in-process :class:`~repro.net.server.NetworkServer`
instances — the tests' fixture), each owning its own
:class:`~repro.core.dbms.XmlDbms`, and presents them as a single
:class:`~repro.core.server.QueryService` — which is how
``python -m repro.shard`` exposes a whole cluster through one
:class:`~repro.net.server.NetworkServer` address speaking the ordinary
wire protocol.

A catalog maps every logical document to the shard (or shards) holding
it.  A query becomes one :class:`~repro.core.stream.PageStream` with
one *part* per owning shard: a single part for a whole document, one
per chunk for a *partitioned* document (loaded with ``parts > 1``,
chunk ``i`` on shard ``i``), one per document chunk for ``"*"`` (every
document).  Each part is a subquery on a pooled, reconnecting
:class:`~repro.net.pool.ConnectionPool` connection, all running
concurrently, their pages merged back in document order keyed on
``(part rank, row index)`` — the metadata
:class:`~repro.core.server.PageEnvelope` carries across the wire.
Updates are routed to the document's single owner.

Failure semantics: a dead shard makes queries touching *its* documents
raise :class:`~repro.errors.ShardUnavailableError` (after the pool's
one reconnect retry absorbs mere restarts), while documents on other
shards keep being served.  A query that needs a dead shard fails as a
whole — it never ends early as if complete.  Updates are never
auto-retried: an update whose connection died mid-flight may or may not
have been applied, and silently applying it twice is worse than
surfacing the failure.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path

from repro.core.server import (
    DEFAULT_MAX_BUFFERED_PAGES,
    DEFAULT_PAGE_SIZE,
    QueryService,
)
from repro.core.stream import PageStream, StreamAborted
from repro.errors import (
    CatalogError,
    ProtocolError,
    ServerClosedError,
    ShardError,
    ShardUnavailableError,
    UpdateError,
)
from repro.net.client import DEFAULT_TIMEOUT
from repro.net.pool import ConnectionPool
from repro.obs import MetricsRegistry
from repro.shard.partition import split_document
from repro.updates.pul import UpdateResult
from repro.xq.pretty import unparse

#: Failures meaning "the shard connection is gone", mirrored from the
#: pool so leased-cursor paths classify errors the same way ``run`` does.
_CONNECTION_FAILURES = (ProtocolError, ServerClosedError,
                        ConnectionError, OSError, TimeoutError)

#: The fan-out pseudo-document: query every logical document, results
#: merged in sorted document-name order.
ALL_DOCUMENTS = "*"


def statement_text(statement) -> str:
    """The query text to put on the wire for ``statement``.

    Accepts what :class:`~repro.core.server.QueryServer` accepts — a
    string, a parsed ``Program``, or a bare query/update expression —
    and renders it back to XQ text, re-prepending ``declare variable
    $x external;`` for a program's declared externals (the body's
    unparse alone would drop them, and the shard's parser must see the
    same external surface the mediator validated against).
    """
    if isinstance(statement, str):
        return statement
    body = getattr(statement, "body", statement)
    text = unparse(body)
    externals = getattr(statement, "externals", ()) or ()
    declarations = "".join(f"declare variable ${name} external; "
                           for name in externals)
    return declarations + text


@dataclasses.dataclass(frozen=True)
class MediatorStats:
    """Mediator-local counters (no network round trips to collect).

    ``queries`` counts streams over one whole document, ``fanouts``
    those over ``"*"`` or a partitioned one; ``rows_streamed`` is rows
    handed to consumers across both, added when a stream ends.
    ``pool_connects``/``pool_retries``/``pool_discards`` aggregate the per-shard connection pools —
    ``pool_retries`` ticking up is the visible trace of shard restarts
    being absorbed.  For the cluster-wide view (every shard's own
    ``ServerStats`` and network metrics summed) call
    :meth:`ShardedServer.cluster_stats`, which does talk to the shards.
    """

    shards: int
    documents: int
    queries: int
    fanouts: int
    updates: int
    loads: int
    errors: int
    rows_streamed: int
    pool_connects: int
    pool_retries: int
    pool_discards: int


class ShardedServer(QueryService):
    """Mediate queries over a set of shard servers.

    ``endpoints`` is the cluster membership: ``(host, port)`` per
    shard, index order defining shard ids.  The mediator dials lazily —
    constructing one against endpoints that are not up yet is fine;
    the first operation that needs a shard raises
    :class:`~repro.errors.ShardUnavailableError` if it still is not.
    """

    def __init__(self, endpoints, pool_capacity: int = 4,
                 timeout: float | None = DEFAULT_TIMEOUT,
                 page_size: int = DEFAULT_PAGE_SIZE):
        """Set up per-shard connection pools and an empty catalog."""
        endpoints = [tuple(endpoint) for endpoint in endpoints]
        if not endpoints:
            raise ShardError("a cluster needs at least one shard")
        self.endpoints = endpoints
        self.page_size = page_size
        self._pools = [
            ConnectionPool(host, port, capacity=pool_capacity,
                           timeout=timeout, shard=index)
            for index, (host, port) in enumerate(endpoints)
        ]
        #: logical document name -> owning shard ids, in chunk order.
        #: One entry means a whole document; several mean a partitioned
        #: one (chunk i on shards[i] under the same physical name).
        # guarded by: self._lock
        self._catalog: dict[str, tuple[int, ...]] = {}
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._closed = False
        # guarded by: self._lock
        self._streams: set = set()
        #: Enough threads to keep every shard busy.
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(endpoints)),
            thread_name_prefix="repro-shard")
        # guarded by: self._lock
        self._queries = 0
        # guarded by: self._lock
        self._fanouts = 0
        # guarded by: self._lock
        self._updates = 0
        # guarded by: self._lock
        self._loads = 0
        # guarded by: self._lock
        self._errors = 0
        # guarded by: self._lock
        self._rows_streamed = 0
        #: Joined by a fronting NetworkServer, so the cluster front
        #: door's METRICS page carries these counters.
        self.metrics_registry = MetricsRegistry()
        self.metrics_registry.register(
            "mediator", lambda: dataclasses.asdict(self.stats()))

    # -- catalog -------------------------------------------------------------

    def _check_open(self, operation: str) -> None:
        with self._lock:
            closed = self._closed
        if closed:
            raise ServerClosedError(
                f"{operation} on a closed ShardedServer")

    def _placement(self, document: str) -> tuple[int, ...]:
        with self._lock:
            try:
                return self._catalog[document]
            except KeyError:
                raise CatalogError(
                    f"unknown document {document!r}; the mediator "
                    f"serves {sorted(self._catalog) or 'no documents'}"
                ) from None

    def _least_loaded_shard(self) -> int:
        with self._lock:
            load = [0] * len(self._pools)
            for shards in self._catalog.values():
                for shard in shards:
                    load[shard] += 1
        return min(range(len(load)), key=lambda index: (load[index],
                                                        index))

    def documents(self) -> dict[str, tuple[int, ...]]:
        """The catalog: logical document name -> owning shard ids."""
        with self._lock:
            return dict(self._catalog)

    def attach(self, document: str, shards) -> None:
        """Register a document already present on ``shards``.

        For membership the mediator did not place itself — documents
        pre-loaded by ``python -m repro.serve --load`` on the members,
        or a mediator restarting over a live cluster.  ``shards`` is a
        shard id or an ordered sequence of them (partitioned chunks).
        """
        self._check_open("attach()")
        if isinstance(shards, int):
            shards = (shards,)
        shards = tuple(shards)
        for shard in shards:
            if not 0 <= shard < len(self._pools):
                raise ShardError(f"no shard {shard} in a "
                                 f"{len(self._pools)}-shard cluster")
        if not shards:
            raise ShardError("a document needs at least one shard")
        with self._lock:
            self._catalog[document] = shards

    # -- placement -----------------------------------------------------------

    def load(self, document: str, xml: str | None = None,
             path: str | None = None, parts: int = 1) -> tuple[int, ...]:
        """Place a document on the cluster; returns the owning shards.

        With ``parts == 1`` the whole document goes to the least-loaded
        shard.  With ``parts > 1`` the root's children are split into
        ``parts`` contiguous chunks (:func:`~repro.shard.partition.
        split_document`), chunk ``i`` loaded on shard ``i`` under the
        same name, all chunks in parallel — queries against the name
        then fan out and merge.  A failed load leaves the catalog entry
        as it was.
        Loading is idempotent (it replaces), so placement retries are
        safe; reloading an existing name keeps its placement shape.
        """
        self._check_open("load()")
        if xml is None:
            if path is None:
                raise ShardError("load() needs xml or path")
            xml = Path(path).read_text(encoding="utf-8")
        if parts > len(self._pools):
            raise ShardError(
                f"cannot spread {parts} parts over "
                f"{len(self._pools)} shards")
        if parts > 1:
            chunks = split_document(xml, parts)
            shards = tuple(range(parts))
            # Every chunk loads at once; the catalog entry below is
            # published only after all of them are acknowledged.
            futures = [
                self._executor.submit(
                    self._pools[shard].run,
                    lambda client, chunk=chunk: client.load(document,
                                                            chunk))
                for shard, chunk in zip(shards, chunks, strict=True)]
            wait(futures)
            for future in futures:
                future.result()  # re-raises the first typed failure
        else:
            with self._lock:
                existing = self._catalog.get(document)
            if existing is not None and len(existing) > 1:
                raise ShardError(
                    f"{document!r} is partitioned over {existing}; "
                    f"reload it with parts={len(existing)} or attach "
                    f"a new name")
            shards = existing or (self._least_loaded_shard(),)
            self._pools[shards[0]].run(
                lambda client: client.load(document, xml))
        with self._lock:
            self._catalog[document] = shards
            self._loads += 1
        return shards

    # -- queries and updates -------------------------------------------------

    def submit_stream(self, document: str, query,
                      bindings: dict | None = None,
                      serialize: bool = True,
                      page_size: int | None = None,
                      max_buffered_pages: int = DEFAULT_MAX_BUFFERED_PAGES,
                      time_limit: float | None = None,
                      trace=None) -> PageStream:
        """A streaming result for ``document`` (or ``"*"`` for all).

        One subquery per owning shard, fetched concurrently on one
        prefetch thread each (a fast shard runs ahead only
        ``max_buffered_pages`` pages), rows merged back in document
        order; a single-owner document is the one-part case.  Nothing
        here blocks the caller — shard dialing happens on the prefetch
        threads.  Any part failing fails the whole stream.

        With a :class:`~repro.obs.TraceContext` as ``trace``, a
        ``mediator`` span opens under its current span, the trace id
        rides the subquery EXECUTE frames, and every shard's returned
        span tree is grafted under the mediator span when the stream
        ends — the stitched cluster-wide trace.
        """
        self._check_open("submit_stream()")
        if not serialize:
            raise ShardError("the mediator streams serialized rows; "
                             "submit_stream(serialize=False) is only "
                             "available on a local QueryServer")
        if document == ALL_DOCUMENTS:
            catalog = self.documents()
            parts = [(name, shard)
                     for name in sorted(catalog)
                     for shard in catalog[name]]
            if not parts:
                raise CatalogError("the mediator serves no documents")
        else:
            parts = [(document, shard)
                     for shard in self._placement(document)]
        page_size = page_size or self.page_size
        text = statement_text(query)
        span = wire_trace = None
        if trace is not None:
            span = trace.current.child("mediator", document=document)
            wire_trace = trace.as_payload()
        # Each part's eof envelope, written by its prefetch thread
        # before it ends its lane and read by the consumer only after
        # every lane has ended — one writer per slot, so no lock.
        finals: list = [None] * len(parts)

        def on_end(stream: PageStream, error) -> None:
            with self._lock:
                self._streams.discard(stream)
                self._rows_streamed += stream.rows_delivered
                if error is not None:
                    self._errors += 1
            if stream.total_rows is not None:
                hits = [final.plan_cache_hit for final in finals]
                if None not in hits:
                    stream.plan_cache_hit = all(hits)
            if span is None:
                return
            if error is not None:
                span.end(error=type(error).__name__)
            elif stream.total_rows is not None:
                for final in finals:
                    span.attach(final.spans)
                span.end(rows=stream.total_rows, parts=len(parts))
            else:
                span.end()

        stream = PageStream(document, page_size, max_buffered_pages,
                            lanes=len(parts), on_end=on_end)
        with self._lock:
            if document == ALL_DOCUMENTS or len(parts) > 1:
                self._fanouts += 1
            else:
                self._queries += 1
            self._streams.add(stream)
        for rank, (name, shard) in enumerate(parts):
            threading.Thread(
                target=self._prefetch,
                args=(stream.lanes[rank], finals, rank, shard, name,
                      text, bindings, page_size, time_limit, wire_trace),
                name=f"repro-shard-part-{rank}", daemon=True).start()
        return stream

    def _prefetch(self, lane, finals: list, rank: int, shard: int,
                  document: str, *execute_args) -> None:
        """Producer of one part: relay a shard cursor's pages into ``lane``.

        The lease goes back to the pool *before* the lane ends, so a
        consumer that sees the end of results finds every connection
        reusable.
        """
        try:
            client, cursor = self._lease_cursor(shard, document,
                                                *execute_args)
        except BaseException as error:
            lane.finish(error)
            return
        error, discard = None, False
        try:
            while not (envelope := cursor.fetch_envelope()).eof:
                lane.put((envelope.base, envelope.rows))
            finals[rank] = envelope
        except StreamAborted:
            # The consumer closed mid-stream and the remote cursor is
            # still open; free it (best effort) with the lease.
            try:
                cursor.close()
            except Exception:
                discard = True
        except _CONNECTION_FAILURES as failure:
            # Terminal: the cursor's position died with the connection.
            discard = True
            error = ShardUnavailableError(
                f"shard {shard} died mid-stream on {document!r}: "
                f"{failure}", shard=shard, document=document)
        except BaseException as failure:
            # A typed error over a healthy connection: the shard already
            # dropped the cursor, the connection survives.
            error = failure
        self._pools[shard].release(client, discard=discard)
        lane.finish(error)

    def _lease_cursor(self, shard: int, document: str, text: str,
                      bindings, page_size, time_limit, wire_trace):
        """EXECUTE on a pooled connection, keeping the lease.

        Retries the EXECUTE once on a stale connection (the
        shard-restart window); the caller owns releasing the returned
        client when the stream ends.  Raises
        :class:`~repro.errors.ShardUnavailableError` when the shard
        cannot be reached at all.
        """
        pool = self._pools[shard]
        for attempt in range(2):
            try:
                client = pool.acquire()
            except ShardUnavailableError as error:
                error.document = error.document or document
                raise
            try:
                cursor = client.execute(document, text, bindings=bindings,
                                        page_size=page_size,
                                        time_limit=time_limit,
                                        trace=wire_trace)
            except _CONNECTION_FAILURES as error:
                pool.release(client, discard=True)
                if attempt == 0:
                    pool.record_retry()
                    continue
                raise ShardUnavailableError(
                    f"shard {shard} failed twice opening a cursor on "
                    f"{document!r}: {error}", shard=shard,
                    document=document) from error
            except BaseException:
                pool.release(client)
                raise
            return client, cursor
        raise AssertionError("unreachable")

    def submit(self, document: str, statement,
               bindings: dict | None = None, trace=None,
               **overrides) -> Future:
        """Run a statement asynchronously; returns its Future.

        This is the mediator's side of ``QueryServer.submit`` as the
        network front end uses it: updating statements.  The update is
        routed to the document's single owner and **never retried** —
        a connection that died mid-update leaves the outcome unknown,
        and the typed failure is the honest answer.  Updating a
        partitioned document raises
        :class:`~repro.errors.UpdateError`: a chunked update is not
        atomic across processes, and this codebase does not pretend
        otherwise.
        """
        self._check_open("submit()")
        return self._executor.submit(self._run_update, document,
                                     statement, bindings, trace)

    def _run_update(self, document: str, statement,
                    bindings: dict | None,
                    trace=None) -> UpdateResult:
        shards = self._placement(document)
        if len(shards) > 1:
            raise UpdateError(
                f"{document!r} is partitioned over shards {shards}; "
                f"updates to partitioned documents are not supported "
                f"(no cross-process atomicity)")
        text = statement_text(statement)
        span = wire_trace = None
        if trace is not None:
            # The submitting caller blocks on the future, so this
            # executor thread has the trace to itself until it returns.
            span = trace.current.child("mediator", document=document,
                                       shard=shards[0])
            wire_trace = trace.as_payload()
        try:
            payload = self._pools[shards[0]].run(
                lambda client: client.update(document, text,
                                             bindings=bindings,
                                             trace=wire_trace),
                retryable=False)
        except _CONNECTION_FAILURES as error:
            self._count("_errors")
            if span is not None:
                span.end(error=type(error).__name__)
            raise ShardUnavailableError(
                f"shard {shards[0]} failed during an update of "
                f"{document!r} (outcome unknown): {error}",
                shard=shards[0], document=document) from error
        except ShardUnavailableError as error:
            self._count("_errors")
            if span is not None:
                span.end(error=type(error).__name__)
            if error.document is None:
                error.document = document
            raise
        self._count("_updates")
        spans = payload.pop("spans", None)
        if span is not None:
            span.attach(spans)
            span.end()
        return UpdateResult(**payload)

    def update(self, document: str, statement,
               bindings: dict | None = None) -> UpdateResult:
        """Route an updating statement and wait for its result."""
        return self.submit(document, statement,
                           bindings=bindings).result()

    def execute(self, document: str, query,
                bindings: dict | None = None,
                time_limit: float | None = None) -> list[str]:
        """Run a query and collect every (serialized) row."""
        stream = self.submit_stream(document, query, bindings=bindings,
                                    time_limit=time_limit)
        try:
            rows: list[str] = []
            for page in stream.pages():
                rows.extend(page)
            return rows
        finally:
            stream.close()

    def query(self, document: str, query,
              bindings: dict | None = None,
              time_limit: float | None = None) -> str:
        """Run a query and concatenate its serialized rows."""
        return "".join(self.execute(document, query, bindings=bindings,
                                    time_limit=time_limit))

    # -- observability -------------------------------------------------------

    def _count(self, attribute: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, attribute, getattr(self, attribute) + amount)

    def stats(self) -> MediatorStats:
        """Mediator-local counters; see :class:`MediatorStats`."""
        pools = [pool.stats() for pool in self._pools]
        with self._lock:
            return MediatorStats(
                shards=len(self._pools),
                documents=len(self._catalog),
                queries=self._queries,
                fanouts=self._fanouts,
                updates=self._updates,
                loads=self._loads,
                errors=self._errors,
                rows_streamed=self._rows_streamed,
                pool_connects=sum(p["connects"] for p in pools),
                pool_retries=sum(p["retries"] for p in pools),
                pool_discards=sum(p["discards"] for p in pools))

    def cluster_stats(self, recent: int = 0) -> dict:
        """The cluster-wide stats view (one STATS round trip per shard).

        Returns ``{"mediator": ..., "shards": {id: stats-or-error},
        "aggregate": ..., "pools": [...]}`` where ``aggregate`` sums
        every numeric counter across the reachable shards' own
        ``server``/``network`` payloads.  A dead shard contributes an
        ``{"error": ...}`` entry instead of failing the whole view —
        an operator asking for stats mid-outage needs the survivors'
        numbers most of all.
        """
        self._check_open("cluster_stats()")
        per_shard: dict[int, dict] = {}
        aggregate: dict = {}
        for index, pool in enumerate(self._pools):
            try:
                payload = pool.run(
                    lambda client: client.stats(recent=recent))
            except ShardUnavailableError as error:
                per_shard[index] = {"error": str(error)}
                continue
            per_shard[index] = payload
            _merge_numeric(aggregate, payload)
        return {
            "mediator": dataclasses.asdict(self.stats()),
            "shards": per_shard,
            "aggregate": aggregate,
            "pools": [pool.stats() for pool in self._pools],
        }

    def health(self) -> dict[int, dict]:
        """Dial every shard: ``{shard: {"ok": bool, ...}}``.

        A healthy entry carries the shard's HELLO_OK info; an entry
        whose process advertises the *wrong* ``shard_id`` (something
        else answered on that port) is reported unhealthy too.
        """
        self._check_open("health()")
        report: dict[int, dict] = {}
        for index, pool in enumerate(self._pools):
            try:
                info = pool.run(lambda client: dict(client.server_info))
            except ShardUnavailableError as error:
                report[index] = {"ok": False, "error": str(error)}
                continue
            advertised = info.get("shard_id")
            if advertised is not None and advertised != index:
                report[index] = {
                    "ok": False, "error":
                    f"endpoint advertises shard_id {advertised}, "
                    f"expected {index}", **info}
            else:
                report[index] = {"ok": True, **info}
        return report

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close open streams, the pools, and the update executor."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            streams = list(self._streams)
        for stream in streams:
            stream.close(ServerClosedError(
                "ShardedServer closed while the stream was open"))
        self._executor.shutdown(wait=True)
        for pool in self._pools:
            pool.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _merge_numeric(target: dict, source: dict) -> None:
    """Recursively sum ``source``'s numeric leaves into ``target``."""
    for key, value in source.items():
        if isinstance(value, dict):
            _merge_numeric(target.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(
                value, bool):
            target[key] = target.get(key, 0) + value
