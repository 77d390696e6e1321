"""Concurrent query serving: a bounded worker pool over one ``XmlDbms``.

The paper's setting is many independent engines answering one workload;
the serving layer turns that into a single process answering many
clients::

    with XmlDbms("library.db") as dbms:
        dbms.load("dblp", path="dblp.xml")
        with QueryServer(dbms, workers=8, max_pending=64,
                         time_limit=2.0) as server:
            future = server.submit("dblp", "//title")
            nodes = future.result()

Three serving concerns, each deliberately explicit:

* **Worker pool** — ``workers`` threads, each owning its *own*
  :class:`~repro.core.session.Session` (so plan caches are per-worker
  and cursors never cross threads).  In-flight concurrency is therefore
  bounded by the worker count.

* **Admission control** — the submission queue holds at most
  ``max_pending`` waiting queries.  A submission that would exceed the
  queue depth fails *immediately* with
  :class:`~repro.errors.AdmissionError` rather than blocking the client:
  back-pressure is visible, not silent.

* **Per-query deadlines** — the server's
  :class:`~repro.core.session.ExecutionOptions` defaults (profile, time
  limit, memory budget, batch size) apply to every submission, each
  overridable per call.  The time limit starts at *submission*: time
  spent waiting in the queue counts against it, so an overloaded server
  fails queries with the familiar
  :class:`~repro.errors.ResourceLimitExceeded` instead of letting
  latency grow without bound.

``submit`` returns a :class:`concurrent.futures.Future`; results are the
familiar node lists (or serialized text with ``serialize=True``).  The
futures support the full protocol — ``result(timeout)``, callbacks,
``cancel()`` of still-queued work.  ``submit_stream`` returns a
:class:`~repro.core.stream.PageStream` over the same execution: one
read path pages the cursor, and ``submit`` merely collects the pages.

:class:`QueryService` declares what a front end
(:class:`~repro.net.server.NetworkServer`) needs from the server it
fronts; :class:`QueryServer` and the shard mediator both implement it.

Updating statements may be submitted like any query; they resolve to an
:class:`~repro.updates.UpdateResult`.  Reads and updates of one document
admit **concurrently**: every read runs under a snapshot ticket
(:meth:`~repro.core.dbms.XmlDbms.read_ticket`) pinned at submission of
the work to a worker, so it observes exactly the commits published
before its pin — a concurrent update neither blocks it nor bleeds into
it, and the update in turn never waits for readers.  Commit fsyncs are
batched by the storage layer's group committer; the
:class:`ServerStats` surface exposes both sides (snapshots pinned,
versions retained, fsyncs saved).
"""

from __future__ import annotations

import contextlib
import dataclasses
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Protocol

from repro.core.session import ExecutionOptions, Session
from repro.core.stream import PageStream, StreamAborted
from repro.engine.profiles import EngineProfile
from repro.errors import (
    AdmissionError,
    ProtocolError,
    ResourceLimitExceeded,
    ServerClosedError,
    UpdateError,
)
from repro.obs.metrics import (
    LatencyHistogram,
    LatencySnapshot,
    MetricsRegistry,
)
from repro.obs.profile import PlanProfiler
from repro.physical.context import DEFAULT_BATCH_SIZE
from repro.xmlkit.serializer import serialize as _serialize_node

#: Sentinel distinguishing "not passed" from an explicit ``None`` in
#: per-submission overrides (mirrors the session layer's convention).
_UNSET = object()

#: Queue sentinel telling a worker to exit.
_SHUTDOWN = object()

#: Rows per page a streaming submission hands to its consumer.
DEFAULT_PAGE_SIZE = 64

#: Pages a stream buffers ahead of its consumer before the producing
#: worker blocks (the server-side backpressure bound).
DEFAULT_MAX_BUFFERED_PAGES = 4


@dataclass(frozen=True)
class PageEnvelope:
    """One result page plus the metadata that must survive the wire.

    The streaming path hands consumers more than raw rows: a merge
    consumer (the shard mediator) needs to know *which document* a page
    belongs to and *where in the result* it starts, so it can key every
    row for an order-preserving k-way merge without keeping per-stream
    counters of its own.  ``base`` is the index of the page's first row
    within the full result (row ``i`` of the page is result row
    ``base + i``); the final page has ``eof=True``, no rows, and carries
    the stream totals.

    The payload mapping (:meth:`as_payload` / :meth:`from_payload`) is
    the normative wire shape of a PAGE frame's envelope fields — see
    ``docs/wire-protocol.md``.
    """

    document: str
    base: int
    rows: list
    eof: bool
    total_rows: int | None = None
    plan_cache_hit: bool | None = None
    #: On a traced query's final page only: the producing server's
    #: serialized span tree (see ``repro.obs.trace``), piggybacked so
    #: the caller — ultimately the shard mediator — can stitch it into
    #: its own trace.
    spans: list | None = None

    def as_payload(self) -> dict:
        """The JSON-serializable PAGE-frame fields for this page."""
        payload = {"doc": self.document, "base": self.base,
                   "rows": self.rows, "eof": self.eof}
        if self.eof:
            payload["total_rows"] = self.total_rows
            payload["plan_cache_hit"] = self.plan_cache_hit
            if self.spans is not None:
                payload["spans"] = self.spans
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "PageEnvelope":
        """Rebuild an envelope from a PAGE frame's payload.

        A payload without well-typed ``doc``/``base``/``rows``/``eof``
        is a peer breaking the protocol, not a page.
        """
        envelope = cls(document=payload.get("doc"),
                       base=payload.get("base"),
                       rows=payload.get("rows"),
                       eof=payload.get("eof"),
                       total_rows=payload.get("total_rows"),
                       plan_cache_hit=payload.get("plan_cache_hit"),
                       spans=payload.get("spans"))
        if not (isinstance(envelope.document, str)
                and isinstance(envelope.base, int)
                and isinstance(envelope.rows, list)
                and isinstance(envelope.eof, bool)):
            raise ProtocolError(f"malformed PAGE frame: {payload!r:.200}")
        return envelope


@dataclass(frozen=True)
class ServerStats:
    """A consistent snapshot of the server's counters.

    ``pending`` is the current queue depth, ``peak_pending`` its high
    watermark; at rest ``submitted = completed + failed + cancelled +
    pending`` (while queries are in flight, ``submitted`` also covers
    the running ones).  Rejected submissions never enter the queue and
    are counted separately.  ``queue_wait`` and ``execution`` summarize
    per-query latency histograms: time spent queued before a worker
    picked the task up, and time the worker spent running it (for a
    stream, until the last page was handed over — consumer pacing
    included, which is exactly the backpressure a caller should see).

    The MVCC/group-commit fields mirror the storage layer's counters at
    snapshot time: ``snapshots_pinned`` is the number of
    currently pinned read snapshots, ``snapshots_opened`` the lifetime
    count, ``snapshot_reads`` the page reads served from the version
    store, ``versions_retained`` the superseded page images currently
    kept alive for pinned snapshots, ``group_commits``/``group_fsyncs``
    the commits acknowledged vs. the fsyncs actually issued,
    ``fsyncs_saved`` their difference, ``decodes`` the pool's decode count.
    """

    workers: int
    max_pending: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    rejected: int
    pending: int
    peak_pending: int
    queue_wait: LatencySnapshot
    execution: LatencySnapshot
    snapshots_pinned: int = 0
    snapshots_opened: int = 0
    snapshot_reads: int = 0
    versions_retained: int = 0
    group_commits: int = 0
    group_fsyncs: int = 0
    fsyncs_saved: int = 0
    decodes: int = 0


@dataclass
class _Task:
    future: Future
    document: str
    query: object
    bindings: dict | None
    profile: EngineProfile | str
    deadline: float | None
    time_limit: float | None
    memory_budget: int | None
    batch_size: int
    serialize: bool
    indent: int | None
    #: The query's ``repro.obs.trace.TraceContext``, when traced: the
    #: worker records queue wait and an execute span (with per-operator
    #: ANALYZE profiles attached) into it.
    trace: object | None
    page_size: int = DEFAULT_PAGE_SIZE
    #: Set on streaming submissions: where the pages go.  ``None``
    #: means the worker collects them into the future's result.
    sink: PageStream | None = None
    enqueued_at: float = 0.0


class QueryService(Protocol):
    """What a :class:`~repro.net.server.NetworkServer` needs to serve.

    ``submit_stream`` must not block (admission is synchronous, the
    work is not) and ``submit`` is how updating statements run;
    ``stats()`` returns a dataclass and ``metrics_registry`` is the
    registry the front end joins.
    """

    metrics_registry: MetricsRegistry

    def submit_stream(self, document: str, query, bindings=None, *,
                      serialize: bool, page_size: int,
                      max_buffered_pages: int, time_limit=...,
                      trace=None) -> PageStream: ...

    def submit(self, document: str, query, bindings=None, *,
               trace=None) -> Future: ...

    def load(self, document: str, xml: str | None = None,
             path: str | None = None): ...

    def stats(self): ...

    def close(self) -> None: ...


class QueryServer(QueryService):
    """Serve queries against one :class:`~repro.core.dbms.XmlDbms`.

    Thread-safe throughout: any number of client threads may ``submit``
    concurrently, and the wrapped dbms may still be used directly (e.g.
    an operator thread calling ``load`` while the server is running —
    in-flight queries finish on the old snapshot, later ones see the new
    document).
    """

    def __init__(self, dbms, workers: int = 4, max_pending: int = 64,
                 profile: EngineProfile | str = "m4",
                 time_limit: float | None = None,
                 memory_budget: int | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache_capacity: int = 128):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        self.dbms = dbms
        self.options = ExecutionOptions(profile=profile,
                                        time_limit=time_limit,
                                        memory_budget=memory_budget,
                                        batch_size=batch_size)
        self._plan_cache_capacity = plan_cache_capacity
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        # guarded by: self._lifecycle_lock
        self._closed = False
        #: Orders submissions against close(): a task admitted under this
        #: lock is guaranteed to precede the shutdown sentinels in the
        #: queue, so its future always resolves.
        self._lifecycle_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # guarded by: self._stats_lock
        self._submitted = 0
        # guarded by: self._stats_lock
        self._completed = 0
        # guarded by: self._stats_lock
        self._failed = 0
        # guarded by: self._stats_lock
        self._cancelled = 0
        # guarded by: self._stats_lock
        self._rejected = 0
        # guarded by: self._stats_lock
        self._peak_pending = 0
        # guarded by: self._stats_lock
        self._queue_wait_hist = LatencyHistogram()
        # guarded by: self._stats_lock
        self._execution_hist = LatencyHistogram()
        #: Streams whose producer is (or will be) running; close()
        #: aborts them so shutdown never waits on an absent consumer.
        # guarded by: self._stats_lock
        self._streams: set[PageStream] = set()
        #: The unified metrics surface: the worker pool and the storage
        #: layer register here; layers wrapping this server (network
        #: front end) join the same registry, so one METRICS page covers
        #: the whole process.  See ``repro.obs.metrics``.
        self.metrics_registry = MetricsRegistry()
        self.metrics_registry.register(
            "server", lambda: dataclasses.asdict(self.stats()))
        self.metrics_registry.register("storage", self._storage_metrics)
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"query-server-worker-{index}",
                             daemon=True)
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------------

    def submit(self, document: str, query, bindings: dict | None = None,
               profile: EngineProfile | str | None = None,
               time_limit: float | None = _UNSET,
               memory_budget: int | None = _UNSET,
               batch_size: int = _UNSET,
               serialize: bool = False,
               indent: int | None = None,
               trace=None) -> Future:
        """Enqueue a query; returns a Future of its full result.

        The future resolves to the result node list, or to serialized
        XML text with ``serialize=True``.  Raises
        :class:`~repro.errors.ServerClosedError` after :meth:`close` and
        :class:`~repro.errors.AdmissionError` when the queue is at
        ``max_pending`` — admission control never blocks the caller.
        Execution errors (including a missed deadline) surface through
        the future.
        """
        task = self._task(document, query, bindings, profile, time_limit,
                          memory_budget, batch_size, serialize, indent,
                          trace)
        self._admit(task)
        return task.future

    def submit_stream(self, document: str, query,
                      bindings: dict | None = None,
                      profile: EngineProfile | str | None = None,
                      time_limit: float | None = _UNSET,
                      memory_budget: int | None = _UNSET,
                      batch_size: int = _UNSET,
                      serialize: bool = False,
                      indent: int | None = None,
                      page_size: int = DEFAULT_PAGE_SIZE,
                      max_buffered_pages: int = DEFAULT_MAX_BUFFERED_PAGES,
                      trace=None) -> PageStream:
        """Enqueue a query whose results stream back page by page.

        Admission control, deadlines and worker scheduling are exactly
        :meth:`submit`'s; the difference is where the pages go — into a
        :class:`~repro.core.stream.PageStream` the worker fills on
        demand under a bounded buffer (``max_buffered_pages``), holding
        a pinned snapshot ticket for the stream's lifetime so every page
        comes from one consistent snapshot (concurrent updates proceed;
        their versions are retained until the stream finishes).  The
        submission deadline covers the whole stream, including time
        spent blocked on a slow consumer: a stalled client turns into a
        :class:`~repro.errors.ResourceLimitExceeded` on its own stream,
        never an idle worker held forever.  The stream's ``future``
        resolves to the total row count when production finishes
        (``None`` if the consumer closed it first).
        """
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        if max_buffered_pages < 1:
            raise ValueError(f"max_buffered_pages must be >= 1, got "
                             f"{max_buffered_pages}")
        task = self._task(document, query, bindings, profile, time_limit,
                          memory_budget, batch_size, serialize, indent,
                          trace)
        task.page_size = page_size
        task.sink = PageStream(document, page_size, max_buffered_pages,
                               future=task.future)
        self._admit(task)
        return task.sink

    def _task(self, document, query, bindings, profile, time_limit,
              memory_budget, batch_size, serialize, indent,
              trace) -> _Task:
        """Resolve per-call overrides against the server defaults."""
        if time_limit is _UNSET:
            time_limit = self.options.time_limit
        return _Task(
            future=Future(), document=document, query=query,
            bindings=bindings,
            profile=self.options.profile if profile is None else profile,
            deadline=(time.monotonic() + time_limit
                      if time_limit is not None else None),
            time_limit=time_limit,
            memory_budget=(self.options.memory_budget
                           if memory_budget is _UNSET else memory_budget),
            batch_size=(self.options.batch_size if batch_size is _UNSET
                        else batch_size),
            serialize=serialize, indent=indent, trace=trace)

    def _admit(self, task: _Task) -> None:
        """Enqueue under admission control (both submit paths)."""
        task.enqueued_at = time.monotonic()
        with self._lifecycle_lock:
            # close() flips the flag under this lock too, so a task
            # admitted here is enqueued before the shutdown sentinels
            # and will be served (or cancelled).
            if self._closed:
                raise ServerClosedError("submit() on a closed QueryServer")
            # Counted (and a stream registered) *before* the task
            # becomes visible to workers, so the stats invariant
            # (submitted ≥ completed + failed + cancelled) holds and a
            # worker's discard never races ahead of the add.
            with self._stats_lock:
                self._submitted += 1
                if task.sink is not None:
                    self._streams.add(task.sink)
            try:
                self._queue.put_nowait(task)
            except queue.Full:
                with self._stats_lock:
                    self._submitted -= 1
                    self._rejected += 1
                    self._streams.discard(task.sink)
                raise AdmissionError(
                    f"query queue is full ({self._queue.maxsize} "
                    f"pending); resubmit after the backlog drains"
                ) from None
        with self._stats_lock:
            self._peak_pending = max(self._peak_pending,
                                     self._queue.qsize())

    def execute(self, document: str, query,
                bindings: dict | None = None, **overrides):
        """Submit and wait: the synchronous convenience wrapper."""
        return self.submit(document, query, bindings=bindings,
                           **overrides).result()

    def query(self, document: str, query,
              bindings: dict | None = None, **overrides) -> str:
        """Submit, wait and serialize in one call."""
        return self.submit(document, query, bindings=bindings,
                           serialize=True, **overrides).result()

    def load(self, document: str, xml: str | None = None,
             path: str | None = None):
        """Load (or replace) a document in the served database.

        Runs on the caller's thread, not a worker — a load is a bulk
        catalog operation, not a query, and must not occupy (or queue
        behind) the bounded worker pool.  Safe against in-flight
        queries: ``XmlDbms.load`` guarantees running executions finish
        on the old snapshot.  This is what the wire protocol's LOAD
        message calls, letting a shard mediator place documents on
        member processes at runtime.
        """
        # reprolint: disable=RL002 racy fast-fail; the underlying DBMS
        # rejects loads after close with its own synchronization
        if self._closed:
            raise ServerClosedError("load() on a closed QueryServer")
        return self.dbms.load(document, xml=xml, path=path)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        session = Session(self.dbms, profile=self.options.profile,
                          time_limit=self.options.time_limit,
                          memory_budget=self.options.memory_budget,
                          batch_size=self.options.batch_size,
                          plan_cache_capacity=self._plan_cache_capacity)
        while True:
            task = self._queue.get()
            if task is _SHUTDOWN:
                return
            started = time.monotonic()
            with self._stats_lock:
                self._queue_wait_hist.record(started - task.enqueued_at)
            if task.trace is not None:
                task.trace.event(
                    "queue",
                    duration_ms=(started - task.enqueued_at) * 1e3)
            if not task.future.set_running_or_notify_cancel():
                with self._stats_lock:
                    self._cancelled += 1
                    self._streams.discard(task.sink)
                continue
            result = error = None
            aborted = False
            try:
                result = self._execute(session, task)
            except StreamAborted:
                aborted = True
            except BaseException as exc:  # the future carries it
                error = exc
            # Counters move before the future resolves: a caller that
            # returns from future.result() and immediately reads
            # stats() must see this query accounted for.
            with self._stats_lock:
                if aborted:
                    self._cancelled += 1
                elif error is not None:
                    self._failed += 1
                else:
                    self._completed += 1
                self._execution_hist.record(time.monotonic() - started)
                self._streams.discard(task.sink)
            # A stream's outcome goes both ways: next_page() meets it
            # behind the buffered pages, the future is for anyone
            # awaiting the producer.
            if task.sink is not None:
                task.sink.lanes[0].finish(error)
            if error is not None:
                task.future.set_exception(error)
            else:
                task.future.set_result(result)

    def _execute(self, session: Session, task: _Task):
        """Run one task: an update, or *the* read path.

        A read prepares, executes and pages under one snapshot ticket —
        every page observes exactly the commits published before the
        pin, however long the consumer takes, and concurrent updates
        proceed without waiting (their versions are retained until the
        ticket releases).  Pages go into the task's stream; without one
        they are collected into the returned result.
        """
        self._check_deadline(task)    # fail fast on queue-expired work
        program = session._parse(task.query)
        sink, trace = task.sink, task.trace
        if program.is_updating:
            # Updates run concurrently with snapshot reads — they
            # serialize only against each other (and at the
            # version-install step inside commit publish), never against
            # readers.  The transaction is not interruptible, so the
            # deadline is only enforced up front.
            if sink is not None:
                raise UpdateError("updating statements do not stream; "
                                  "submit them with submit()")
            if task.serialize:
                raise UpdateError("updating statements have no "
                                  "serialized result; submit with "
                                  "serialize=False")
            with (trace.span("update", document=task.document)
                  if trace is not None else contextlib.nullcontext()):
                return self.dbms.update(task.document, program,
                                        bindings=task.bindings)
        profiler = PlanProfiler() if trace is not None else None
        collected: list = []
        rows = 0
        with self.dbms.read_ticket(task.document) as ticket:
            prepared = session.prepare(task.document, program,
                                       profile=task.profile)
            if sink is not None:
                sink.snapshot_lsn = ticket.snapshot_lsn
                sink.plan_cache_hit = prepared.from_cache
            # The deadline is re-taken *after* prepare: compilation
            # counts against the submission deadline exactly like queue
            # wait does.
            remaining = self._check_deadline(task)
            with (trace.span("execute", document=task.document)
                  if trace is not None
                  else contextlib.nullcontext()) as span:
                with prepared.execute(bindings=task.bindings,
                                      time_limit=remaining,
                                      memory_budget=task.memory_budget,
                                      batch_size=task.batch_size,
                                      profiler=profiler,
                                      trace=trace) as cursor:
                    while True:
                        nodes = cursor.fetch(task.page_size)
                        page = ([_serialize_node(node, indent=task.indent)
                                 for node in nodes]
                                if task.serialize else nodes)
                        if sink is None:
                            collected.extend(page)
                        elif nodes:
                            # Blocked on a full buffer, the deadline
                            # keeps ticking: it is the put's timeout.
                            while not sink.lanes[0].put(
                                    (rows, page),
                                    self._check_deadline(task)):
                                pass
                            sink.rows_produced += len(nodes)
                        rows += len(nodes)
                        if len(nodes) < task.page_size:
                            break
                if span is not None:
                    span.attach(profiler.as_span_dicts())
                    span.attributes.update(
                        rows=rows, plan_cache_hit=prepared.from_cache,
                        snapshot_lsn=ticket.snapshot_lsn)
        if sink is not None:
            return rows
        return "".join(collected) if task.serialize else collected

    @staticmethod
    def _check_deadline(task: _Task) -> float | None:
        """Seconds left until the task's submission deadline (``None``
        when unlimited); raises once it has passed."""
        if task.deadline is None:
            return None
        remaining = task.deadline - time.monotonic()
        if remaining <= 0:
            raise ResourceLimitExceeded("time", task.time_limit,
                                        task.time_limit - remaining)
        return remaining

    # -- introspection -------------------------------------------------------

    def _storage_metrics(self) -> dict:
        """Buffer-pool counters for the metrics registry."""
        stats = self.dbms.buffer_stats
        return {"buffer_hits": stats.hits,
                "buffer_misses": stats.misses,
                "buffer_evictions": stats.evictions,
                "buffer_dirty_writebacks": stats.dirty_writebacks,
                "buffer_decodes_total": stats.decodes,
                "buffer_hit_rate": round(stats.hit_rate, 6)}

    def stats(self) -> ServerStats:
        # Storage counters are sampled outside the stats lock: they take
        # the buffer pool's mutex, and no lock order between the two is
        # established anywhere else.
        mvcc = self.dbms.mvcc_stats()
        with self._stats_lock:
            return ServerStats(workers=len(self._workers),
                               max_pending=self._queue.maxsize,
                               submitted=self._submitted,
                               completed=self._completed,
                               failed=self._failed,
                               cancelled=self._cancelled,
                               rejected=self._rejected,
                               pending=self._queue.qsize(),
                               peak_pending=self._peak_pending,
                               queue_wait=self._queue_wait_hist.snapshot(),
                               execution=self._execution_hist.snapshot(),
                               snapshots_pinned=mvcc["snapshots_pinned"],
                               snapshots_opened=mvcc["snapshots_opened"],
                               snapshot_reads=mvcc["versioned_reads"],
                               versions_retained=mvcc["versions_retained"],
                               group_commits=mvcc["group_commits"],
                               group_fsyncs=mvcc["group_fsyncs"],
                               fsyncs_saved=mvcc["fsyncs_saved"],
                               decodes=self.dbms.buffer_stats.decodes)

    # -- lifecycle -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and shut the pool down.

        Idempotent and safe to call from any number of threads at once:
        exactly one caller performs the shutdown, every caller returns
        only after the workers have exited, and racing ``submit``s
        either land before the shutdown sentinels (their futures
        resolve) or raise :class:`~repro.errors.ServerClosedError` —
        never a deadlock either way.

        ``wait=True`` (default) drains the queue: everything already
        admitted runs to completion before the workers exit.
        ``wait=False`` cancels still-queued tasks (their futures report
        ``cancelled()``); the queries currently executing still finish,
        and their futures resolve normally.  Open streams are aborted in
        both modes — a stream's completion depends on its consumer, and
        shutdown must not wait on one that stopped fetching; their
        consumers see :class:`~repro.errors.ServerClosedError`.
        """
        with self._lifecycle_lock:
            first = not self._closed
            self._closed = True
        if first:
            # Streams first: a producer blocked on a full page buffer
            # must wake and release its worker before the join below.
            with self._stats_lock:
                streams = list(self._streams)
            for stream in streams:
                stream.close(ServerClosedError(
                    "QueryServer closed while the stream was open"))
            if not wait:
                while True:
                    try:
                        task = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if task is not _SHUTDOWN and task.future.cancel():
                        with self._stats_lock:
                            self._cancelled += 1
                            self._streams.discard(task.sink)
            for __ in self._workers:
                self._queue.put(_SHUTDOWN)
        # Every caller (first or not) waits for the pool to exit, so a
        # second close() returning is as strong a guarantee as the first.
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
