"""The session-oriented client API: prepare once, bind, execute many.

This is the classic DBMS client surface layered over the engines::

    with XmlDbms("library.db") as dbms:
        dbms.load("dblp", path="dblp.xml")
        session = dbms.session(profile="m4")
        prepared = session.prepare("dblp", '''
            declare variable $who external;
            for $a in //author return
            if (some $t in $a/text() satisfies $t = $who)
            then <hit>{ $a }</hit> else ()
        ''')
        with prepared.execute(bindings={"who": "Wei Wang"}) as cursor:
            for node in cursor:          # streams, never materialises all
                ...

Three ideas, mirroring what every production database client exposes:

* **Sessions** own per-call defaults (:class:`ExecutionOptions`) and a
  **plan cache** keyed on ``(document, profile, canonical AST,
  statistics version)``.  Repeated queries — even textually different
  strings that desugar to the same core AST — skip the parse, translate
  and plan phases entirely.  Loading or dropping a document bumps its
  statistics version, so stale plans can never be served.

* **Prepared queries** carry *external variables* (``declare variable $x
  external;`` in the prolog, or implicitly any free variable of the
  query), so one compiled plan serves many parameterized executions.
  Bindings are validated eagerly: missing and unexpected names raise
  :class:`~repro.errors.BindingError` before execution starts.

* **Cursors** stream result nodes incrementally out of the evaluation
  pipelines and serialize lazily — the full result list never needs to
  exist in memory at once.  A half-consumed cursor can be closed early;
  closing releases materialised intermediates immediately.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.engine.algebraic import iter_relfors
from repro.engine.engine import CompiledQuery
from repro.engine.profiles import EngineProfile
from repro.errors import BindingError, CursorClosedError, UpdateError
from repro.obs.profile import PlanProfiler
from repro.physical.context import DEFAULT_BATCH_SIZE
from repro.physical.operators import PhysicalOp
from repro.xmlkit.dom import Node
from repro.xmlkit.serializer import serialize
from repro.xq.ast import Program, Query
from repro.xq.parser import parse_program

#: Sentinel distinguishing "not passed" from an explicit ``None`` (which
#: means "no limit") in per-execute overrides.
_UNSET = object()


@dataclass(frozen=True)
class ExecutionOptions:
    """Per-session defaults applied to every execution.

    ``profile`` selects the engine; ``time_limit`` (seconds) and
    ``memory_budget`` (bytes) are the resource caps of the grading
    testbed, ``None`` meaning unlimited.  ``batch_size`` is the block
    size of the vectorized execution protocol: physical operators
    exchange batches of up to this many binding tuples, and cursors
    buffer result nodes one block at a time.  The default (256) amortises
    Python per-row overhead to noise; ``1`` degrades to classic
    item-at-a-time execution.
    """

    profile: EngineProfile | str = "m4"
    time_limit: float | None = None
    memory_budget: int | None = None
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def profile_name(self) -> str:
        return (self.profile if isinstance(self.profile, str)
                else self.profile.name)


@dataclass(frozen=True)
class CacheInfo:
    """Plan-cache statistics, in the spirit of ``functools.lru_cache``."""

    hits: int
    misses: int
    size: int
    capacity: int


@dataclass(frozen=True)
class PlanExplain:
    """One relfor's chosen physical plan, with the optimizer's estimates."""

    vartuple: tuple[str, ...]
    plan: PhysicalOp
    estimated_cost: float
    estimated_rows: float


@dataclass(frozen=True)
class ExplainReport:
    """Structured explain output.

    ``str()`` renders exactly the text the engines have always produced
    (the TPM tree followed by one physical plan per relfor, or the
    one-line notice for non-algebraic profiles), so existing string-based
    tooling keeps working; the fields expose the same information
    programmatically, plus whether this explain was served from the
    session's plan cache.
    """

    document: str
    profile: str
    evaluator: str
    tpm: object | None
    plans: tuple[PlanExplain, ...]
    cache_hit: bool
    #: With ``explain(analyze=True)``: per-operator execution profiles
    #: (``repro.obs.profile.PlanProfiler.profiles()`` dicts — batches,
    #: rows, wall ns, memory high-water per physical operator).
    profiles: tuple = ()
    _text: str = field(repr=False, default="")

    def __str__(self) -> str:
        return self._text

    @property
    def estimated_cost(self) -> float:
        """Total estimated cost over all relfor plans."""
        return sum(plan.estimated_cost for plan in self.plans)


class _PlanCache:
    """A small LRU cache of compiled queries.

    Thread-safe: the ``OrderedDict`` recency moves and trims are not
    atomic operations, so every access runs under the cache's own lock —
    this is the piece of a session that concurrent workers genuinely
    share.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> CompiledQuery | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def put(self, key: tuple, compiled: CompiledQuery) -> None:
        with self._lock:
            # Generations before the previous one are dead (keep-two, as
            # ``_prune_engines``); left in the LRU they evict live plans.
            for stale in [old for old in self._entries if old[:2] == key[:2]
                          and old[3] < key[3] - 1]:
                del self._entries[stale]
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(hits=self.hits, misses=self.misses,
                             size=len(self._entries),
                             capacity=self.capacity)


class Session:
    """A client session over one :class:`~repro.core.dbms.XmlDbms`.

    Sessions are cheap — they share the database, buffer pool and engine
    instances with their ``XmlDbms`` — and own only defaults plus the plan
    cache.  ``prepare``/``execute``/``query`` are thread-safe (the plan
    cache and parse memo are locked), but prefer one session per thread
    of control, as with any DBMS connection: per-thread sessions also
    mean per-thread cache statistics.  The :class:`Cursor` objects an
    execution returns are **not** thread-safe — each cursor belongs to
    the one thread that drives it.
    """

    def __init__(self, dbms, profile: EngineProfile | str = "m4",
                 time_limit: float | None = None,
                 memory_budget: int | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache_capacity: int = 128):
        self.dbms = dbms
        self.options = ExecutionOptions(profile=profile,
                                        time_limit=time_limit,
                                        memory_budget=memory_budget,
                                        batch_size=batch_size)
        self._cache = _PlanCache(plan_cache_capacity)
        self._parse_memo: OrderedDict[str, Program] = OrderedDict()
        self._parse_memo_capacity = plan_cache_capacity
        self._parse_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the session's cached plans (the dbms stays open)."""
        self.clear_cache()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plan cache -----------------------------------------------------------

    def cache_info(self) -> CacheInfo:
        return self._cache.info()

    def clear_cache(self) -> None:
        self._cache.clear()
        with self._parse_lock:
            self._parse_memo.clear()

    def _parse(self, query: str | Query | Program) -> Program:
        if isinstance(query, Program):
            return query
        if isinstance(query, Query):
            return Program(body=query)
        with self._parse_lock:
            program = self._parse_memo.get(query)
            if program is not None:
                self._parse_memo.move_to_end(query)
                return program
        # Parse outside the lock: texts are parsed at most twice under a
        # race, and a slow parse never stalls the other sessions.
        program = parse_program(query)
        with self._parse_lock:
            self._parse_memo[query] = program
            while len(self._parse_memo) > self._parse_memo_capacity:
                self._parse_memo.popitem(last=False)
        return program

    def _lookup(self, document: str, program: Program,
                options: ExecutionOptions
                ) -> tuple[CompiledQuery, bool]:
        """Fetch or build the compiled form; returns (compiled, cache_hit).

        The key includes the document's statistics version, so a
        ``load``/``drop`` of the document invalidates every cached plan
        for it without any explicit bookkeeping here.
        """
        key = (document, options.profile_name, program,
               self.dbms.catalog_version(document))
        compiled = self._cache.get(key)
        if compiled is not None:
            return compiled, True
        engine = self.dbms.engine(document, options.profile)
        compiled = engine.prepare(program)
        self._cache.put(key, compiled)
        return compiled, False

    def _options(self, profile, time_limit, memory_budget
                 ) -> ExecutionOptions:
        options = self.options
        if profile is not None:
            options = replace(options, profile=profile)
        if time_limit is not _UNSET:
            options = replace(options, time_limit=time_limit)
        if memory_budget is not _UNSET:
            options = replace(options, memory_budget=memory_budget)
        return options

    # -- the prepared-query API ----------------------------------------------

    def prepare(self, document: str, query: str | Query | Program,
                profile: EngineProfile | str | None = None
                ) -> "PreparedQuery":
        """Compile ``query`` against ``document`` (or reuse a cached plan)."""
        options = self._options(profile, _UNSET, _UNSET)
        program = self._parse(query)
        if program.is_updating:
            raise UpdateError("updating statements cannot be prepared; "
                              "run them with Session.update or "
                              "Session.execute")
        compiled, cache_hit = self._lookup(document, program, options)
        return PreparedQuery(self, document, compiled, options,
                             from_cache=cache_hit)

    def execute(self, document: str, query: str | Query | Program,
                bindings: dict[str, object] | None = None,
                profile: EngineProfile | str | None = None,
                time_limit: float | None = _UNSET,
                memory_budget: int | None = _UNSET,
                batch_size: int = _UNSET,
                trace=None):
        """Prepare (or reuse) and run; returns the full result list.

        An updating statement (``insert node`` …) is routed to the
        dbms's update path instead and returns its
        :class:`~repro.updates.UpdateResult`; the per-execution resource
        overrides do not apply to updates.

        ``trace`` takes a :class:`repro.obs.trace.TraceContext`: the
        execution is recorded as a span under its current position, with
        per-operator ANALYZE profiles attached as child spans.
        """
        program = self._parse(query)
        if program.is_updating:
            if trace is None:
                return self.dbms.update(document, program,
                                        bindings=bindings)
            with trace.span("update", document=document):
                return self.dbms.update(document, program,
                                        bindings=bindings)
        prepared = self.prepare(document, program, profile=profile)
        if trace is None:
            with prepared.execute(bindings=bindings,
                                  time_limit=time_limit,
                                  memory_budget=memory_budget,
                                  batch_size=batch_size) as cursor:
                return cursor.fetchall()
        profiler = PlanProfiler()
        with trace.span("execute", document=document) as span:
            with prepared.execute(bindings=bindings,
                                  time_limit=time_limit,
                                  memory_budget=memory_budget,
                                  batch_size=batch_size,
                                  profiler=profiler, trace=trace) as cursor:
                result = cursor.fetchall()
            span.attach(profiler.as_span_dicts())
            span.attributes["rows"] = len(result)
            span.attributes["plan_cache_hit"] = prepared.from_cache
        return result

    def update(self, document: str, statement: str | Program,
               bindings: dict[str, object] | None = None):
        """Run an updating statement (see :meth:`XmlDbms.update`)."""
        return self.dbms.update(document, self._parse(statement),
                                bindings=bindings)

    # -- secondary value indexes ----------------------------------------------

    def create_index(self, document: str, label: str) -> None:
        """Create a value index (see :meth:`XmlDbms.create_index`).

        Plans cached by this (and every other) session for the document
        are invalidated through the catalog-version bump, so the next
        execution replans against the new access path.
        """
        self.dbms.create_index(document, label)

    def drop_index(self, document: str, label: str) -> None:
        """Drop a value index (see :meth:`XmlDbms.drop_index`)."""
        self.dbms.drop_index(document, label)

    def indexes(self, document: str) -> list[str]:
        """Labels of ``document`` carrying a value index."""
        return self.dbms.indexes(document)

    def query(self, document: str, query: str | Query | Program,
              bindings: dict[str, object] | None = None,
              profile: EngineProfile | str | None = None,
              time_limit: float | None = _UNSET,
              memory_budget: int | None = _UNSET,
              batch_size: int = _UNSET,
              indent: int | None = None) -> str:
        """Prepare (or reuse) and run; returns serialized XML text."""
        prepared = self.prepare(document, query, profile=profile)
        with prepared.execute(bindings=bindings, time_limit=time_limit,
                              memory_budget=memory_budget,
                              batch_size=batch_size) as cursor:
            return cursor.serialize(indent=indent)

    def explain(self, document: str, query: str | Query | Program,
                profile: EngineProfile | str | None = None,
                analyze: bool = False,
                bindings: dict[str, object] | None = None
                ) -> ExplainReport:
        """The TPM tree and physical plans, as a structured report.

        With ``analyze=True`` the query is additionally *executed* (to
        completion, under ``bindings``) with a profiler attached, and
        the report carries per-operator actuals — batches, rows, wall
        time, memory high-water — in ``report.profiles`` and as an
        ``analyze:`` section of the rendered text.  Non-algebraic
        profiles have no physical operators, so their analyze run
        yields no profiles.
        """
        options = self._options(profile, _UNSET, _UNSET)
        program = self._parse(query)
        compiled, cache_hit = self._lookup(document, program, options)
        engine = compiled.engine
        if engine._algebraic is None:
            text = engine.explain(compiled.program.body)
            report = ExplainReport(document=document,
                                   profile=engine.profile.name,
                                   evaluator=engine.profile.evaluator,
                                   tpm=None, plans=(), cache_hit=cache_hit,
                                   _text=text)
        else:
            plans = []
            for relfor in iter_relfors(compiled.tpm):
                plan = engine._algebraic.plan_for(relfor, compiled.plans)
                plans.append(PlanExplain(vartuple=relfor.vartuple,
                                         plan=plan,
                                         estimated_cost=plan.estimated_cost,
                                         estimated_rows=plan.estimated_rows))
            text = engine._algebraic.explain_compiled(compiled.tpm,
                                                      compiled.plans)
            report = ExplainReport(document=document,
                                   profile=engine.profile.name,
                                   evaluator=engine.profile.evaluator,
                                   tpm=compiled.tpm, plans=tuple(plans),
                                   cache_hit=cache_hit, _text=text)
        if not analyze:
            return report
        prepared = PreparedQuery(self, document, compiled, options,
                                 from_cache=cache_hit)
        profiler = PlanProfiler()
        with prepared.execute(bindings=bindings,
                              profiler=profiler) as cursor:
            cursor.fetchall()
        profiles = tuple(profiler.profiles())
        text = str(report)
        if profiles:
            text += "\n\nanalyze:\n" + profiler.render()
        return replace(report, profiles=profiles, _text=text)


class PreparedQuery:
    """A compiled query, ready to execute many times with fresh bindings."""

    def __init__(self, session: Session, document: str,
                 compiled: CompiledQuery, options: ExecutionOptions,
                 from_cache: bool = False):
        self.session = session
        self.document = document
        self.compiled = compiled
        self.options = options
        #: True if this prepare was served from the session's plan cache.
        self.from_cache = from_cache
        self._version = session.dbms.catalog_version(document)
        self._refresh_lock = threading.Lock()

    def _refresh_if_stale(self) -> None:
        """Recompile against the current document if it changed.

        A held prepared query survives ``load``/``drop`` of its document:
        the catalog version captured at prepare time is checked before
        every execution, and a mismatch transparently re-prepares against
        the fresh document (or raises ``CatalogError`` if it was dropped)
        instead of silently serving results from the replaced one.  The
        check-and-swap runs under a lock so two threads executing one
        prepared query across a ``load`` agree on a single recompile.
        """
        if self.session.dbms.catalog_version(self.document) \
                == self._version:
            return
        with self._refresh_lock:
            current = self.session.dbms.catalog_version(self.document)
            if current == self._version:
                return
            compiled, __ = self.session._lookup(
                self.document, self.compiled.program, self.options)
            self.compiled = compiled
            self._version = current

    @property
    def externals(self) -> tuple[str, ...]:
        """Externals declared in the prolog, in declaration order."""
        return self.compiled.program.externals

    @property
    def required_variables(self) -> frozenset[str]:
        """All variables an execution must bind (declared + implicit)."""
        return self.compiled.required_variables

    def _check_bindings(self, bindings: dict[str, object] | None) -> None:
        provided = frozenset(bindings or ())
        required = self.required_variables
        missing = required - provided
        if missing:
            names = ", ".join(f"${name}" for name in sorted(missing))
            raise BindingError(f"missing bindings for external "
                               f"variable(s) {names}")
        extra = provided - required
        if extra:
            names = ", ".join(f"${name}" for name in sorted(extra))
            raise BindingError(f"unexpected binding(s) {names}: not "
                               f"declared external and not free in the "
                               f"query")

    def execute(self, bindings: dict[str, object] | None = None,
                time_limit: float | None = _UNSET,
                memory_budget: int | None = _UNSET,
                batch_size: int = _UNSET,
                analyze: bool = False,
                profiler=None, trace=None) -> "Cursor":
        """Run under ``bindings``; returns a streaming :class:`Cursor`.

        ``bindings`` maps external-variable names (without the ``$``) to
        strings or DOM text nodes.  The time limit starts counting here,
        not at the first fetch.  ``batch_size`` overrides the session's
        block size for this execution (the unit both the physical
        operators and the cursor's buffer work in).

        ``analyze=True`` attaches a fresh
        :class:`repro.obs.profile.PlanProfiler` so per-operator actuals
        are available from :meth:`Cursor.profile` once the cursor is
        drained (an existing ``profiler`` may be passed instead, e.g.
        the one a traced server task owns); without either, execution
        takes the zero-instrumentation fast path.

        Every execution runs a private instance of the compiled plans, so
        two open cursors from the same prepared query never share
        materialised state — interleaving them is safe.  Sessions, like
        DBMS connections, remain single-threaded.
        """
        self._refresh_if_stale()
        self._check_bindings(bindings)
        if analyze and profiler is None:
            profiler = PlanProfiler()
        time_limit = (self.options.time_limit if time_limit is _UNSET
                      else time_limit)
        memory_budget = (self.options.memory_budget
                         if memory_budget is _UNSET else memory_budget)
        if batch_size is _UNSET:
            batch_size = self.options.batch_size
        elif batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}")
        deadline = (time.monotonic() + time_limit
                    if time_limit is not None else None)
        batches = self.compiled.engine.stream_compiled_batches(
            self.compiled, bindings=bindings, deadline=deadline,
            memory_budget=memory_budget, batch_size=batch_size,
            profiler=profiler, trace=trace)
        return Cursor(batches, profiler=profiler)

    def query(self, bindings: dict[str, object] | None = None,
              indent: int | None = None, **overrides) -> str:
        """Execute and serialize in one call."""
        with self.execute(bindings=bindings, **overrides) as cursor:
            return cursor.serialize(indent=indent)


class Cursor:
    """A streaming result: iterate, fetch in batches, serialize lazily.

    The cursor rides the vectorized pipeline: result nodes arrive in
    blocks of up to the execution's ``batch_size``, and ``fetch(n)``,
    iteration and ``serialize`` are all served from the current buffered
    block — the operator tree is only re-entered when the buffer runs
    dry, once per block rather than once per node.  Nothing beyond the
    current block (plus whatever the chosen physical plan materialises
    internally) is held in memory.  Closing the cursor — explicitly, via
    the context manager, or by exhausting it — shuts the pipeline down
    and releases materialised intermediates.
    """

    def __init__(self, batches: Iterator[list[Node]], profiler=None):
        self._batches = batches
        self._buffer: deque[Node] = deque()
        self._closed = False
        self._profiler = profiler

    # -- buffering -----------------------------------------------------------

    def _refill(self) -> bool:
        """Pull the next block off the pipeline into the buffer."""
        try:
            block = next(self._batches)
        except StopIteration:
            return False
        self._buffer.extend(block)
        return True

    def _remaining(self) -> Iterator[Node]:
        """Drain buffered nodes, refilling block by block."""
        buffer = self._buffer
        while True:
            while buffer:
                yield buffer.popleft()
            if not self._refill():
                return

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> Node:
        if self._closed:
            raise CursorClosedError("cursor is closed")
        if not self._buffer and not self._refill():
            raise StopIteration
        return self._buffer.popleft()

    def fetch(self, count: int) -> list[Node]:
        """Up to ``count`` further result nodes (fewer at the end).

        Served from the currently buffered block; the pipeline is pulled
        (one block at a time) only when the buffer holds fewer than
        ``count`` nodes.
        """
        if self._closed:
            raise CursorClosedError("cursor is closed")
        buffer = self._buffer
        while len(buffer) < count and self._refill():
            pass
        if count >= len(buffer):
            out = list(buffer)
            buffer.clear()
            return out
        return [buffer.popleft() for __ in range(count)]

    def fetchall(self) -> list[Node]:
        """Every remaining result node."""
        if self._closed:
            raise CursorClosedError("cursor is closed")
        out = list(self._buffer)
        self._buffer.clear()
        for block in self._batches:
            out.extend(block)
        return out

    def serialize(self, indent: int | None = None) -> str:
        """Serialize the remaining results to XML text, block by block."""
        if self._closed:
            raise CursorClosedError("cursor is closed")
        return "".join(serialize(node, indent=indent)
                       for node in self._remaining())

    # -- EXPLAIN ANALYZE -------------------------------------------------------

    def profile(self) -> list[dict] | None:
        """Per-operator ANALYZE profiles, or None when not profiled.

        Only meaningful once the cursor has been drained (profiles of a
        half-consumed cursor cover the work done so far).  Each entry is
        an ``repro.obs.profile.OperatorProfile`` dict: ``op``,
        ``detail``, ``depth``, ``batches``, ``rows``, ``wall_ns``,
        ``memory_peak`` (plus ``plan`` naming the relfor vartuple).
        Available after :meth:`close` too — closing tears down the
        pipeline, not the collected profiles.
        """
        if self._profiler is None:
            return None
        return self._profiler.profiles()

    def profile_text(self) -> str | None:
        """The profiles as indented ANALYZE text (None when unprofiled)."""
        if self._profiler is None:
            return None
        return self._profiler.render()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the pipeline down; further fetches raise.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        closer = getattr(self._batches, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
