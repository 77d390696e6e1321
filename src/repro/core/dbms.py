"""The :class:`XmlDbms` facade — the system the course set out to build.

One instance owns one database file and exposes the full lifecycle:

* :meth:`load` — shred an XML document into XASR relations with indexes
  and statistics (milestone 2); reloading an existing name replaces the
  document and invalidates every cached engine and plan for it;
* :meth:`session` — the primary client API: prepared queries, external
  variables, streaming cursors, and a per-session plan cache
  (see :mod:`repro.core.session`);
* :meth:`query` / :meth:`execute` — one-shot evaluation under any engine
  profile (milestones 1–4), kept as thin wrappers over a default session;
* :meth:`explain` — the TPM translation and the chosen physical plans;
* :meth:`statistics` / :meth:`documents` — introspection.

The paper scoped updates out ("keep updates as simple as possible and
completely disregard concurrency control and recovery"); this system
scopes them back in: :meth:`update` runs an XQuery Update subset
(``insert node``, ``delete node``, ``replace value of node``, ``rename
node``) atomically and durably — every update commits through the
write-ahead log (:mod:`repro.storage.wal`), so a crash mid-commit never
loses an acknowledged update or corrupts a page.  Concurrency is
likewise scoped back in by the serving layer: one ``XmlDbms`` may be
shared by any number of threads.  The engine cache, catalog versions and
default session are guarded by a dbms-level lock, the storage layer
never mutates a page buffer a reader can reach (see
:mod:`repro.storage.buffer`), and
:meth:`load` replacing a document is well-defined against concurrent
readers — executions already running (and open cursors) finish on the
*old* snapshot, whose pages are never reclaimed, while sessions touching
the document afterwards see the new version (a dropped document raises
:class:`~repro.errors.CatalogError`).  For a bounded worker pool with
admission control on top, see :class:`repro.core.server.QueryServer`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from collections.abc import Iterator

from repro.core.session import ExecutionOptions, Session
from repro.engine.engine import XQEngine
from repro.physical.context import DEFAULT_BATCH_SIZE
from repro.engine.profiles import ENGINE_PROFILES, EngineProfile
from repro.errors import CatalogError, UpdateError
from repro.storage.db import Database
from repro.storage.latch import SharedLatch
from repro.storage.pager import PAGE_SIZE
from repro.updates import UpdateResult, apply_pul, collect_pul
from repro.xasr import schema
from repro.xasr.document import StoredDocument
from repro.xasr.loader import (
    DocumentStatistics,
    build_value_index,
    shred_document,
    store_document,
)
from repro.xmlkit.dom import Node
from repro.xq.ast import Program, Query, UpdateExpr
from repro.xq.parser import parse_program

__all__ = ["XmlDbms", "ExecutionOptions", "Session", "PROFILES",
           "UpdateResult"]


class XmlDbms:
    """A single-file native XML database."""

    def __init__(self, path: str, buffer_capacity: int = 256,
                 page_size: int = PAGE_SIZE):
        self.db = Database(path, buffer_capacity=buffer_capacity,
                           page_size=page_size)
        #: Engine cache keyed ``(document, profile, catalog version)``:
        #: a snapshot reader holding an older catalog version gets (or
        #: rebuilds) the engine of *its* generation, while new readers
        #: get the current one — two generations coexist during an
        #: update's drain window.  Old generations are pruned once the
        #: version moves on (rebuilding one for a long-lived snapshot is
        #: correct: construction reads the catalog through the bound
        #: snapshot).
        self._engines: dict[tuple[str, str, int], XQEngine] = {}
        #: Monotonic per-document catalog versions; bumped by load/drop so
        #: session plan caches invalidate without explicit wiring.
        self._versions: dict[str, int] = {}
        self._default_session: Session | None = None
        #: Guards catalog mutation (load/drop) and the version counters.
        #: Held across a whole load/drop, so readers either see the old
        #: document (their engines keep the old pages alive) or the new
        #: one — never a half-replaced catalog.
        self._lock = threading.RLock()
        #: Short-held lock for the engine cache and default session —
        #: deliberately separate from ``_lock`` so query setup on *any*
        #: document never stalls behind an in-progress multi-second
        #: ``load()``.  Lock order: ``_lock`` → ``_engine_lock`` (from
        #: ``_invalidate``); nothing acquires them the other way.
        self._engine_lock = threading.Lock()
        #: Per-document shared/exclusive latches.  Since MVCC snapshot
        #: reads landed, ``update()`` no longer takes the exclusive side
        #: — served readers run against a pinned snapshot and never
        #: block on (or are blocked by) a concurrent update.  The
        #: exclusive side remains the quiesce mechanism for operations
        #: that rewrite storage *outside* the version store:
        #: ``create_index``/``drop_index`` (bulk builds bypass the WAL)
        #: still drain readers through it, and every served read holds
        #: the shared side for exactly that reason.
        self._doc_latches: dict[str, SharedLatch] = {}
        #: The calling thread's active :class:`ReadTicket`, if any —
        #: bound by :meth:`read_ticket`, consulted by
        #: :meth:`catalog_version` and :meth:`engine` so plan-cache
        #: lookups and engine construction agree with the pinned
        #: snapshot instead of racing a concurrent commit's bump.
        self._tickets = threading.local()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "XmlDbms":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- documents -------------------------------------------------------------

    def load(self, name: str, xml: str | None = None,
             path: str | None = None,
             strip_whitespace: bool = True,
             bulk: bool = True) -> DocumentStatistics:
        """Load a document from text or a file; returns its statistics.

        Loading over an already-loaded ``name`` *replaces* the document:
        the old relations, indexes and statistics are dropped, and every
        cached engine (including any milestone-1 DOM) and cached plan for
        the name is invalidated.  The input is shredded — and thereby
        fully validated — *before* the catalog is touched, so malformed
        input leaves an existing document intact and a fresh name
        unregistered.
        """
        # Tokenise and shred once, outside the dbms lock: it is the bulk
        # of the work and needs nothing the lock protects.
        shredded = shred_document(xml, path,
                                  strip_whitespace=strip_whitespace)
        with self._lock:
            # Bulk loads bypass the WAL; dropping the log first means no
            # stale record can ever replay over the load's raw writes,
            # and the closing checkpoint makes the load itself durable.
            self.db.checkpoint()
            if self.db.exists(schema.table_name(name)):
                self.drop(name)
            stats = store_document(self.db, name, shredded, bulk=bulk)
            # Bumped right behind the completeness marker, for ``engine``.
            self._invalidate(name)
            self.db.checkpoint()
            return stats

    def documents(self) -> list[str]:
        """Names of loaded documents."""
        prefix = "xasr:"
        suffix = ":primary"
        names = []
        for entry in self.db.list_names():
            if entry.startswith(prefix) and entry.endswith(suffix):
                names.append(entry[len(prefix):-len(suffix)])
        return names

    def drop(self, name: str) -> None:
        """Remove a document (and its value indexes) from the catalog."""
        with self._lock:
            if not self.db.exists(schema.table_name(name)):
                raise CatalogError(f"document {name!r} is not loaded")
            self.db.checkpoint()
            object_names = [schema.table_name(name),
                            schema.index_label_name(name),
                            schema.index_parent_name(name),
                            schema.stats_name(name)]
            catalog = self.db.get_meta(
                schema.value_index_catalog_name(name))
            if catalog is not None:
                object_names.append(schema.value_index_catalog_name(name))
                object_names.extend(
                    schema.value_index_name(name, label)
                    for label in catalog.get("labels", []))
            for object_name in object_names:
                if self.db.exists(object_name):
                    self.db.drop(object_name)
            self.db.checkpoint()
            self._invalidate(name)

    def _invalidate(self, name: str) -> None:
        """Forget cached engines for ``name`` and bump its version."""
        with self._lock:
            with self._engine_lock:
                self._engines = {key: engine
                                 for key, engine in self._engines.items()
                                 if key[0] != name}
            self._versions[name] = self._versions.get(name, 0) + 1

    def catalog_version(self, name: str) -> int:
        """Version counter for a document; changes on every load, drop
        and update.

        Deliberately lock-free: this sits on every execution's hot path
        (the prepared-query staleness check), and a single ``dict.get``
        is atomic under the GIL — readers must not stall behind an
        in-progress multi-second ``load()`` of some other document.

        A thread inside :meth:`read_ticket` gets the version observed
        atomically with its snapshot pin, not the live counter: its plan
        cache hits, prepared-query staleness checks and engine lookups
        all resolve against the generation its snapshot actually sees.
        """
        ticket = getattr(self._tickets, "current", None)
        if ticket is not None and ticket.document == name:
            return ticket.catalog_version
        return self._versions.get(name, 0)

    # -- snapshot read tickets -------------------------------------------------

    @contextmanager
    def read_ticket(self, document: str) -> Iterator["ReadTicket"]:
        """Admit a read against a stable snapshot of ``document``.

        For the ``with`` block, the calling thread holds the document
        latch *shared* (so index builds can still quiesce readers), a
        pinned buffer-pool snapshot (every page read resolves against
        the version store at the pinned commit LSN — concurrent updates
        neither block this reader nor bleed into it), and the catalog
        version observed atomically with the pin.  Tickets do not nest.
        """
        with self.document_latch(document).shared():
            pool = self.db.buffer_pool
            snapshot, version = pool.pin_snapshot(
                observe=lambda: self._versions.get(document, 0))
            try:
                with pool.reading(snapshot):
                    ticket = ReadTicket(document, snapshot, version)
                    previous = getattr(self._tickets, "current", None)
                    if previous is not None:
                        raise UpdateError(
                            "read tickets do not nest: thread already "
                            f"holds one for {previous.document!r}")
                    self._tickets.current = ticket
                    try:
                        yield ticket
                    finally:
                        self._tickets.current = None
            finally:
                pool.release_snapshot(snapshot)

    # -- updates --------------------------------------------------------------

    def document_latch(self, name: str) -> SharedLatch:
        """The document's reader/updater latch (see ``_doc_latches``)."""
        with self._engine_lock:
            return self._doc_latches.setdefault(name, SharedLatch())

    def update(self, document: str, statement: str | Program | UpdateExpr,
               bindings: dict[str, object] | None = None) -> UpdateResult:
        """Run an updating statement against a stored document.

        ``statement`` is XQuery Update text (``insert node``, ``delete
        node``, ``replace value of node``, ``rename node``), a parsed
        updating :class:`~repro.xq.ast.Program`, or a bare
        :class:`~repro.xq.ast.UpdateExpr`.  Target paths evaluate
        against the pre-update snapshot; the resulting pending update
        list is validated and applied atomically inside a WAL
        transaction, with the label/parent indexes and the document
        statistics maintained incrementally.  On success the document's
        catalog version is bumped, so every cached plan and engine for
        it invalidates; the returned
        :class:`~repro.updates.UpdateResult` carries per-kind node
        counts and the new version.

        Updates never block served readers: queries running through a
        :class:`~repro.core.server.QueryServer` read a pinned snapshot
        (see :meth:`read_ticket`), so the old exclusive document latch
        is gone from this path.  Updates still serialize with each other
        (and with load/drop) under the dbms lock, but the commit's
        fsync is awaited *outside* every lock — concurrent updaters
        pipeline into the WAL's group committer and share fsyncs.
        """
        program = self._parse_update(statement)
        self._check_update_bindings(program, bindings)
        with self._lock:
            stored = StoredDocument(self.db, document)
            pul = collect_pul(stored, program.body,
                              bindings=bindings).validated()
            try:
                with self.db.transaction(wait=False) as txn:
                    counts = apply_pul(self.db, stored, pul)
                    self.db.put_meta(
                        schema.stats_name(document),
                        stored.statistics.to_payload())
                    # The version bump runs inside publish's critical
                    # section, atomically with the commit-LSN
                    # assignment: a snapshot pinned at LSN < ours
                    # observes the old version, one at >= ours the new —
                    # never a torn pairing.
                    txn.on_publish(
                        lambda: self._bump_version_unlocked(document))
            except BaseException:
                # The transaction rolled back (its frames took their
                # decoded nodes along); cached engines go too, as their
                # tree instances' meta fields may describe aborted state.
                self._invalidate(document)
                raise
            self._prune_engines(document)
            version = self._versions.get(document, 0)
        # Durability wait happens with no dbms lock held: while this
        # fsync is in flight, other updaters append and park behind it,
        # and the next fsync covers them all (group commit).
        txn.wait_durable()
        self.db.maybe_checkpoint()
        return UpdateResult(stats_version=version,
                            commit_lsn=txn.commit_lsn, **counts)

    def _bump_version_unlocked(self, name: str) -> None:
        """Bump a document's catalog version from inside commit publish.

        Runs under the buffer pool's mutex (publish's critical section)
        — deliberately takes no dbms lock (lock order: dbms locks may be
        held while entering the pool, never the reverse).  Callers hold
        ``_lock``, so concurrent bumps cannot interleave.
        """
        self._versions[name] = self._versions.get(name, 0) + 1

    def _prune_engines(self, name: str, keep: int = 2) -> None:
        """Drop cached engines for generations no snapshot is likely to
        want — everything older than ``keep`` versions.  A long-lived
        snapshot that outlives the prune simply rebuilds its engine on
        demand (under its bound snapshot, so the rebuild is faithful)."""
        floor = self._versions.get(name, 0) - (keep - 1)
        with self._engine_lock:
            self._engines = {key: engine
                             for key, engine in self._engines.items()
                             if key[0] != name or key[2] >= floor}

    @staticmethod
    def _parse_update(statement: str | Program | UpdateExpr) -> Program:
        if isinstance(statement, str):
            program = parse_program(statement)
        elif isinstance(statement, UpdateExpr):
            program = Program(body=statement)
        else:
            program = statement
        if not isinstance(program, Program) or not program.is_updating:
            raise UpdateError("update() requires an updating statement "
                              "(insert/delete/replace/rename); use "
                              "query()/execute() for queries")
        return program

    @staticmethod
    def _check_update_bindings(program: Program,
                               bindings: dict[str, object] | None) -> None:
        provided = frozenset(bindings or ())
        required = program.required_variables()
        missing = required - provided
        if missing:
            names = ", ".join(f"${name}" for name in sorted(missing))
            raise UpdateError(f"missing bindings for external "
                              f"variable(s) {names}")
        extra = provided - required
        if extra:
            names = ", ".join(f"${name}" for name in sorted(extra))
            raise UpdateError(f"unexpected binding(s) {names}: not used "
                              f"by the update statement")

    # -- secondary value indexes ----------------------------------------------

    def create_index(self, document: str, label: str) -> None:
        """Create a secondary value index on ``label`` for ``document``.

        The index is a B+-tree mapping the text content of ``label``
        elements (one entry per child text node, keyed ``(value,
        element in, text in)``) to the element's in-interval; the
        planner uses it to answer equality and range predicates over
        those values with an index scan
        (:class:`~repro.physical.operators.ValueIndexScan`), and the
        update path maintains it incrementally inside the same WAL
        transaction as the document rewrite.

        The build is a bulk-load pass bracketed by checkpoints (like
        :meth:`load`); the index becomes visible atomically when its
        catalog registration is written *after* the build, so a crash
        mid-build leaves the document untouched and the index simply
        absent.  The document latch is held exclusively: served readers
        finish first, and queries prepared before the build pick up the
        index through the catalog-version bump.
        """
        with self.document_latch(document).exclusive():
            with self._lock:
                if not self.db.exists(schema.table_name(document)):
                    raise CatalogError(
                        f"document {document!r} is not loaded")
                catalog_name = schema.value_index_catalog_name(document)
                catalog = self.db.get_meta(catalog_name) or {"labels": []}
                if label in catalog["labels"]:
                    raise CatalogError(
                        f"document {document!r} already has a value "
                        f"index on label {label!r}")
                # Bulk builds bypass the WAL; checkpointing first means
                # no stale record can replay over the raw writes, and
                # the closing checkpoint makes the build durable.
                self.db.checkpoint()
                build_value_index(self.db, document, label)
                self.db.put_meta(catalog_name, {
                    "labels": sorted([*catalog["labels"], label])})
                self.db.checkpoint()
                self._invalidate(document)

    def drop_index(self, document: str, label: str) -> None:
        """Drop a value index; its pages return to the free list.

        Runs as one WAL transaction (deregistration and page frees
        commit atomically) under the document's exclusive latch, so no
        served reader can be mid-scan over the freed pages.
        """
        with self.document_latch(document).exclusive():
            with self._lock:
                catalog_name = schema.value_index_catalog_name(document)
                catalog = self.db.get_meta(catalog_name)
                if catalog is None or label not in catalog["labels"]:
                    raise CatalogError(
                        f"document {document!r} has no value index on "
                        f"label {label!r}")
                with self.db.transaction():
                    self.db.drop_btree(
                        schema.value_index_name(document, label))
                    self.db.put_meta(catalog_name, {
                        "labels": [entry for entry in catalog["labels"]
                                   if entry != label]})
                self._invalidate(document)

    def indexes(self, document: str) -> list[str]:
        """Labels of ``document`` carrying a value index, sorted."""
        if not self.db.exists(schema.table_name(document)):
            raise CatalogError(f"document {document!r} is not loaded")
        catalog = self.db.get_meta(
            schema.value_index_catalog_name(document))
        if catalog is None:
            return []
        return sorted(catalog.get("labels", []))

    def statistics(self, name: str) -> DocumentStatistics:
        """The statistics gathered when ``name`` was loaded."""
        payload = self.db.get_meta(schema.stats_name(name))
        if payload is None:
            raise CatalogError(f"document {name!r} is not loaded")
        return DocumentStatistics.from_payload(payload)

    # -- sessions -----------------------------------------------------------------

    def session(self, profile: EngineProfile | str = "m4",
                time_limit: float | None = None,
                memory_budget: int | None = None,
                batch_size: int = DEFAULT_BATCH_SIZE,
                plan_cache_capacity: int = 128) -> Session:
        """Open a client session (prepared queries, bindings, cursors)."""
        return Session(self, profile=profile, time_limit=time_limit,
                       memory_budget=memory_budget, batch_size=batch_size,
                       plan_cache_capacity=plan_cache_capacity)

    @property
    def _session(self) -> Session:
        """The default session backing the one-shot compatibility API."""
        with self._engine_lock:
            if self._default_session is None:
                self._default_session = self.session()
            return self._default_session

    # -- querying -----------------------------------------------------------------

    def engine(self, document: str,
               profile: EngineProfile | str = "m4") -> XQEngine:
        """A (cached) engine for a document under a profile.

        The cache key includes the document's catalog version — for a
        thread inside :meth:`read_ticket`, the version its snapshot
        observed, so a reader overlapping an update gets the engine of
        its own generation (and a cache miss builds one whose catalog
        reads resolve through the bound snapshot)."""
        profile_name = profile if isinstance(profile, str) else profile.name
        key = (document, profile_name, self.catalog_version(document))
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
        live = self._versions.get(document, 0)
        try:
            # Built outside both locks: construction reads the catalog
            # and may take a while, and must not stall other documents.
            engine = XQEngine(self.db, document, profile)
            if self._versions.get(document, 0) != live:
                raise CatalogError("catalog changed while opening")
        except CatalogError:
            # The mid-replacement window (old objects dropped, new ones
            # not yet complete — the statistics entry, written last, is
            # the completeness marker), or trees opened on either side
            # of a version bump.  Retry serialized against load/drop; a
            # genuinely missing document raises CatalogError again.
            with self._lock:
                engine = XQEngine(self.db, document, profile)
        with self._engine_lock:
            return self._engines.setdefault(key, engine)

    def execute(self, document: str, query: str | Query,
                profile: EngineProfile | str = "m4",
                time_limit: float | None = None,
                memory_budget: int | None = None) -> list[Node]:
        """Evaluate a query; returns result nodes."""
        return self._session.execute(document, query, profile=profile,
                                     time_limit=time_limit,
                                     memory_budget=memory_budget)

    def query(self, document: str, query: str | Query,
              profile: EngineProfile | str = "m4",
              time_limit: float | None = None,
              memory_budget: int | None = None,
              indent: int | None = None) -> str:
        """Evaluate a query; returns serialized XML text."""
        return self._session.query(document, query, profile=profile,
                                   time_limit=time_limit,
                                   memory_budget=memory_budget,
                                   indent=indent)

    def explain(self, document: str, query: str | Query,
                profile: EngineProfile | str = "m4") -> str:
        """The TPM tree and physical plans the profile would run.

        Returns text for backward compatibility;
        :meth:`Session.explain` returns the structured
        :class:`~repro.core.session.ExplainReport` this is rendered from.
        """
        return str(self._session.explain(document, query, profile=profile))

    # -- accounting ----------------------------------------------------------------

    @property
    def buffer_stats(self):
        return self.db.stats

    def reset_buffer_stats(self) -> None:
        return self.db.reset_stats()

    def mvcc_stats(self) -> dict[str, int]:
        """Version-store and group-commit counters (see
        :meth:`repro.storage.db.Database.mvcc_stats`)."""
        return self.db.mvcc_stats()


class ReadTicket:
    """One admitted read: a pinned snapshot plus the catalog version
    observed atomically with the pin (see :meth:`XmlDbms.read_ticket`)."""

    __slots__ = ("document", "snapshot", "catalog_version")

    def __init__(self, document: str, snapshot, catalog_version: int):
        self.document = document
        self.snapshot = snapshot
        self.catalog_version = catalog_version

    @property
    def snapshot_lsn(self) -> int:
        """The commit LSN this read observes: every commit with LSN <=
        this value is visible, nothing later."""
        return self.snapshot.lsn

    def __repr__(self) -> str:
        return (f"ReadTicket(document={self.document!r}, "
                f"lsn={self.snapshot_lsn}, "
                f"catalog_version={self.catalog_version})")


#: Re-exported for convenience.
PROFILES = ENGINE_PROFILES
