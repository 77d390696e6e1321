"""Buffer pool: the main-memory window onto the page file.

Milestone 2's whole point is that the engine "does not require building the
DOM tree" and fetches "only those nodes into main memory that are currently
necessary".  The buffer pool is where that promise is enforced and
measured:

* a fixed number of frames caches pages;
* callers *pin* a page while using it and *unpin* it after (unpinned pages
  are eviction candidates, least-recently-used first);
* dirty pages are written back on eviction or flush;
* every logical access is counted, so tests and the cost model can assert
  I/O behaviour instead of guessing.

The pool also doubles as the tester's **memory meter**: the efficiency
tests of Section 4 ran engines under a 20 MB budget, and
:class:`~repro.grading.tester.Tester` sizes the pool (plus the operators'
materialisation budget) to emulate that.

Multi-version concurrency control
---------------------------------

On top of the frame table the pool keeps an in-memory *version store*:
the first time a write transaction replaces a page, the committed buffer
it supersedes is kept; at commit those buffers are published into
per-page version chains tagged with the commit's sequence number (the
*commit LSN*).  A reader *pins a snapshot* — the commit LSN at pin
time — and binds it to its thread; every page read made while bound
resolves against the chains, so the reader sees exactly the state as of
its pin, never blocking on (or being blocked by) writers.  Old versions
are reclaimed as soon as no pinned snapshot can still need them, and
page frees are deferred until no pinned snapshot can still *reach* the
page (the pager free destroys the page's bytes).  The full lifecycle is
documented in ``docs/mvcc.md``.  None of it takes a page latch: a page
buffer that another thread can reach is never mutated again (see
:class:`BufferPool`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.errors import BufferPoolError
from repro.storage.pager import Pager


@dataclass
class BufferStats:
    """Logical and physical access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    #: Live pages decoded into a B+-tree node (once per residency).
    decodes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "BufferStats":
        return replace(self)


@dataclass(slots=True)
class _Frame:
    data: bytes
    pin_count: int = 0
    dirty: bool = False
    #: Bumped on every dirtying event.  The group committer compares the
    #: value it captured at commit time against the current one to decide
    #: whether the frame may be marked clean after the durable write-back
    #: (a mismatch means someone re-dirtied the frame in between).
    mod_count: int = 0
    #: ``data`` decoded (an immutable B+-tree node shared by every tree
    #: instance): cleared on every dirtying event, gone with the frame.
    # guarded by: self._lock (the owning pool's mutex)
    decoded: object | None = None


class Snapshot:
    """A pinned read view: the database as of commit ``lsn``.

    Bind it to the current thread with :meth:`BufferPool.reading`; while
    bound, every page access through the pool resolves against the
    version store.  A page superseded since the pin is served as the
    superseded buffer itself; pins taken on it are *virtual* — tracked
    here (``_pins``), never on the live frame.  ``_seen`` is the pages
    so served, so ``versioned_reads`` counts first touches.  Release via
    :meth:`BufferPool.release_snapshot`.
    """

    __slots__ = ("pool", "lsn", "_seen", "_pins", "released")

    def __init__(self, pool: "BufferPool", lsn: int):
        self.pool = pool
        self.lsn = lsn
        self._seen: set[int] = set()
        self._pins: dict[int, int] = {}
        self.released = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(lsn={self.lsn}, versioned={len(self._seen)})"


class BufferPool:
    """LRU buffer pool over a :class:`~repro.storage.pager.Pager`.

    ``capacity`` is the number of frames.  A frame also owns the decoded
    form of its page (:meth:`decoded` / :meth:`publish_decoded`), so
    derived state leaves memory with the page.

    The pool is thread-safe.  A single pool mutex guards the frame table,
    the LRU order, the version store and the counters; it is held only
    for the table manipulation itself, never while page *contents* are
    being decoded or built.  Contents need no lock, on one condition:
    **a page buffer that another thread can reach is never mutated
    again**.  Every read resolves "version-chain image, in-flight
    pre-image or live buffer" under the mutex and returns a reference
    that stays valid whatever happens to the frame afterwards; a writer
    builds a fresh image and publishes it — :meth:`new_page` for a page
    it allocates, :meth:`put_page` for one it replaces.  That is the only
    write protocol: every frame holds ``bytes``.  Lock order is pool
    mutex → pager mutex.
    """

    def __init__(self, pager: Pager, capacity: int = 64):
        if capacity < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.pager = pager
        self.capacity = capacity
        # guarded by: self._lock
        self.stats = BufferStats()
        # guarded by: self._lock
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._lock = threading.RLock()
        #: Pages dirtied by the active write transaction (None = no
        #: transaction).  While tracking, dirty frames are pinned in
        #: spirit: they are never evicted (no-steal) and never flushed,
        #: so the database file only sees them after the WAL has the
        #: commit record.
        # guarded by: self._lock
        self._tracked: set[int] | None = None
        #: Committed image of every page the transaction touched — the
        #: very buffer its first write superseded (``None`` = the page
        #: was born in this transaction and has no snapshot-visible past).
        # guarded by: self._lock
        self._txn_preimages: dict[int, bytes | None] = {}
        #: Page frees issued during the transaction, executed once the
        #: commit is durable *and* no snapshot can still reach the page.
        # guarded by: self._lock
        self._deferred_frees: list[int] = []
        # -- MVCC state ----------------------------------------------------
        #: Monotonic commit sequence ("commit LSN").  Unlike WAL LSNs it
        #: never resets at a checkpoint, so snapshot ordering survives
        #: log truncation.
        # guarded by: self._lock
        self._committed_lsn = 0
        #: Highest commit LSN whose WAL records are known fsynced.
        # guarded by: self._lock
        self._durable_lsn = 0
        #: page id → ascending ``(superseded_at, image)``: ``image`` is
        #: the page's content *before* commit ``superseded_at`` replaced
        #: it, i.e. what every snapshot pinned below ``superseded_at``
        #: must read.
        # guarded by: self._lock
        self._versions: dict[int, list[tuple[int, bytes]]] = {}
        #: commit LSN → number of snapshots pinned at it.
        # guarded by: self._lock
        self._snapshots: dict[int, int] = {}
        #: page id → latest commit LSN whose durable write-back is still
        #: pending.  Held frames are excluded from eviction and flush:
        #: their bytes must not reach the file before the covering fsync
        #: (crash before it would leave redo-less new content behind a
        #: discarded WAL tail).
        # guarded by: self._lock
        self._held: dict[int, int] = {}
        #: ``(free_gate, durability_gate, page_id)``: execute the pager
        #: free once ``durable_lsn >= durability_gate`` and no snapshot
        #: is pinned below ``free_gate``.
        # guarded by: self._lock
        self._pending_frees: list[tuple[int, int, int]] = []
        self._local = threading.local()
        # Lifetime counters for the stats surface.
        # guarded by: self._lock
        self.snapshots_opened = 0
        # guarded by: self._lock
        self.versions_installed = 0
        # guarded by: self._lock
        self.versioned_reads = 0

    def reset_stats(self) -> None:
        """Start the counters over (a ``stats`` object read before the
        reset keeps its values)."""
        with self._lock:
            self.stats = BufferStats()

    @property
    def memory_bytes(self) -> int:
        """Bytes of page data currently held (≤ capacity · page_size)."""
        with self._lock:
            return len(self._frames) * self.pager.page_size

    # -- snapshots ---------------------------------------------------------

    def pin_snapshot(self, observe: Callable[[], object] | None = None):
        """Pin a read snapshot at the current commit LSN.

        ``observe``, if given, runs inside the same critical section that
        reads the commit LSN and its result is returned alongside the
        snapshot — this is how the catalog layer pairs a snapshot with
        the document version counters it saw, atomically with respect to
        commit publication (which bumps both under this lock).
        """
        with self._lock:
            snapshot = Snapshot(self, self._committed_lsn)
            self._snapshots[snapshot.lsn] = (
                self._snapshots.get(snapshot.lsn, 0) + 1)
            self.snapshots_opened += 1
            if observe is None:
                return snapshot
            return snapshot, observe()

    def release_snapshot(self, snapshot: Snapshot) -> None:
        """Release a pinned snapshot (idempotent) and reclaim versions."""
        with self._lock:
            if snapshot.released:
                return
            snapshot.released = True
            count = self._snapshots.get(snapshot.lsn, 0) - 1
            if count <= 0:
                self._snapshots.pop(snapshot.lsn, None)
            else:
                self._snapshots[snapshot.lsn] = count
            snapshot._seen.clear()
            snapshot._pins.clear()
            self._vacuum_locked()

    @contextmanager
    def reading(self, snapshot: Snapshot) -> Iterator[Snapshot]:
        """Bind ``snapshot`` to the current thread for a ``with`` block.

        While bound, every read through the pool resolves against the
        version store at ``snapshot.lsn``.  Binding is thread-local and
        does not nest (a bound thread must not open a write transaction).
        """
        if getattr(self._local, "snapshot", None) is not None:
            raise BufferPoolError("thread already has a bound snapshot")
        self._local.snapshot = snapshot
        try:
            yield snapshot
        finally:
            self._local.snapshot = None

    def decoded(self, page_id: int) -> object | None:
        """The live page's decoded form (a logical access); ``None`` when
        not resident, not decoded, or not what the bound snapshot reads.
        Version resolution and lookup are one critical section, so no
        bound reader gets a node published after its page was replaced."""
        snapshot = getattr(self._local, "snapshot", None)
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.decoded is None or (
                    snapshot is not None and self._version_image_locked(
                        page_id, snapshot.lsn) is not None):
                return None
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
            return frame.decoded

    def publish_decoded(self, page_id: int, page: bytes,
                        node: object) -> None:
        """Attach ``node``, never mutated again, to the frame it mirrors.
        ``page`` is the buffer it was decoded from; any buffer but the
        live frame's own — a superseded version, a frame since evicted
        or replaced — is ignored."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None and frame.data is page:
                frame.decoded = node
                self.stats.decodes += 1

    def _version_image_locked(self, page_id: int,
                              lsn: int) -> bytes | None:
        """The image a snapshot at ``lsn`` must read, or None for live."""
        chain = self._versions.get(page_id)
        if chain:
            for superseded_at, image in chain:
                if superseded_at > lsn:
                    return image
        if self._txn_preimages:
            image = self._txn_preimages.get(page_id, _NOT_CAPTURED)
            if image is _NOT_CAPTURED:
                return None
            if image is None:
                raise BufferPoolError(
                    f"snapshot at lsn {lsn} read page {page_id}, which "
                    f"only exists inside the in-flight transaction")
            return image
        return None

    # -- core protocol -------------------------------------------------------

    def get_page(self, page_id: int, pin: bool = True) -> bytes:
        """Return the page's buffer, faulting it in if needed.

        One critical section resolves what this thread must read — under
        a bound snapshot the version-chain image or in-flight pre-image
        current at its pin, else the live buffer — and returns a
        reference, which stays valid without a pin.  ``pin=True``
        (default) also keeps the *frame* resident; balance it with
        :meth:`unpin` (prefer :meth:`pinned`).
        """
        snapshot = getattr(self._local, "snapshot", None)
        with self._lock:
            if snapshot is not None:
                image = self._version_image_locked(page_id, snapshot.lsn)
                if image is not None:
                    self.stats.hits += 1
                    if page_id not in snapshot._seen:
                        snapshot._seen.add(page_id)
                        self.versioned_reads += 1
                    if pin:
                        snapshot._pins[page_id] = (
                            snapshot._pins.get(page_id, 0) + 1)
                    return image
            frame = self._frame_locked(page_id)
            if pin:
                frame.pin_count += 1
            return frame.data

    def _frame_locked(self, page_id: int) -> _Frame:
        """The page's frame, faulted in if needed: one logical access."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
        else:
            self.stats.misses += 1
            self._make_room_locked()
            frame = _Frame(self.pager.read_page(page_id))
            self._frames[page_id] = frame
        return frame

    def _check_write(self, image: bytes) -> None:
        if len(image) != self.pager.page_size:
            raise BufferPoolError(
                f"page image of {len(image)} bytes, expected "
                f"{self.pager.page_size}")
        if getattr(self._local, "snapshot", None) is not None:
            raise BufferPoolError("page write under a bound snapshot — "
                                  "snapshot readers are read-only")

    def put_page(self, page_id: int, image: bytes,
                 decoded: object | None = None) -> None:
        """Publish ``image`` as the page's content, with ``decoded`` as
        its decoded form.

        One critical section: the superseded buffer *itself* becomes the
        write transaction's pre-image (first write only), so snapshots
        and anyone still decoding it keep reading it unchanged, and the
        frame points at ``image``, dirty.  One logical access, like a read.
        """
        self._check_write(image)
        with self._lock:
            frame = self._frame_locked(page_id)
            if self._tracked is not None:
                self._txn_preimages.setdefault(page_id, frame.data)
                self._tracked.add(page_id)
            frame.data = image
            frame.decoded = decoded
            frame.dirty = True
            frame.mod_count += 1

    def new_page(self, image: bytes) -> int:
        """Allocate a page holding ``image``, dirty; returns its id."""
        self._check_write(image)
        with self._lock:
            page_id = self.pager.allocate_page()
            self._make_room_locked()
            self._frames[page_id] = _Frame(image, dirty=True, mod_count=1)
            # A reused page id must not resolve to its previous life.
            self._versions.pop(page_id, None)
            if self._tracked is not None:
                # Born in this transaction: no snapshot-visible past.
                self._tracked.add(page_id)
                self._txn_preimages.setdefault(page_id, None)
            return page_id

    def unpin(self, page_id: int) -> None:
        """Release one pin taken by :meth:`get_page`."""
        snapshot = getattr(self._local, "snapshot", None)
        if snapshot is not None and snapshot._pins.get(page_id, 0) > 0:
            snapshot._pins[page_id] -= 1
            return
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count <= 0:
                raise BufferPoolError(f"unpin of page {page_id} that is "
                                      "not pinned")
            frame.pin_count -= 1

    @contextmanager
    def pinned(self, page_id: int) -> Iterator[bytes]:
        """Pin a page for the duration of a ``with`` block (read-only)."""
        data = self.get_page(page_id)
        try:
            yield data
        finally:
            self.unpin(page_id)

    def free_page(self, page_id: int) -> None:
        """Drop a page from the pool and return it to the pager free list.

        Inside a write transaction the pager-level free (which writes the
        free-list next pointer straight into the file, destroying the
        page's committed content) is deferred until the transaction
        commits durably *and* no pinned snapshot can still reach the
        page; an aborted transaction frees nothing.  Outside a
        transaction the free is still deferred while snapshots are
        pinned, for the same reachability reason.
        """
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None and frame.pin_count > 0:
                # Checked before touching the table: a refused free must
                # leave the pin holder's frame fully intact.
                raise BufferPoolError(f"freeing pinned page {page_id}")
            self._frames.pop(page_id, None)
            if self._tracked is not None:
                if page_id not in self._txn_preimages:
                    self._txn_preimages[page_id] = (
                        frame.data if frame is not None
                        else self.pager.read_page(page_id))
                self._tracked.discard(page_id)
                self._deferred_frees.append(page_id)
                return
            self._held.pop(page_id, None)
            if self._snapshots:
                # Non-transactional free with live snapshots: any of
                # them may still reach this page, so it only becomes
                # reusable once every one of them is gone.
                self._pending_frees.append(
                    (self._committed_lsn + 1, 0, page_id))
            else:
                self._versions.pop(page_id, None)
                self.pager.free_page(page_id)

    # -- eviction / flushing ---------------------------------------------------

    def _make_room_locked(self) -> None:
        while len(self._frames) >= self.capacity:
            victim_id = None
            for candidate_id, frame in self._frames.items():
                if frame.pin_count != 0:
                    continue
                if candidate_id in self._held:
                    # Held back: committed but the covering group fsync
                    # has not confirmed yet — the file must not see
                    # these bytes before the WAL does.
                    continue
                if (self._tracked is not None
                        and candidate_id in self._tracked):
                    # No-steal: a transaction's dirty page must not reach
                    # the file before its WAL records do.
                    continue
                victim_id = candidate_id
                break
            if victim_id is None:
                if self._tracked is not None or self._held:
                    raise BufferPoolError(
                        f"write transactions dirtied more pages than the "
                        f"pool holds ({self.capacity} frames); raise "
                        f"buffer_capacity or split the update")
                raise BufferPoolError(
                    f"all {self.capacity} frames are pinned; cannot evict")
            self._evict_locked(victim_id)

    def _evict_locked(self, page_id: int) -> None:
        frame = self._frames.pop(page_id)
        if frame.dirty:
            self.pager.write_page(page_id, frame.data)
            self.stats.dirty_writebacks += 1
        self.stats.evictions += 1

    def flush(self) -> None:
        """Write back every dirty frame (pages stay resident).

        Held-back frames — committed but awaiting their group fsync —
        are skipped: their images reach the file through the committer's
        durable write-back instead.  :meth:`Database.checkpoint` drains
        the committer first, so a checkpoint-time flush covers everything.
        """
        with self._lock:
            if self._tracked is not None:
                raise BufferPoolError(
                    "flush() during a write transaction would leak "
                    "uncommitted pages to the file; commit or abort first")
            for page_id, frame in self._frames.items():
                if frame.dirty and page_id not in self._held:
                    self.pager.write_page(page_id, frame.data)
                    self.stats.dirty_writebacks += 1
                    frame.dirty = False

    def flush_and_clear(self) -> None:
        """Write back everything and empty the pool (e.g. before closing)."""
        with self._lock:
            if self._held:
                raise BufferPoolError(
                    "flush_and_clear with commits awaiting their group "
                    "fsync; drain the committer first")
            self.flush()
            self._frames.clear()

    # -- write transactions ------------------------------------------------------

    def begin_tracking(self) -> None:
        """Start tracking dirtied pages for a write transaction.

        Flushes first, so the tracked set is exactly the transaction's
        own writes; from here until commit/abort, the transaction's dirty
        frames are neither flushed nor evicted (no-steal) and its page
        frees are deferred.  Only one transaction may track at a time —
        callers serialize (see :meth:`repro.storage.db.Database.transaction`)
        — and nothing but a transaction writes pages while one is open,
        so every page written until commit/abort belongs to it.
        """
        with self._lock:
            if self._tracked is not None:
                raise BufferPoolError("nested write transactions are not "
                                      "supported")
            if getattr(self._local, "snapshot", None) is not None:
                raise BufferPoolError("cannot start a write transaction "
                                      "on a snapshot-bound thread")
            self.flush()
            self._tracked = set()
            self._txn_preimages = {}
            self._deferred_frees = []

    def transaction_pages(self) -> dict[int, bytes]:
        """Snapshot ``{page_id: content}`` of the transaction's dirty pages."""
        with self._lock:
            if self._tracked is None:
                raise BufferPoolError("no write transaction is active")
            return {page_id: self._frames[page_id].data
                    for page_id in sorted(self._tracked)}

    def publish_commit(self, on_publish: list[Callable[[], None]] | None = None,
                       ) -> tuple[int, dict[int, int]]:
        """Make the transaction's writes visible and end tracking.

        Call with the commit record appended to the WAL (durability may
        still be pending — the frames stay *held back* from eviction and
        flush until :meth:`complete_commit` confirms the fsync).  Inside
        one critical section this assigns the commit LSN, installs the
        captured pre-images into the version chains (new snapshots see
        the new state, existing snapshots keep resolving the old one),
        schedules deferred frees, and runs the ``on_publish`` callbacks —
        the hook catalog layers use to bump their version counters
        atomically with the LSN.

        Returns ``(commit_lsn, {page_id: mod_count})`` — the token
        :meth:`complete_commit` needs.
        """
        with self._lock:
            if self._tracked is None:
                raise BufferPoolError("no write transaction is active")
            lsn = self._committed_lsn + 1
            self._committed_lsn = lsn
            mods: dict[int, int] = {}
            for page_id in self._tracked:
                image = self._txn_preimages.get(page_id)
                if image is not None:
                    self._versions.setdefault(page_id, []).append(
                        (lsn, image))
                    self.versions_installed += 1
                frame = self._frames.get(page_id)
                if frame is not None:
                    self._held[page_id] = lsn
                    mods[page_id] = frame.mod_count
            for page_id in self._deferred_frees:
                image = self._txn_preimages.get(page_id)
                if image is not None:
                    self._versions.setdefault(page_id, []).append(
                        (lsn, image))
                    self.versions_installed += 1
                self._pending_frees.append((lsn, lsn, page_id))
            self._tracked = None
            self._txn_preimages = {}
            self._deferred_frees = []
            for callback in (on_publish or []):
                callback()
            self._vacuum_locked()
            return lsn, mods

    def complete_commit(self, lsn: int, images: dict[int, bytes],
                        mods: dict[int, int]) -> None:
        """Durable write-back after the commit's covering fsync.

        ``images`` are the page images that went into the WAL (*not* the
        current frames — a later transaction may have re-dirtied them);
        writing them to the file in commit order reproduces exactly what
        redo would.  A frame is only marked clean if its mod counter
        still matches the commit-time capture.
        """
        for page_id in sorted(mods):
            self.pager.write_page(page_id, images[page_id])
        with self._lock:
            self.stats.dirty_writebacks += len(mods)
            self._durable_lsn = max(self._durable_lsn, lsn)
            for page_id, mod_count in mods.items():
                if self._held.get(page_id) == lsn:
                    del self._held[page_id]
                frame = self._frames.get(page_id)
                if (frame is not None and frame.mod_count == mod_count
                        and page_id not in self._held
                        and (self._tracked is None
                             or page_id not in self._tracked)):
                    frame.dirty = False
            self._vacuum_locked()

    def end_tracking_abort(self) -> None:
        """Throw the transaction's writes away without touching the file.

        No-steal guarantees none of them reached disk, so swapping the
        superseded buffers back in (or dropping the frames) brings back
        the pre-transaction state; deferred frees are forgotten (the
        pages were only *going* to be freed).  Decoded nodes go with the
        frames; tree instances' meta fields over them are still stale.
        """
        with self._lock:
            if self._tracked is None:
                raise BufferPoolError("no write transaction is active")
            # Validate before touching any state: refusing the abort
            # must leave the transaction fully tracked, or the dirty
            # uncommitted frames would become invisible to the no-steal
            # machinery and a later flush could write them to the file.
            for page_id in self._tracked:
                frame = self._frames.get(page_id)
                if frame is not None and frame.pin_count > 0:
                    raise BufferPoolError(
                        f"aborting with page {page_id} still pinned")
            tracked, self._tracked = self._tracked, None
            preimages, self._txn_preimages = self._txn_preimages, {}
            self._deferred_frees = []
            for page_id in tracked:
                image = preimages.get(page_id)
                frame = self._frames.get(page_id)
                if (image is not None and frame is not None
                        and page_id in self._held):
                    # The frame carries a previous commit whose durable
                    # write-back is still pending; dropping it would lose
                    # that committed image, so put the old buffer back.
                    frame.data = image
                    frame.mod_count += 1
                    frame.decoded = None
                else:
                    self._frames.pop(page_id, None)

    @property
    def in_transaction(self) -> bool:
        with self._lock:
            return self._tracked is not None

    # -- version reclamation -----------------------------------------------------

    def _vacuum_locked(self) -> None:
        """Drop versions no snapshot needs; run frees nothing can reach."""
        min_pinned = min(self._snapshots) if self._snapshots else None
        if self._versions:
            dead_chains = []
            for page_id, chain in self._versions.items():
                if min_pinned is None:
                    chain.clear()
                else:
                    while chain and chain[0][0] <= min_pinned:
                        chain.pop(0)
                if not chain:
                    dead_chains.append(page_id)
            for page_id in dead_chains:
                del self._versions[page_id]
        if self._pending_frees:
            remaining = []
            for free_gate, durability_gate, page_id in self._pending_frees:
                if (self._durable_lsn >= durability_gate
                        and (min_pinned is None or min_pinned >= free_gate)):
                    self._versions.pop(page_id, None)
                    self.pager.free_page(page_id)
                else:
                    remaining.append((free_gate, durability_gate, page_id))
            self._pending_frees = remaining

    # -- introspection -----------------------------------------------------------

    def resident_pages(self) -> list[int]:
        """Page ids currently cached, in LRU-to-MRU order."""
        with self._lock:
            return list(self._frames)

    def pin_count(self, page_id: int) -> int:
        with self._lock:
            frame = self._frames.get(page_id)
            return frame.pin_count if frame is not None else 0

    def mvcc_stats(self) -> dict[str, int]:
        """Current MVCC gauges and lifetime counters."""
        with self._lock:
            return {
                "snapshots_pinned": sum(self._snapshots.values()),
                "snapshots_opened": self.snapshots_opened,
                "versions_retained": sum(len(chain) for chain
                                         in self._versions.values()),
                "versions_installed": self.versions_installed,
                "versioned_reads": self.versioned_reads,
                "commit_lsn": self._committed_lsn,
                "durable_lsn": self._durable_lsn,
                "held_pages": len(self._held),
                "pending_frees": len(self._pending_frees),
            }


#: Sentinel distinguishing "page never captured" from "page born in the
#: transaction" (stored as None) in the pre-image map.
_NOT_CAPTURED = object()
