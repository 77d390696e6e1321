"""The document latch: a shared/exclusive latch for DDL quiesce.

Page contents need no latch — published page buffers are immutable and
readers run on MVCC snapshots (:mod:`repro.storage.buffer`) — and write
transactions serialise on the database's transaction lock.  What is
left is :class:`~repro.core.dbms.XmlDbms`'s per-document latch: served
reads hold it shared for the life of their read ticket, and the rare
operations that must wait until no reader is inside the document (index
build and drop) hold it exclusively.

:class:`SharedLatch` is reader-preference: any number of readers hold it
together, a writer holds it alone, and readers never wait behind a
merely *waiting* writer — so nested shared acquisition from one thread
is deadlock-free by construction.  Writer starvation is possible in
principle under a saturated read load; the exclusive side is DDL, with
gaps between reader batches.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager


class SharedLatch:
    """A shared/exclusive (readers–writer) latch, reader-preference.

    Supported nestings: shared-inside-shared (any threads),
    exclusive-inside-exclusive and shared-inside-exclusive (same
    thread).  *Upgrading* — acquiring exclusively while the same thread
    already holds the latch shared — is not supported and deadlocks;
    release the shared hold first.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._turnstile = threading.Condition(self._mutex)
        self._active_readers = 0
        self._writer: threading.Thread | None = None
        self._writer_depth = 0

    @contextmanager
    def shared(self) -> Iterator[None]:
        me = threading.current_thread()
        with self._mutex:
            # Only an *active* writer blocks a reader (``_writer`` is
            # installed strictly after the writer wins, never while it
            # waits).  A thread holding the latch exclusively may read
            # under it.
            while self._writer is not None and self._writer is not me:
                self._turnstile.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._mutex:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._turnstile.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        me = threading.current_thread()
        with self._mutex:
            if self._writer is me:        # reentrant for one thread
                self._writer_depth += 1
            else:
                # While waiting the writer blocks nobody (new readers
                # overtake it, by design).
                while self._writer is not None or self._active_readers:
                    self._turnstile.wait()
                self._writer = me
                self._writer_depth = 1
        try:
            yield
        finally:
            with self._mutex:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._turnstile.notify_all()
