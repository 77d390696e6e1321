"""The one page stream: a bounded hand-off and its consumer handle.

Every streaming result in the system is a :class:`PageStream` — a
local worker paging a cursor, the shard mediator relaying one shard's
cursor, the mediator merging N shards' cursors.  A stream has N >= 1
*lanes*; each lane is a :class:`Handoff` (a bounded buffer on one
condition variable) fed by exactly one producer thread, and the
consumer merges the lanes by ``(lane rank, row index)`` on its own
thread.  One lane is simply the smallest merge.

The lane bound is the backpressure: a producer that runs
``max_buffered_pages`` ahead of its consumer blocks, and both sides
wake the moment the other acts — a put, a get, the producer finishing
or failing, the consumer closing.  Nothing polls.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable

from repro.errors import CursorClosedError


class StreamAborted(Exception):
    """Raised in a producer whose consumer closed the stream."""


class Handoff:
    """A bounded one-producer, one-consumer buffer on one condition.

    The producer calls :meth:`put` until it ends the lane with
    :meth:`finish` (passing its error if it failed); the consumer calls
    :meth:`get` until it returns ``None`` and may :meth:`close` at any
    time, from any thread.  Items buffered before ``finish`` are always
    delivered first and it never blocks — which is why a terminal
    error needs no channel of its own.
    """

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._cond = threading.Condition()
        # guarded by: self._cond
        self._items: deque = deque()
        # guarded by: self._cond
        self._finished = False
        # guarded by: self._cond
        self._error: BaseException | None = None
        # guarded by: self._cond
        self._closed = False
        # guarded by: self._cond
        self._reason: BaseException | None = None

    def _wait_locked(self, end: float | None) -> bool:
        """Block until notified; ``False`` once ``end`` has passed."""
        if end is None:
            self._cond.wait()
            return True
        remaining = end - time.monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    # -- producer side -------------------------------------------------------

    def put(self, item, timeout: float | None = None) -> bool:
        """Append ``item``, blocking while the buffer is full.

        Returns ``False`` if it is still full after ``timeout`` seconds
        (the item was not added); raises :class:`StreamAborted` once
        the consumer has closed.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while (not self._closed
                   and len(self._items) >= self._capacity):
                if not self._wait_locked(end):
                    return False
            if self._closed:
                raise StreamAborted()
            self._items.append(item)
            self._cond.notify_all()
            return True

    def finish(self, error: BaseException | None = None) -> None:
        """End the lane: after the buffer, ``get`` returns ``None`` — or
        raises ``error``, for a producer that failed."""
        with self._cond:
            self._finished = True
            self._error = error
            self._cond.notify_all()

    # -- consumer side -------------------------------------------------------

    def get(self, timeout: float | None = None):
        """The next item; ``None`` once the producer has finished.

        Raises the producer's error after the items buffered ahead of
        it, :class:`TimeoutError` if nothing arrives for ``timeout``
        seconds (the lane is untouched — call again), and the close
        reason (default :class:`~repro.errors.CursorClosedError`) once
        closed.
        """
        end = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not (self._closed or self._items or self._finished):
                if not self._wait_locked(end):
                    raise TimeoutError(
                        f"no page within {timeout} seconds")
            if self._closed:
                raise self._reason or CursorClosedError(
                    "stream is closed")
            if self._items:
                item = self._items.popleft()
                self._cond.notify_all()
                return item
            if self._error is not None:
                raise self._error
            return None

    def close(self, reason: BaseException | None = None) -> None:
        """Abandon the lane: drop the buffer and wake both sides.

        Idempotent; the first ``reason`` sticks.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._reason = reason
            self._items.clear()
            self._cond.notify_all()


class PageStream:
    """Consumer handle of a streaming submission — the only one.

    ``lanes`` are the producer side: producer ``i`` puts ``(base,
    rows)`` items into ``lanes[i]`` (``base`` is the index of the
    page's first row within that lane's result) and ends the lane with
    ``finish``.  The consumer side is :meth:`next_page` until
    it returns ``None``, or :meth:`close` to abandon the stream early;
    one thread fetches at a time, any thread may close.

    ``on_end(stream, error)`` runs exactly once, on the thread that
    ends the stream — end of results (``error`` is ``None``, and
    ``total_rows`` is set), a failure (the error about to be raised) or
    ``close`` — and is where the owning server drops the stream from
    its registry, counts the error and ends the span.
    """

    def __init__(self, document: str, page_size: int,
                 max_buffered_pages: int, lanes: int = 1,
                 future: Future | None = None,
                 on_end: Callable | None = None):
        #: The document the stream reads.
        self.document = document
        self.page_size = page_size
        self.lanes = tuple(Handoff(max_buffered_pages)
                           for _ in range(lanes))
        #: A local worker's outcome: the row count once production
        #: finishes, ``None`` if the consumer closed first.
        self.future = future
        #: Whether the plan(s) came from a plan cache; known by the end
        #: of results at the latest.
        self.plan_cache_hit: bool | None = None
        #: ``rows_delivered``, set at the end of results.
        self.total_rows: int | None = None
        #: Set by a local worker once its snapshot ticket is pinned:
        #: the commit LSN every page of this stream observes.
        self.snapshot_lsn: int | None = None
        #: Rows a local worker has pushed so far.
        self.rows_produced = 0
        #: Rows handed to the consumer so far.
        self.rows_delivered = 0
        self._on_end = on_end
        # The merge: every lane's head page sits in ``_heads`` keyed by
        # (rank, base); ``_awaiting`` names the lanes whose head is not
        # known yet (all of them at first, then whichever was popped).
        self._heads: list = []
        self._awaiting = list(range(lanes))
        self._pending: list = []
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._ended = False

    def next_page(self, timeout: float | None = None):
        """The next page (up to ``page_size`` rows); ``None`` at the end.

        Blocks until the producers deliver; past the end it keeps
        returning ``None``.  ``timeout`` bounds each
        wait on a producer: when one delivers nothing for that long,
        :class:`TimeoutError` is raised and the stream stays open — a
        later call resumes where this one stopped.  Any other failure
        (a producer's error, re-raised after the rows buffered ahead of
        it) ends the stream; once failed or closed, this raises the
        close reason, :class:`~repro.errors.CursorClosedError` by
        default.
        """
        try:
            page = self._pull(timeout)
        except TimeoutError:
            raise
        except BaseException as error:
            self._end(error)
            raise
        if page is None:
            self.total_rows = self.rows_delivered
            self._end()
            return None
        self.rows_delivered += len(page)
        return page

    def _pull(self, timeout: float | None):
        """Merge lane pages in (rank, base) order, re-cut to page_size."""
        pending = self._pending
        while len(pending) < self.page_size:
            while self._awaiting:
                rank = self._awaiting[-1]
                item = self.lanes[rank].get(timeout)
                self._awaiting.pop()
                if item is not None:
                    heapq.heappush(self._heads, (rank, *item))
            if not self._heads:
                break
            rank, _base, rows = heapq.heappop(self._heads)
            self._awaiting.append(rank)
            pending.extend(rows)
        page = pending[:self.page_size]
        del pending[:self.page_size]
        return page or None

    def pages(self):
        """Iterate pages until the stream ends."""
        while (page := self.next_page()) is not None:
            yield page

    def close(self, reason: BaseException | None = None) -> None:
        """Abandon the stream; blocked producers and fetchers wake.

        Idempotent and safe from any thread.  ``reason`` (used by a
        closing server) is what a later ``next_page`` raises.
        """
        self._end(reason=reason)

    def _end(self, error: BaseException | None = None,
             reason: BaseException | None = None) -> None:
        with self._lock:
            if self._ended:
                return
            self._ended = True
        for lane in self.lanes:
            lane.close(reason)
        if self._on_end is not None:
            self._on_end(self, error)

    @property
    def closed(self) -> bool:
        """Whether the stream has ended (results, failure or close)."""
        with self._lock:
            return self._ended
