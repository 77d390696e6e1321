"""Page-addressed file storage.

A database file is an array of fixed-size pages.  Page 0 is the header
page; it stores a magic string, the page size, the page count, the head of
the free-page list, and the root page id of the catalog B+-tree.

The pager deals exclusively in whole pages — callers are expected to go
through the buffer pool (:mod:`repro.storage.buffer`) rather than use
:meth:`Pager.read_page`/:meth:`Pager.write_page` directly, so that all I/O
is accounted.

All public operations are thread-safe: a single mutex serializes the
``seek``/``read``/``write`` pairs (which are not atomic on a shared file
object) and the header/free-list updates.  The pager is the leaf of the
storage lock order — it never calls back up into the buffer pool — so
holding its mutex can never participate in a deadlock cycle.
"""

from __future__ import annotations

import os
import struct
import threading

from repro.errors import PageError

#: Default page size in bytes.  Small enough that scaled-down documents
#: still span many pages (so page-count cost estimates are meaningful),
#: large enough to hold any XASR record for realistic labels.
PAGE_SIZE = 4096

_MAGIC = b"XMLDBMS1"
_HEADER = struct.Struct(">8sIIII")  # magic, page_size, npages, free, catalog

#: Page id value meaning "no page".
NO_PAGE = 0


class Pager:
    """Reads, writes, allocates and frees fixed-size pages in one file.

    Freed pages form an intrusive singly-linked free list: the first four
    bytes of a free page hold the id of the next free page.
    """

    def __init__(self, path: str, page_size: int = PAGE_SIZE,
                 create: bool = False):
        self.path = path
        self.page_size = page_size
        self._lock = threading.RLock()
        #: While > 0, header mutations stay in memory only (see
        #: :meth:`defer_header_writes`) and allocation never touches the
        #: on-disk free list.
        self._header_deferred = 0
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if create or not exists:
            self._file = open(path, "w+b")
            self.num_pages = 1
            self.free_head = NO_PAGE
            self.catalog_root = NO_PAGE
            self._write_header()
        else:
            self._file = open(path, "r+b")
            self._read_header()
        #: Physical I/O counters (distinct from buffer-pool logical counters).
        self.pages_read = 0
        self.pages_written = 0

    # -- header -------------------------------------------------------------

    def _write_header(self) -> None:
        if self._header_deferred:
            return
        self._file.seek(0)
        self._file.write(self.header_page_image())

    def header_page_image(self) -> bytes:
        """Page 0 as it would be written for the current in-memory state.

        The write-ahead log records this image at commit so recovery can
        restore the header (num_pages, free list, catalog root) along
        with the data pages.
        """
        header = _HEADER.pack(_MAGIC, self.page_size, self.num_pages,
                              self.free_head, self.catalog_root)
        return header + b"\x00" * (self.page_size - len(header))

    def defer_header_writes(self) -> None:
        """Keep header mutations in memory until :meth:`resume_header_writes`.

        Used by write transactions: while deferred, a crash leaves the
        on-disk header untouched, so uncommitted file growth is invisible
        (at worst, leaked pages).  Deferral also makes :meth:`allocate_page`
        skip the on-disk free list — popping it would have to read the next
        pointer from a page whose current content may only exist in the
        buffer pool.  Nestable; balanced by ``resume_header_writes``.
        """
        with self._lock:
            self._header_deferred += 1

    def resume_header_writes(self, write: bool = True) -> None:
        """End one deferral level; ``write=True`` persists the header."""
        with self._lock:
            if self._header_deferred <= 0:
                raise PageError("resume_header_writes without deferral")
            self._header_deferred -= 1
            if write and not self._header_deferred:
                self._write_header()

    def header_state(self) -> tuple[int, int, int]:
        """Snapshot of ``(num_pages, free_head, catalog_root)``."""
        with self._lock:
            return self.num_pages, self.free_head, self.catalog_root

    def restore_header_state(self, state: tuple[int, int, int]) -> None:
        """Reset the in-memory header to an earlier snapshot.

        Used when aborting a write transaction: the snapshot from
        transaction start *is* the last committed state (the on-disk
        header may be older — it only catches up at checkpoints).
        Allocations made since are forgotten; the file may stay grown —
        leaked pages, never corruption.
        """
        with self._lock:
            self.num_pages, self.free_head, self.catalog_root = state

    #: Smallest page size a header is accepted with.  Anything below this
    #: cannot hold the header itself plus a minimal B+-tree node, so a
    #: smaller value in a header is corruption, not configuration.
    MIN_PAGE_SIZE = 128

    def _read_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise PageError(f"{self.path}: truncated header "
                            f"({len(raw)} bytes, need {_HEADER.size})")
        try:
            magic, page_size, num_pages, free_head, catalog_root = \
                _HEADER.unpack(raw)
        except struct.error as exc:  # pragma: no cover - defensive
            raise PageError(f"{self.path}: unreadable header "
                            f"({exc})") from None
        if magic != _MAGIC:
            raise PageError(f"{self.path}: not an XML-DBMS file")
        # A well-formed magic does not make the rest of the header sane:
        # a corrupt page_size of 0 would otherwise surface much later as
        # a raw struct.error (or ZeroDivisionError) deep inside the
        # B+-tree layer.  Validate everything the rest of the storage
        # stack implicitly relies on, and blame the file by path.
        if page_size < self.MIN_PAGE_SIZE:
            raise PageError(f"{self.path}: corrupt header "
                            f"(page_size={page_size}, minimum "
                            f"{self.MIN_PAGE_SIZE})")
        if num_pages < 1:
            raise PageError(f"{self.path}: corrupt header "
                            f"(num_pages={num_pages})")
        self.page_size = page_size
        self.num_pages = num_pages
        self.free_head = free_head
        self.catalog_root = catalog_root

    def write_header(self) -> None:
        """Persist the in-memory header now (checkpoints call this: the
        commit path leaves the on-disk header to WAL replay, so it must
        be written back before the log is dropped)."""
        with self._lock:
            deferred, self._header_deferred = self._header_deferred, 0
            try:
                self._write_header()
            finally:
                self._header_deferred = deferred

    def set_catalog_root(self, page_id: int) -> None:
        """Persist the catalog B+-tree root in the header."""
        with self._lock:
            self.catalog_root = page_id
            self._write_header()

    # -- page I/O -------------------------------------------------------------

    def _check(self, page_id: int) -> None:
        if page_id <= 0 or page_id >= self.num_pages:
            raise PageError(f"page id {page_id} out of range "
                            f"(1..{self.num_pages - 1})")

    def read_page(self, page_id: int) -> bytes:
        """Read one page."""
        with self._lock:
            self._check(page_id)
            self._file.seek(page_id * self.page_size)
            data = self._file.read(self.page_size)
            if len(data) < self.page_size:
                data = data + b"\x00" * (self.page_size - len(data))
            self.pages_read += 1
            return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one full page."""
        with self._lock:
            self._check(page_id)
            if len(data) != self.page_size:
                raise PageError(f"page write of {len(data)} bytes, "
                                f"expected {self.page_size}")
            self._file.seek(page_id * self.page_size)
            self._file.write(data)
            self.pages_written += 1

    # -- allocation ----------------------------------------------------------

    def allocate_page(self) -> int:
        """Allocate a page, reusing the free list when possible.

        Under deferred header writes (an open write transaction) the free
        list is never popped: its next pointers live in page content that
        a transaction may have modified only in the buffer pool, so the
        file always grows instead.  Pages freed by the transaction join
        the list at commit and are reused afterwards.
        """
        with self._lock:
            if self.free_head != NO_PAGE and not self._header_deferred:
                page_id = self.free_head
                page = self.read_page(page_id)
                (self.free_head,) = struct.unpack_from(">I", page, 0)
                self._write_header()
                return page_id
            page_id = self.num_pages
            self.num_pages += 1
            self._file.seek(page_id * self.page_size)
            self._file.write(b"\x00" * self.page_size)
            self._write_header()
            return page_id

    def free_page(self, page_id: int) -> None:
        """Return a page to the free list."""
        with self._lock:
            self._check(page_id)
            page = bytearray(self.page_size)
            struct.pack_into(">I", page, 0, self.free_head)
            self.write_page(page_id, bytes(page))
            self.free_head = page_id
            self._write_header()

    def free_page_count(self) -> int:
        """Length of the free list (walks it; for tests/diagnostics)."""
        with self._lock:
            count = 0
            current = self.free_head
            while current != NO_PAGE:
                count += 1
                page = self.read_page(current)
                (current,) = struct.unpack_from(">I", page, 0)
            return count

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Flush OS buffers to stable storage."""
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            self._write_header()
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
