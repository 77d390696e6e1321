"""Scratch storage for sort runs and materialised intermediates.

Milestone 3 lets an engine "write to disk each intermediate result, and
re-read it whenever necessary".  Such a result is written once, read back
front to back and never updated, so it needs nothing a page store offers:
a :class:`SpillFile` is one anonymous temporary file beside the database
file (where the write-ahead log already lives), private to the operator
execution that opened it.  It never touches the database file, the buffer
pool or the catalog; it has no name, so closing it — or the process dying
— leaves nothing behind.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterator
from itertools import islice

from repro.errors import StorageError
from repro.physical.operators import Row

#: A stored row sequence: ``(first row, row count)``.
Run = tuple[int, int]

_IN = array("I").itemsize


class SpillFile:
    """Append-only rows of a fixed ``width``, stored as their in-values.

    Only the in-values are kept; nodes are re-fetched on the way back.
    That keeps a row at ``width`` machine words however long its text
    values are, at the price of one primary lookup per node on re-read —
    exactly the re-read cost the milestone 3 materialising engines paid.
    """

    def __init__(self, database_path: str, width: int):
        # Imported at the first spill: most server processes never spill,
        # and tempfile drags in shutil and random.
        import tempfile

        self._file = tempfile.TemporaryFile(
            dir=os.path.dirname(os.path.abspath(database_path)))
        self._row_bytes = width * _IN
        #: Rows stored so far; ``(0, rows)`` is the run of all of them.
        self.rows = 0

    def append(self, rows: list[Row]) -> Run:
        """Store ``rows`` behind everything stored so far."""
        self._file.write(
            array("I", [node.in_ for row in rows for node in row]))
        self._file.flush()
        run = (self.rows, len(rows))
        self.rows += len(rows)
        return run

    def blocks(self, run: Run, document,
               block_rows: int) -> Iterator[list[Row]]:
        """Read ``run`` back in lists of at most ``block_rows`` rows."""
        first, remaining = run
        row_bytes = self._row_bytes
        width = row_bytes // _IN
        fetch = document.node
        descriptor = self._file.fileno()
        while remaining:
            take = min(remaining, block_rows)
            raw = os.pread(descriptor, take * row_bytes, first * row_bytes)
            if len(raw) != take * row_bytes:
                raise StorageError(f"spill file is {len(raw)} bytes short "
                                   f"at row {first}")
            values = array("I")
            values.frombytes(raw)
            nodes = iter([fetch(value) for value in values])
            yield [tuple(islice(nodes, width)) for __ in range(take)]
            first += take
            remaining -= take

    def close(self) -> None:
        self._file.close()
