"""External merge sort over binding rows.

Milestone 3's strategy (a): "if we sort the tuples in the intermediary
relation R[α] accordingly, e.g. by implementing external sorting, we
suffer no further restrictions on how to evaluate the relational algebra
expression α."

Rows are sorted by the hierarchical document order key (the in-values of
the projection aliases, lexicographically).  Runs that exceed the
in-memory budget are written, one after the other, to the execution's
private :class:`~repro.physical.spill.SpillFile` and merged back in
blocks — the block-based writing the paper laments Berkeley DB made
difficult ("this made it difficult to have the students implement
external sort ... properly by the book").

Like every physical operator, the sort runs block-at-a-time: input rows
arrive in batches, buffer bytes are charged to the memory meter one block
at a time (and released even when the budget trips mid-batch) — during
the merge, one block per run — and the sorted output is re-blocked into
``ctx.batch_size`` slices.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from repro.physical.context import Bindings, ExecutionContext, NODE_BYTES
from repro.physical.operators import Batch, PhysicalOp, Row
from repro.physical.spill import Run, SpillFile


class ExternalSort(PhysicalOp):
    """Sort child rows by the in-values of ``key_aliases``.

    ``run_budget_rows`` bounds the in-memory run size; larger inputs spill
    sorted runs into a temporary file beside the document's database and
    k-way merge them.  The file is gone when the execution ends, however
    it ends.
    """

    def __init__(self, child: PhysicalOp, key_aliases: tuple[str, ...],
                 run_budget_rows: int = 10_000):
        self.child = child
        self.key_aliases = key_aliases
        self.run_budget_rows = run_budget_rows
        self.schema = child.schema
        self._key_positions = [child.schema.index(alias)
                               for alias in key_aliases]
        #: Filled after execution, for tests/ablations.
        self.spilled_runs = 0

    def _key(self, row: Row) -> tuple[int, ...]:
        return tuple(row[position].in_ for position in self._key_positions)

    def batches(self, ctx: ExecutionContext,
                bindings: Bindings) -> Iterator[Batch]:
        size = ctx.batch_size
        row_bytes = NODE_BYTES * max(1, len(self.schema))
        run_budget = max(1, self.run_budget_rows)
        spill_file: SpillFile | None = None
        runs: list[Run] = []
        buffer: list[tuple[tuple[int, ...], int, Row]] = []
        charged = 0
        sequence = 0
        self.spilled_runs = 0

        def spill() -> None:
            nonlocal charged, spill_file
            buffer.sort(key=lambda item: item[:2])
            if spill_file is None:
                spill_file = SpillFile(ctx.document.db.pager.path,
                                       len(self.schema))
            runs.append(spill_file.append([row for __, __, row in buffer]))
            self.spilled_runs += 1
            buffer.clear()
            ctx.meter.release(charged)
            charged = 0

        def read_back(run: Run) -> Iterator[Row]:
            for block in spill_file.blocks(run, ctx.document, size):
                held = row_bytes * len(block)
                try:
                    ctx.meter.charge(held)
                    yield from block
                finally:
                    ctx.meter.release(held)

        try:
            key = self._key
            for batch in self.child.batches(ctx, bindings):
                ctx.tick_batch(len(batch))
                # Buffer the batch in run-budget-sized takes: bytes are
                # charged per take (not per row), and runs keep exactly
                # the sizes the item-at-a-time sort produced.
                position = 0
                while position < len(batch):
                    room = run_budget - len(buffer)
                    take = batch[position:position + room]
                    position += len(take)
                    charged += row_bytes * len(take)
                    ctx.meter.charge(row_bytes * len(take))
                    for row in take:
                        buffer.append((key(row), sequence, row))
                        sequence += 1
                    if len(buffer) >= run_budget:
                        spill()

            if not runs:
                buffer.sort(key=lambda item: item[:2])
                rows = [row for __, __, row in buffer]
                for start in range(0, len(rows), size):
                    out = rows[start:start + size]
                    ctx.tick_batch(len(out))
                    yield out
                return
            if buffer:
                spill()
            out = []
            for row in heapq.merge(*map(read_back, runs), key=key):
                out.append(row)
                if len(out) >= size:
                    ctx.tick_batch(len(out))
                    yield out
                    out = []
            if out:
                ctx.tick_batch(len(out))
                yield out
        finally:
            ctx.meter.release(charged)
            if spill_file is not None:
                spill_file.close()

    def explain(self, indent: int = 0) -> str:
        pad = " " * indent
        keys = ", ".join(f"{alias}.in" for alias in self.key_aliases)
        return (f"{pad}ExternalSort({keys}){self._annotate()}\n"
                f"{self.child.explain(indent + 2)}")
