"""Materialisation of intermediate results.

Milestone 3 explicitly allowed engines "to write to disk each intermediate
result, and re-read it whenever necessary as the input of a subsequent
operation".  :class:`Materializer` implements that: the first execution of
the wrapped child is written to a temporary file (or kept in memory below
a threshold), and every re-execution replays the stored rows.

This is what makes an *uncorrelated* inner side of a nested-loops join
affordable: the child computes once, rescans are sequential re-reads.
A materialised child must not depend on outer bindings; the planner only
wraps operators whose conditions reference constants and relfor-external
variables (fixed for the lifetime of one plan execution).

The cache is built and replayed block-at-a-time: memory-resident replays
are bulk slices of the cached row list (no per-row work at all), spill
replays read one batch per block, and the memory meter is charged once
per buffered batch.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator

from repro.physical.context import Bindings, ExecutionContext, NODE_BYTES
from repro.physical.operators import Batch, PhysicalOp, Row
from repro.physical.spill import SpillFile


class Materializer(PhysicalOp):
    """Cache the child's rows for cheap re-execution.

    ``memory_threshold_rows``: row counts up to this stay in a Python
    list (charged to the memory meter); beyond it, rows spill to a
    private :class:`~repro.physical.spill.SpillFile`, closed by
    :meth:`reset` — or at once, if the first pass is abandoned.

    A Materializer is the only stateful physical operator: its cache is
    valid for one plan execution (conditions below it may reference
    relfor-external variables, fixed per execution).  Concurrent
    executions of one compiled plan must therefore not share instances —
    see :func:`instantiate_plan`.
    """

    def __init__(self, child: PhysicalOp,
                 memory_threshold_rows: int = 2_000):
        self.child = child
        self.schema = child.schema
        self.memory_threshold_rows = memory_threshold_rows
        self._rows: list[Row] | None = None
        self._spilled: SpillFile | None = None
        self._charged = 0
        self._meter = None

    def reset(self) -> None:
        """Forget the cached result (used between relfor re-executions,
        when the outer environment may have changed)."""
        if self._spilled is not None:
            self._spilled.close()
        self._rows = None
        self._spilled = None
        # Release the cache's bytes against the meter that charged them
        # (mid-execution resets happen per relfor re-entry, within one
        # live context); a meter from a finished execution is inert, so
        # releasing on it is harmless either way.
        if self._charged and self._meter is not None:
            self._meter.release(self._charged)
        self._charged = 0
        self._meter = None

    def batches(self, ctx: ExecutionContext,
                bindings: Bindings) -> Iterator[Batch]:
        size = ctx.batch_size
        if self._rows is not None:
            rows = self._rows
            for start in range(0, len(rows), size):
                batch = rows[start:start + size]
                ctx.tick_batch(len(batch))
                yield batch
            return
        if self._spilled is not None:
            everything = (0, self._spilled.rows)
            for batch in self._spilled.blocks(everything, ctx.document,
                                              size):
                ctx.tick_batch(len(batch))
                yield batch
            return

        # A consumer may abandon this pipeline early (SemiJoin probes stop
        # at the first match); the cache is only installed on normal
        # completion so a partial pass never masquerades as the result.
        collected: list[Row] = []
        spill_file: SpillFile | None = None
        row_bytes = NODE_BYTES * max(1, len(self.schema))
        try:
            for batch in self.child.batches(ctx, bindings):
                ctx.tick_batch(len(batch))
                if spill_file is not None:
                    spill_file.append(batch)
                    yield batch
                    continue
                # Buffer in threshold-sized takes so the in-memory cache
                # (and its meter charge) never overshoots the spill
                # threshold by more than one row — a batch larger than
                # the remaining room must not trip a memory budget the
                # item-at-a-time engine survived by spilling.
                position = 0
                while position < len(batch):
                    room = (self.memory_threshold_rows + 1
                            - len(collected))
                    take = batch[position:position + room]
                    position += len(take)
                    self._meter = ctx.meter
                    self._charged += row_bytes * len(take)
                    # reprolint: disable=RL005 charge is retained with the
                    # cached rows and released by close() via self._meter
                    # and self._charged (or on spill below)
                    ctx.meter.charge(row_bytes * len(take))
                    collected.extend(take)
                    if len(collected) > self.memory_threshold_rows:
                        # Spill everything gathered so far; this batch's
                        # remainder and all later ones go to disk.
                        spill_file = SpillFile(ctx.document.db.pager.path,
                                               len(self.schema))
                        collected += batch[position:]
                        spill_file.append(collected)
                        collected = []
                        ctx.meter.release(self._charged)
                        self._charged = 0
                        break
                yield batch
        except BaseException:
            if spill_file is not None:
                spill_file.close()
            raise
        if spill_file is None:
            self._rows = collected
        else:
            self._spilled = spill_file

    def explain(self, indent: int = 0) -> str:
        pad = " " * indent
        return (f"{pad}Materialize{self._annotate()}\n"
                f"{self.child.explain(indent + 2)}")


def reset_materializers(plan) -> None:
    """Reset every :class:`Materializer` in a physical plan tree."""
    if isinstance(plan, Materializer):
        plan.reset()
    for attribute in ("child", "outer", "inner", "probe"):
        node = getattr(plan, attribute, None)
        if node is not None:
            reset_materializers(node)


def instantiate_plan(plan: PhysicalOp) -> PhysicalOp:
    """A per-execution instance of a compiled plan tree.

    Materialized caches may depend on the execution's external-variable
    bindings, so two concurrently open cursors over one prepared query
    must not share :class:`Materializer` state.  This returns a copy of
    the tree with fresh Materializers (empty caches); stateless subtrees
    are shared as-is, so instantiation costs a handful of object copies.
    """
    if isinstance(plan, Materializer):
        return Materializer(instantiate_plan(plan.child),
                            memory_threshold_rows=plan.memory_threshold_rows)
    replaced: dict[str, PhysicalOp] = {}
    for attribute in ("child", "outer", "inner", "probe"):
        node = getattr(plan, attribute, None)
        if node is not None:
            fresh = instantiate_plan(node)
            if fresh is not node:
                replaced[attribute] = fresh
    if not replaced:
        return plan
    clone = copy.copy(plan)
    for attribute, node in replaced.items():
        setattr(clone, attribute, node)
    return clone
