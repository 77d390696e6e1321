"""Execution context: resource limits, accounting, and name resolution.

The grading testbed of Section 4 ran engines under hard time and memory
budgets ("we allowed only 20 MB of memory and 2 or 30 minutes per query").
:class:`ExecutionContext` is where those budgets are enforced:

* operators call :meth:`ExecutionContext.tick` in their row loops, which
  cheaply checks the wall-clock deadline every few hundred rows;
* in-memory materialisation (sort buffers, cached inners, pending output)
  is charged to the memory meter, which raises the moment the budget is
  crossed.

:class:`Bindings` resolves the three operand kinds of algebraic conditions
during execution: relation attributes (from the current partial row),
external variable fields (from the enclosing relfor environment), and
constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

from repro.errors import ResourceLimitExceeded, XQEvalError
from repro.algebra.ra import (
    COLUMNS,
    Attr,
    Compare,
    Const,
    VarField,
    attr_value,
)
from repro.xasr.schema import TEXT, XasrNode

#: How many ticks pass between wall-clock checks.
_TICK_INTERVAL = 256

#: Default rows per block in the block-at-a-time execution protocol.
#: Small enough that a pending batch costs little memory, large enough
#: that per-batch Python overhead (generator resumption, deadline
#: checks) amortises to noise.  Tunable per session via
#: ``ExecutionOptions.batch_size``.
DEFAULT_BATCH_SIZE = 256


def iter_blocks(iterator, size: int):
    """Re-block a flat iterator into non-empty lists of ≤ ``size`` items.

    The one chunking loop of the block-at-a-time protocol, shared by the
    operator access paths and the result-node streams.  The source is
    closed when the consumer stops early (or the blocks run out), so
    abandoned pipelines tear down promptly.
    """
    try:
        while True:
            block = list(islice(iterator, size))
            if not block:
                return
            yield block
    finally:
        closer = getattr(iterator, "close", None)
        if closer is not None:
            closer()

#: The in-value reserved for synthetic external-variable nodes.  Stored
#: nodes have ``in ≥ 1`` (the virtual root takes 1), so 0 is free; every
#: access path degenerates correctly for it: ``children(0)`` can only
#: surface the root (filtered out by the element/text node tests), and the
#: ``0 < in < 0`` descendant range is empty.
EXTERNAL_IN = 0


def external_text_node(value: str) -> XasrNode:
    """A synthetic XASR text node carrying an external parameter value.

    Prepared-query bindings enter the storage-backed evaluators as these
    nodes: they compare like any stored text node (``type = TEXT``,
    ``value`` holds the text), navigation from them yields nothing (text
    nodes have no children or descendants), and serializing them emits the
    bare text.
    """
    return XasrNode(EXTERNAL_IN, EXTERNAL_IN, EXTERNAL_IN, TEXT, value)


def is_external_node(node: XasrNode) -> bool:
    """True for nodes created by :func:`external_text_node`."""
    return node.in_ == EXTERNAL_IN

#: Crude per-node charge for in-memory rows: five fields plus object
#: overhead, roughly matching sys.getsizeof of a small XasrNode.
NODE_BYTES = 96


class MemoryMeter:
    """Tracks engine-controlled memory against a budget (bytes)."""

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self.current = 0
        self.peak = 0

    def charge(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current
        if self.budget_bytes is not None \
                and self.current > self.budget_bytes:
            raise ResourceLimitExceeded("memory", self.budget_bytes,
                                        self.current)

    def release(self, nbytes: int) -> None:
        self.current = max(0, self.current - nbytes)


class ExecutionContext:
    """Per-query execution state shared by all operators.

    One context is built for every execution and driven by exactly one
    thread: the memory meter and tick counter are deliberately
    unsynchronized because they are never shared — two concurrent
    executions of the same prepared query get two contexts.
    """

    def __init__(self, document, deadline: float | None = None,
                 memory_budget: int | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 profiler=None, trace=None):
        self.document = document
        self.deadline = deadline
        self.meter = MemoryMeter(memory_budget)
        #: Rows per block pulled through the physical operator tree.
        self.batch_size = max(1, batch_size)
        #: EXPLAIN ANALYZE collector (``repro.obs.profile.PlanProfiler``)
        #: or None; every operator's ``batches`` hook checks this once
        #: per execution, so None is the zero-overhead fast path.
        self.profiler = profiler
        #: The query's ``repro.obs.trace.TraceContext``, when traced.
        self.trace = trace
        self._ticks = 0
        self.rows_produced = 0

    def tick(self) -> None:
        """Cheap cooperative cancellation point for operator loops.

        The wall clock is consulted on the first tick (so tiny queries
        under an already-expired deadline still notice) and every
        :data:`_TICK_INTERVAL` ticks thereafter.
        """
        self._ticks += 1
        if (self._ticks == 1 or self._ticks % _TICK_INTERVAL == 0) \
                and self.deadline is not None:
            now = time.monotonic()
            if now > self.deadline:
                raise ResourceLimitExceeded("time", self.deadline, now)

    def tick_batch(self, count: int) -> None:
        """Batched cancellation point, charged once per block of rows.

        Keeps :meth:`tick`'s cadence — the wall clock is read on the
        first charge and whenever the tick counter crosses a
        :data:`_TICK_INTERVAL` boundary — so driving the tree with tiny
        batches (``batch_size=1`` compatibility mode) costs no more
        clock reads than the item-at-a-time engine did, while a
        default-sized batch still gets exactly one check.
        """
        if count <= 0:
            return
        before = self._ticks
        self._ticks = before + count
        if self.deadline is not None \
                and (before == 0
                     or before // _TICK_INTERVAL
                     != self._ticks // _TICK_INTERVAL):
            now = time.monotonic()
            if now > self.deadline:
                raise ResourceLimitExceeded("time", self.deadline, now)


@dataclass
class Bindings:
    """Operand resolution: outer environment plus the current partial row.

    ``env`` maps external variable names to their bound nodes; ``schema``
    and ``row`` carry the aliases and nodes of the tuple built so far.
    """

    env: dict[str, XasrNode]
    schema: tuple[str, ...] = ()
    row: tuple[XasrNode, ...] = ()

    def extended(self, schema: tuple[str, ...],
                 row: tuple[XasrNode, ...]) -> "Bindings":
        """Bindings visible to an inner/probe operator during a join."""
        return Bindings(self.env, self.schema + schema, self.row + row)

    def node_for_alias(self, alias: str) -> XasrNode:
        try:
            return self.row[self.schema.index(alias)]
        except ValueError:
            raise XQEvalError(f"alias {alias!r} not bound; schema is "
                              f"{self.schema}") from None

    def node_for_var(self, var: str) -> XasrNode:
        try:
            return self.env[var]
        except KeyError:
            raise XQEvalError(f"unbound variable ${var}") from None

    # -- operand/condition evaluation ---------------------------------------

    def resolve(self, operand):
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, VarField):
            node = self.node_for_var(operand.var)
            return node.in_ if operand.fld == "in" else node.out
        if isinstance(operand, Attr):
            return attr_value(self.node_for_alias(operand.alias),
                              operand.column)
        raise XQEvalError(f"cannot resolve operand {operand!r}")

    def holds(self, condition: Compare) -> bool:
        left = self.resolve(condition.left)
        right = self.resolve(condition.right)
        if condition.op == "=":
            return left == right
        if condition.op == "<":
            return left < right
        return left > right


#: Column name → position in the :class:`XasrNode` named tuple (the
#: schema lists columns in field order), for direct-index access in
#: compiled predicates.
_COLUMN_INDEX = {column: index for index, column in enumerate(COLUMNS)}


def compile_single_alias_predicate(conditions, alias: str):
    """Compile conditions over one alias into ``f(node, bindings) -> bool``.

    The conditions may also reference constants and external variables
    (resolved through the bindings); attributes must all belong to
    ``alias``.  Compilation specialises the common shapes — constants are
    bound at compile time and the alias's columns are read by tuple index
    — because the result runs once per scanned node in the batched hot
    loops.
    """
    extractors = []
    for condition in conditions:
        extractors.append(_compile_condition(condition, alias))

    if not extractors:
        return lambda node, bindings: True
    if len(extractors) == 1:
        return extractors[0]

    def predicate(node: XasrNode, bindings: Bindings) -> bool:
        return all(check(node, bindings) for check in extractors)

    return predicate


def _compile_condition(condition: Compare, alias: str):
    def classify(operand):
        if isinstance(operand, Attr) and operand.alias == alias:
            return "column", _COLUMN_INDEX[operand.column]
        if isinstance(operand, Const):
            return "const", operand.value
        return "resolve", operand

    left_kind, left = classify(condition.left)
    right_kind, right = classify(condition.right)
    op = condition.op

    if left_kind == "column" and right_kind == "const":
        if op == "=":
            return lambda node, bindings: node[left] == right
        if op == "<":
            return lambda node, bindings: node[left] < right
        return lambda node, bindings: node[left] > right
    if left_kind == "const" and right_kind == "column":
        if op == "=":
            return lambda node, bindings: left == node[right]
        if op == "<":
            return lambda node, bindings: left < node[right]
        return lambda node, bindings: left > node[right]
    if left_kind == "column" and right_kind == "column":
        if op == "=":
            return lambda node, bindings: node[left] == node[right]
        if op == "<":
            return lambda node, bindings: node[left] < node[right]
        return lambda node, bindings: node[left] > node[right]

    def value_of(kind, payload, node: XasrNode, bindings: Bindings):
        if kind == "column":
            return node[payload]
        if kind == "const":
            return payload
        return bindings.resolve(payload)

    def check(node: XasrNode, bindings: Bindings) -> bool:
        left_value = value_of(left_kind, left, node, bindings)
        right_value = value_of(right_kind, right, node, bindings)
        if op == "=":
            return left_value == right_value
        if op == "<":
            return left_value < right_value
        return left_value > right_value

    return check
