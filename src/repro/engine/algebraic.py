"""Milestones 3 & 4: the algebraic query engine.

Pipeline per query::

    XQ AST ─translate→ TPM ─(merge, eliminate)→ TPM' ─plan per PSX→
    physical plans ─execute→ binding tuples ─relfor body→ result nodes

Plans are built once per relfor (they depend only on the block's
structure); nested, un-merged relfors re-execute their plan per outer
binding — precisely the inefficiency the paper discusses for queries whose
relfors cannot be merged across constructors.

The relfor evaluation contract comes straight from the paper's semantics:
the PSX block yields the *set* of vartuple bindings, hierarchically sorted
in document order, and the body is evaluated per binding with results
concatenated.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

from repro.algebra.merge import (
    eliminate_redundant_relations,
    merge_relfors,
    promote_residuals,
)
from repro.algebra.tpm import (
    RelFor,
    TpmConstr,
    TpmEmpty,
    TpmExpr,
    TpmIf,
    TpmSequence,
    TpmText,
    TpmVarOut,
)
from repro.algebra.translate import translate
from repro.engine.navigational import NavigationalEvaluator
from repro.errors import XQEvalError
from repro.optimizer.planner import Planner, PlannerConfig
from repro.physical.materialize import instantiate_plan, reset_materializers
from repro.physical.context import (
    Bindings,
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    is_external_node,
    iter_blocks,
)
from repro.physical.operators import PhysicalOp
from repro.xasr.document import StoredDocument
from repro.xasr.schema import XasrNode
from repro.xmlkit.dom import Element, Node, Text
from repro.xq.ast import Query, ROOT_VAR


#: One physical plan per RelFor node of a compiled TPM tree, keyed by the
#: relfor's identity.  A plan set belongs to exactly one TPM tree and must
#: stay with it (a prepared query owns both), so the id-keys stay valid.
PlanSet = dict[int, PhysicalOp]


class AlgebraicEvaluator:
    """TPM-based evaluation with a configurable optimization level."""

    def __init__(self, document: StoredDocument,
                 config: PlannerConfig | None = None,
                 merge: bool = True,
                 eliminate_redundant: bool = True,
                 carry_out_values: bool = True):
        self.document = document
        self.config = config or PlannerConfig()
        self.merge = merge
        self.eliminate_redundant = eliminate_redundant
        self.carry_out_values = carry_out_values
        self.planner = Planner(document.statistics, self.config,
                               value_indexes=document.value_index_labels)
        self.last_tpm: TpmExpr | None = None
        # Guards lazy plan population: a shared PlanSet (one per
        # CompiledQuery) may be filled from several executing threads.
        self._plan_lock = threading.Lock()

    # -- compilation ---------------------------------------------------------

    def compile(self, query: Query) -> TpmExpr:
        """Translate and rewrite a query; plans are built lazily."""
        tpm = translate(query, carry_out_values=self.carry_out_values)
        if self.merge:
            tpm = merge_relfors(tpm)
        if self.eliminate_redundant:
            tpm = eliminate_redundant_relations(tpm)
        # Promotion is semantics-preserving (the typing check discharges
        # statically), so every algebraic engine applies it; what differs
        # per profile is whether the planner can *exploit* the resulting
        # value-join condition.
        tpm = promote_residuals(tpm)
        self.last_tpm = tpm
        return tpm

    def plan_for(self, relfor: RelFor,
                 plans: PlanSet | None = None) -> PhysicalOp:
        """The physical plan for one relfor, cached in ``plans`` if given.

        Thread-safe: double-checked under the evaluator's plan lock, so
        two sessions hitting the same not-yet-planned relfor of a shared
        compiled query agree on one plan instead of racing the dict.
        """
        if plans is None:
            return self.planner.plan(relfor.source)
        plan = plans.get(id(relfor))
        if plan is None:
            with self._plan_lock:
                plan = plans.get(id(relfor))
                if plan is None:
                    plan = self.planner.plan(relfor.source)
                    plans[id(relfor)] = plan
        return plan

    def explain(self, query: Query) -> str:
        """Human-readable TPM tree and physical plans for ``query``."""
        return self.explain_compiled(self.compile(query), {})

    def explain_compiled(self, tpm: TpmExpr, plans: PlanSet) -> str:
        """Explain an already-compiled TPM tree, reusing its plan set."""
        lines = [tpm.describe(), ""]
        for relfor in _iter_relfors(tpm):
            plan = self.plan_for(relfor, plans)
            vars_ = ", ".join(f"${v}" for v in relfor.vartuple)
            lines.append(f"plan for relfor ({vars_}):")
            lines.append(plan.explain(2))
            lines.append("")
        return "\n".join(lines).rstrip()

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, query: Query,
                 deadline: float | None = None,
                 memory_budget: int | None = None) -> list[Node]:
        """Run ``query`` and return the result sequence as DOM nodes."""
        return list(self.stream(self.compile(query), {},
                                deadline=deadline,
                                memory_budget=memory_budget))

    def stream(self, tpm: TpmExpr, plans: PlanSet,
               env: dict[str, XasrNode] | None = None,
               deadline: float | None = None,
               memory_budget: int | None = None,
               batch_size: int = DEFAULT_BATCH_SIZE,
               profiler=None, trace=None) -> Iterator[Node]:
        """Lazily evaluate a compiled TPM tree, reusing its plan set.

        ``env`` pre-binds external variables (prepared-query parameters).
        ``batch_size`` sets the block size the physical operator tree is
        pulled with (binding tuples travel between operators in batches
        of up to this many rows).  The shared plan set carries only the
        (expensive) planning result; each execution runs a private
        instance of every plan it touches
        (:func:`~repro.physical.materialize.instantiate_plan`), so
        concurrently open cursors over one prepared query never share
        materialised state.  An execution's intermediates are reset when
        the generator is exhausted *or closed early* — a half-consumed
        cursor releases its spill storage the moment it is closed.
        """
        ctx = ExecutionContext(self.document, deadline=deadline,
                               memory_budget=memory_budget,
                               batch_size=batch_size,
                               profiler=profiler, trace=trace)
        full_env: dict[str, XasrNode] = {ROOT_VAR: self.document.root()}
        if env:
            full_env.update(env)
        execution_plans: PlanSet = {}
        try:
            yield from self._eval(tpm, ctx, full_env, plans,
                                  execution_plans)
        finally:
            for plan in execution_plans.values():
                reset_materializers(plan)

    def stream_batches(self, tpm: TpmExpr, plans: PlanSet,
                       env: dict[str, XasrNode] | None = None,
                       deadline: float | None = None,
                       memory_budget: int | None = None,
                       batch_size: int = DEFAULT_BATCH_SIZE,
                       profiler=None, trace=None
                       ) -> Iterator[list[Node]]:
        """Batched evaluation: result nodes in blocks of ``batch_size``.

        The physical operator tree underneath runs block-at-a-time with
        the same ``batch_size``; this re-blocks the produced result nodes
        so the cursor layer can serve ``fetch(n)`` calls out of the
        current block without re-entering the pipeline.  Closing the
        returned generator tears the execution down exactly like closing
        :meth:`stream`.
        """
        nodes = self.stream(tpm, plans, env=env, deadline=deadline,
                            memory_budget=memory_budget,
                            batch_size=batch_size,
                            profiler=profiler, trace=trace)
        yield from iter_blocks(nodes, max(1, batch_size))

    def _eval(self, expr: TpmExpr, ctx: ExecutionContext,
              env: dict[str, XasrNode], plans: PlanSet,
              execution_plans: PlanSet) -> Iterator[Node]:
        if isinstance(expr, TpmEmpty):
            return
        if isinstance(expr, TpmText):
            yield Text(expr.text)
            return
        if isinstance(expr, TpmVarOut):
            try:
                node = env[expr.var]
            except KeyError:
                raise XQEvalError(f"unbound variable ${expr.var}") from None
            if is_external_node(node):
                yield Text(node.value)
                return
            yield self.document.subtree(node)
            return
        if isinstance(expr, TpmConstr):
            element = Element(expr.label)
            for item in self._eval(expr.body, ctx, env, plans, execution_plans):
                element.append(item)
            yield element
            return
        if isinstance(expr, TpmSequence):
            for part in expr.parts:
                yield from self._eval(part, ctx, env, plans, execution_plans)
            return
        if isinstance(expr, TpmIf):
            evaluator = NavigationalEvaluator(self.document,
                                              ticker=ctx.tick)
            if evaluator.condition(expr.cond, dict(env)):
                yield from self._eval(expr.body, ctx, env, plans, execution_plans)
            return
        if isinstance(expr, RelFor):
            plan = execution_plans.get(id(expr))
            if plan is None:
                # Planning is shared across executions; the executed tree
                # is a private instance so concurrent cursors over one
                # prepared query cannot share materialised state.
                plan = instantiate_plan(self.plan_for(expr, plans))
                execution_plans[id(expr)] = plan
                if ctx.profiler is not None:
                    label = ", ".join(f"${var}" for var in expr.vartuple)
                    ctx.profiler.register_plan(label or "()", plan)
            # The paper: an un-merged inner relfor "will be evaluated for
            # each new binding" — materialised intermediates belong to one
            # execution and are invalid once the environment changes.
            reset_materializers(plan)
            bindings = Bindings(env)
            # Binding tuples are pulled block-at-a-time: the operator
            # tree produces batches of up to ctx.batch_size rows, and the
            # relfor body is evaluated per row of the current batch.
            row_batches = plan.batches(ctx, bindings)
            if not expr.vartuple:
                # Nullary relfor: pure existence check — evaluate the body
                # once iff the condition relation is non-empty.
                try:
                    for batch in row_batches:
                        if batch:
                            yield from self._eval(expr.body, ctx, env,
                                                  plans, execution_plans)
                            break
                finally:
                    row_batches.close()
                return
            for batch in row_batches:
                for row in batch:
                    inner = dict(env)
                    for var, node in zip(expr.vartuple, row, strict=True):
                        inner[var] = node
                    yield from self._eval(expr.body, ctx, inner, plans,
                                          execution_plans)
            return
        raise XQEvalError(f"cannot evaluate TPM node {expr!r}")


def iter_relfors(expr: TpmExpr) -> Iterator[RelFor]:
    """All relfor nodes of a TPM tree, outermost first."""
    yield from _iter_relfors(expr)


def _iter_relfors(expr: TpmExpr) -> Iterator[RelFor]:
    if isinstance(expr, RelFor):
        yield expr
        yield from _iter_relfors(expr.body)
    elif isinstance(expr, TpmConstr):
        yield from _iter_relfors(expr.body)
    elif isinstance(expr, TpmSequence):
        for part in expr.parts:
            yield from _iter_relfors(part)
    elif isinstance(expr, TpmIf):
        yield from _iter_relfors(expr.body)


