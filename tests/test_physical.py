"""Physical operator tests over a small loaded document."""

import pytest

from repro.algebra.ra import Attr, Compare, Const, EQ, VarField
from repro.errors import ResourceLimitExceeded
from repro.physical.context import Bindings, ExecutionContext, MemoryMeter
from repro.physical.materialize import Materializer, reset_materializers
from repro.physical.operators import (
    ChildLookup,
    ConstantRow,
    Filter,
    FullScan,
    IndexNestedLoopsJoin,
    LabelIndexScan,
    NestedLoopsJoin,
    PrimaryLookup,
    PrimaryRangeScan,
    ProjectBindings,
    SemiJoin,
    ValueIndexProbe,
)
from repro.physical.sort import ExternalSort
from repro.xasr import ELEMENT, TEXT, StoredDocument, load_document
from repro.workloads.handmade import FIGURE2_XML


@pytest.fixture
def doc(database):
    load_document(database, "fig2", xml=FIGURE2_XML)
    return StoredDocument(database, "fig2")


@pytest.fixture
def ctx(doc):
    return ExecutionContext(doc)


def env_bindings(doc, **vars_):
    env = {"#root": doc.root()}
    env.update(vars_)
    return Bindings(env)


def run(op, ctx, bindings):
    return list(op.execute(ctx, bindings))


class TestAccessPaths:
    def test_full_scan_unfiltered(self, doc, ctx):
        rows = run(FullScan("A", []), ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [1, 2, 3, 4, 5, 8, 9, 13,
                                                14]

    def test_full_scan_with_predicate(self, doc, ctx):
        conds = [Compare(Attr("A", "value"), EQ, Const("name"))]
        rows = run(FullScan("A", conds), ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_label_index_scan(self, doc, ctx):
        op = LabelIndexScan("A", ELEMENT, "name", [])
        rows = run(op, ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_label_index_scan_text(self, doc, ctx):
        op = LabelIndexScan("T", TEXT, "Bob", [])
        rows = run(op, ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [9]

    def test_primary_lookup_hit_and_miss(self, doc, ctx):
        op = PrimaryLookup("A", Const(2), [])
        assert [r[0].value for r in run(op, ctx, env_bindings(doc))] == \
            ["journal"]
        miss = PrimaryLookup("A", Const(6), [])
        assert run(miss, ctx, env_bindings(doc)) == []

    def test_primary_range_scan_descendants(self, doc, ctx):
        journal = doc.node(2)
        op = PrimaryRangeScan("D", VarField("x", "in"),
                              VarField("x", "out"), [])
        rows = run(op, ctx, env_bindings(doc, x=journal))
        assert [row[0].in_ for row in rows] == [3, 4, 5, 8, 9, 13, 14]

    def test_child_lookup(self, doc, ctx):
        op = ChildLookup("C", Const(3), [])
        rows = run(op, ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_value_index_probe(self, doc, ctx):
        ana = doc.node(5)
        op = ValueIndexProbe("T", TEXT, VarField("t", "in"), [])
        # value_operand resolving to a non-string is skipped; use an
        # Attr-style probe via bindings row instead:
        probe = ValueIndexProbe("T", TEXT, Attr("S", "value"), [])
        bindings = env_bindings(doc).extended(("S",), (ana,))
        rows = list(probe.execute(ctx, bindings))
        assert [row[0].in_ for row in rows] == [5]


class TestJoins:
    def test_nested_loops_join_with_condition(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        inner = FullScan("T", [Compare(Attr("T", "type"), EQ, Const(2))])
        join = NestedLoopsJoin(outer, inner, [
            Compare(Attr("T", "parent_in"), EQ, Attr("P", "in"))])
        rows = run(join, ctx, env_bindings(doc))
        assert [(p.in_, t.in_) for p, t in rows] == [(4, 5), (8, 9)]

    def test_cross_product_when_no_conditions(self, doc, ctx):
        outer = LabelIndexScan("A", ELEMENT, "name", [])
        inner = LabelIndexScan("B", ELEMENT, "name", [])
        rows = run(NestedLoopsJoin(outer, inner, []), ctx,
                   env_bindings(doc))
        assert len(rows) == 4

    def test_index_nested_loops_join(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = ChildLookup("T", Attr("P", "in"),
                            [Compare(Attr("T", "type"), EQ, Const(2))])
        rows = run(IndexNestedLoopsJoin(outer, probe), ctx,
                   env_bindings(doc))
        assert [(p.in_, t.in_) for p, t in rows] == [(4, 5), (8, 9)]

    def test_semi_join_keeps_outer_schema(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = ChildLookup("T", Attr("P", "in"), [])
        semi = SemiJoin(outer, probe)
        rows = run(semi, ctx, env_bindings(doc))
        assert semi.schema == ("P",)
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_semi_join_filters_nonmatching(self, doc, ctx):
        outer = FullScan("E", [Compare(Attr("E", "type"), EQ, Const(1))])
        probe = ChildLookup("T", Attr("E", "in"),
                            [Compare(Attr("T", "value"), EQ,
                                     Const("Ana"))])
        rows = run(SemiJoin(outer, probe), ctx, env_bindings(doc))
        assert [row[0].value for row in rows] == ["name"]

    def test_join_order_is_lexicographic(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = PrimaryRangeScan("D", Attr("P", "in"), Attr("P", "out"),
                                 [])
        rows = run(IndexNestedLoopsJoin(outer, probe), ctx,
                   env_bindings(doc))
        keys = [(p.in_, d.in_) for p, d in rows]
        assert keys == sorted(keys)


class TestProjectionAndFilter:
    def test_filter(self, doc, ctx):
        scan = FullScan("A", [])
        out = Filter(scan, [Compare(Attr("A", "type"), EQ, Const(2))])
        rows = run(out, ctx, env_bindings(doc))
        assert all(row[0].type == 2 for row in rows)

    def test_project_one_pass_dedup(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = ChildLookup("T", Attr("P", "in"), [])
        join = IndexNestedLoopsJoin(outer, probe)
        project = ProjectBindings(join, ("P",), assume_sorted=True)
        rows = run(project, ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_project_hash_dedup(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = ChildLookup("T", Attr("P", "in"), [])
        join = IndexNestedLoopsJoin(outer, probe)
        project = ProjectBindings(join, ("P",), assume_sorted=False)
        rows = run(project, ctx, env_bindings(doc))
        assert [row[0].in_ for row in rows] == [4, 8]

    def test_constant_row(self, doc, ctx):
        assert run(ConstantRow(), ctx, env_bindings(doc)) == [()]


class TestSortAndMaterialize:
    def test_external_sort_in_memory(self, doc, ctx):
        scan = FullScan("A", [])
        sort = ExternalSort(scan, ("A",), run_budget_rows=1000)
        rows = run(sort, ctx, env_bindings(doc))
        assert sort.spilled_runs == 0
        assert [row[0].in_ for row in rows] == sorted(
            row[0].in_ for row in rows)

    def test_external_sort_spills(self, doc, ctx):
        scan = FullScan("A", [])
        sort = ExternalSort(scan, ("A",), run_budget_rows=3)
        rows = run(sort, ctx, env_bindings(doc))
        assert sort.spilled_runs >= 3
        assert [row[0].in_ for row in rows] == [1, 2, 3, 4, 5, 8, 9, 13,
                                                14]

    def test_external_sort_cleans_temporaries(self, doc, ctx):
        before = set(doc.db.list_names())
        sort = ExternalSort(FullScan("A", []), ("A",), run_budget_rows=2)
        run(sort, ctx, env_bindings(doc))
        assert set(doc.db.list_names()) == before

    def test_materializer_caches(self, doc, ctx):
        scan = FullScan("A", [])
        mat = Materializer(scan)
        first = run(mat, ctx, env_bindings(doc))
        misses_after_first = ctx.document.db.stats.misses
        second = run(mat, ctx, env_bindings(doc))
        assert first == second
        # Replay touches no new pages beyond what is cached in memory.
        assert ctx.document.db.stats.misses == misses_after_first

    def test_materializer_spills_beyond_threshold(self, doc, ctx):
        mat = Materializer(FullScan("A", []), memory_threshold_rows=3)
        first = run(mat, ctx, env_bindings(doc))
        second = run(mat, ctx, env_bindings(doc))
        assert [r[0].in_ for r in first] == [r[0].in_ for r in second]
        reset_materializers(mat)

    def test_materializer_partial_consumption_not_cached(self, doc, ctx):
        mat = Materializer(FullScan("A", []))
        iterator = mat.execute(ctx, env_bindings(doc))
        next(iterator)
        iterator.close()
        assert run(mat, ctx, env_bindings(doc))  # full result, not 1 row

    def test_reset_materializers_walks_tree(self, doc, ctx):
        mat = Materializer(FullScan("A", []))
        join = NestedLoopsJoin(FullScan("B", []), mat, [])
        run(join, ctx, env_bindings(doc))
        reset_materializers(join)
        assert mat._rows is None

    def test_reset_clears_charged_bytes(self, doc, ctx):
        """Reset releases the cache's bytes against the meter that
        charged them (per-relfor-re-entry resets happen mid-execution,
        within one live context) and zeroes its own counter, so budgets
        are neither over- nor under-enforced across resets."""
        mat = Materializer(FullScan("A", []))
        run(mat, ctx, env_bindings(doc))
        assert mat._charged > 0
        assert ctx.meter.current == mat._charged
        mat.reset()
        assert mat._charged == 0
        assert ctx.meter.current == 0

    def test_instantiate_plan_isolates_materializer_state(self, doc, ctx):
        from repro.physical.materialize import instantiate_plan

        mat = Materializer(FullScan("A", []))
        join = NestedLoopsJoin(FullScan("B", []), mat, [])
        clone = instantiate_plan(join)
        assert clone is not join
        assert clone.inner is not mat
        run(clone, ctx, env_bindings(doc))
        assert clone.inner._rows is not None
        assert mat._rows is None  # original untouched
        # Stateless trees are shared, not copied.
        scan = FullScan("A", [])
        assert instantiate_plan(scan) is scan


class TestResourceLimits:
    def test_time_limit_interrupts(self, doc):
        ctx = ExecutionContext(doc, deadline=0.0)  # already expired
        scan = FullScan("A", [])
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            for __ in range(1000):
                list(scan.execute(ctx, env_bindings(doc)))
        assert excinfo.value.kind == "time"

    def test_memory_meter_raises_over_budget(self):
        meter = MemoryMeter(budget_bytes=100)
        meter.charge(50)
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            meter.charge(51)
        assert excinfo.value.kind == "memory"

    def test_memory_meter_tracks_peak(self):
        meter = MemoryMeter()
        meter.charge(100)
        meter.release(40)
        meter.charge(10)
        assert meter.peak == 100
        assert meter.current == 70

    def test_materializer_charges_meter(self, doc):
        ctx = ExecutionContext(doc, memory_budget=50)  # absurdly small
        mat = Materializer(FullScan("A", []), memory_threshold_rows=10**6)
        with pytest.raises(ResourceLimitExceeded):
            run(mat, ctx, env_bindings(doc))


class TestExplain:
    def test_every_operator_explains(self, doc, ctx):
        outer = LabelIndexScan("P", ELEMENT, "name", [])
        probe = ChildLookup("T", Attr("P", "in"), [])
        plan = ProjectBindings(
            SemiJoin(IndexNestedLoopsJoin(outer, probe),
                     PrimaryRangeScan("D", Attr("P", "in"),
                                      Attr("P", "out"), [])),
            ("P",))
        text = plan.explain()
        for fragment in ("ProjectBindings", "SemiJoin",
                         "IndexNestedLoopsJoin", "LabelIndexScan",
                         "ChildLookup", "PrimaryRangeScan"):
            assert fragment in text
