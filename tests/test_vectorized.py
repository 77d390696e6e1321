"""Block-at-a-time execution: operator batches and batched cursors.

Covers the vectorized protocol end to end: operators yield bounded,
order-preserving batches that flatten to exactly the item-at-a-time row
stream; the session cursor serves ``fetch(n)`` from its buffered block
for every relation of ``n`` to ``batch_size``; interleaved cursors from
one prepared query stay independent; and a ``ResourceLimitExceeded``
raised mid-batch releases the bytes the failing operator had charged.
"""

import pytest

from repro.algebra.ra import Attr, Compare, Const, EQ
from repro.errors import ResourceLimitExceeded
from repro.physical.context import (
    Bindings,
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
)
from repro.physical.materialize import Materializer
from repro.physical.operators import (
    ChildLookup,
    FullScan,
    IndexNestedLoopsJoin,
    LabelIndexScan,
    NestedLoopsJoin,
    ProjectBindings,
    SemiJoin,
)
from repro.physical.sort import ExternalSort
from repro.xasr import ELEMENT, StoredDocument, load_document
from repro.xasr.schema import RECORD_CODEC, decode_record
from repro.workloads.handmade import FIGURE2_XML


@pytest.fixture
def doc(database):
    load_document(database, "fig2", xml=FIGURE2_XML)
    return StoredDocument(database, "fig2")


def env_bindings(doc, **vars_):
    env = {"#root": doc.root()}
    env.update(vars_)
    return Bindings(env)


def _plans(doc):
    """A representative operator tree: scans, INL join, semi, project."""
    outer = LabelIndexScan("P", ELEMENT, "name", [])
    probe = ChildLookup("T", Attr("P", "in"), [])
    join = IndexNestedLoopsJoin(outer, probe)
    return [
        FullScan("A", []),
        FullScan("A", [Compare(Attr("A", "type"), EQ, Const(ELEMENT))]),
        join,
        SemiJoin(LabelIndexScan("P", ELEMENT, "name", []),
                 ChildLookup("T", Attr("P", "in"), [])),
        ProjectBindings(
            IndexNestedLoopsJoin(
                LabelIndexScan("P", ELEMENT, "name", []),
                ChildLookup("T", Attr("P", "in"), [])), ("P",)),
        NestedLoopsJoin(FullScan("B", []),
                        Materializer(FullScan("C", [])), []),
    ]


class TestOperatorBatches:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, DEFAULT_BATCH_SIZE])
    def test_batches_flatten_to_execute_rows(self, doc, batch_size):
        """Concatenated batches == the item-at-a-time row stream, and
        every batch respects the ``ctx.batch_size`` bound."""
        for plan in _plans(doc):
            reference = list(plan.execute(ExecutionContext(doc),
                                          env_bindings(doc)))
            ctx = ExecutionContext(doc, batch_size=batch_size)
            batches = list(plan.batches(ctx, env_bindings(doc)))
            assert all(batch for batch in batches), "no empty batches"
            assert all(len(batch) <= batch_size for batch in batches)
            flattened = [row for batch in batches for row in batch]
            assert flattened == reference

    def test_batch_size_one_is_item_at_a_time(self, doc):
        ctx = ExecutionContext(doc, batch_size=1)
        batches = list(FullScan("A", []).batches(ctx, env_bindings(doc)))
        assert all(len(batch) == 1 for batch in batches)

    def test_external_sort_reblocks_output(self, doc):
        ctx = ExecutionContext(doc, batch_size=4)
        sort = ExternalSort(FullScan("A", []), ("A",), run_budget_rows=3)
        batches = list(sort.batches(ctx, env_bindings(doc)))
        assert sort.spilled_runs >= 3
        assert all(len(batch) <= 4 for batch in batches)
        rows = [row for batch in batches for row in batch]
        assert [row[0].in_ for row in rows] == sorted(
            row[0].in_ for row in rows)

    def test_decode_record_fast_path_matches_codec(self, doc):
        """The precompiled scan decode agrees with the generic codec."""
        for __, raw in doc.primary.items():
            assert decode_record(raw) == RECORD_CODEC.decode(raw)


class TestMidBatchResourceLimits:
    def test_sort_releases_charged_bytes_mid_batch(self, doc):
        """A memory budget tripped while buffering a batch releases the
        bytes already charged — the meter returns to zero once the
        pipeline unwinds."""
        ctx = ExecutionContext(doc, memory_budget=200, batch_size=4)
        sort = ExternalSort(FullScan("A", []), ("A",),
                            run_budget_rows=10**6)
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            list(sort.batches(ctx, env_bindings(doc)))
        assert excinfo.value.kind == "memory"
        assert ctx.meter.current == 0

    def test_hash_dedup_releases_charged_bytes_mid_batch(self, doc):
        ctx = ExecutionContext(doc, memory_budget=200, batch_size=4)
        project = ProjectBindings(FullScan("A", []), ("A",),
                                  assume_sorted=False)
        with pytest.raises(ResourceLimitExceeded):
            list(project.batches(ctx, env_bindings(doc)))
        assert ctx.meter.current == 0

    def test_materializer_releases_on_reset_after_mid_batch_limit(
            self, doc):
        ctx = ExecutionContext(doc, memory_budget=200, batch_size=4)
        mat = Materializer(FullScan("A", []),
                           memory_threshold_rows=10**6)
        with pytest.raises(ResourceLimitExceeded):
            list(mat.batches(ctx, env_bindings(doc)))
        assert ctx.meter.current > 0  # cache bytes still held
        mat.reset()
        assert ctx.meter.current == 0

    def test_materializer_spills_before_tripping_budget(self, doc):
        """A batch larger than the remaining in-memory room spills at
        the threshold instead of charging the whole batch first — a
        budget the item-at-a-time engine survived must still pass."""
        from repro.physical.context import NODE_BYTES

        # Threshold 3 → peak in-memory charge is 4 rows; budget allows
        # exactly that, while one whole 9-row batch would blow it.
        ctx = ExecutionContext(doc, memory_budget=NODE_BYTES * 4,
                               batch_size=256)
        mat = Materializer(FullScan("A", []), memory_threshold_rows=3)
        rows = [row for batch in mat.batches(ctx, env_bindings(doc))
                for row in batch]
        assert [row[0].in_ for row in rows] == [1, 2, 3, 4, 5, 8, 9,
                                                13, 14]
        # Replay comes off the spill file, same rows.
        replay = [row for batch in mat.batches(ctx, env_bindings(doc))
                  for row in batch]
        assert replay == rows
        mat.reset()


QUERY_MANY = "for $x in //* return <t/>"


class TestBatchedCursor:
    def _expected(self, fig2):
        return [node.name
                for node in fig2.session().execute("fig2", QUERY_MANY)]

    def test_fetch_smaller_than_batch_size(self, fig2):
        expected = self._expected(fig2)
        session = fig2.session(batch_size=DEFAULT_BATCH_SIZE)
        with session.prepare("fig2", QUERY_MANY).execute() as cursor:
            got = []
            while True:
                part = cursor.fetch(2)   # n << batch_size
                if not part:
                    break
                assert len(part) <= 2
                got.extend(node.name for node in part)
        assert got == expected

    def test_fetch_larger_than_batch_size(self, fig2):
        expected = self._expected(fig2)
        session = fig2.session(batch_size=2)
        with session.prepare("fig2", QUERY_MANY).execute() as cursor:
            got = cursor.fetch(10_000)   # n >> batch_size
        assert [node.name for node in got] == expected

    def test_fetch_exact_multiple_and_remainder(self, fig2):
        expected = self._expected(fig2)
        session = fig2.session(batch_size=3)
        with session.prepare("fig2", QUERY_MANY).execute() as cursor:
            first = cursor.fetch(3)
            rest = cursor.fetchall()
        assert [n.name for n in first + rest] == expected

    def test_iteration_interleaved_with_fetch(self, fig2):
        expected = self._expected(fig2)
        session = fig2.session(batch_size=2)
        with session.prepare("fig2", QUERY_MANY).execute() as cursor:
            got = [next(cursor).name]
            got.extend(node.name for node in cursor.fetch(3))
            got.extend(node.name for node in cursor)
        assert got == expected

    def test_per_execute_batch_size_override(self, fig2):
        prepared = fig2.session().prepare("fig2", QUERY_MANY)
        expected = self._expected(fig2)
        for batch_size in (1, 2, 7, 512):
            with prepared.execute(batch_size=batch_size) as cursor:
                assert [n.name for n in cursor.fetchall()] == expected

    def test_batch_size_must_be_positive(self, fig2):
        with pytest.raises(ValueError):
            fig2.session(batch_size=0)
        prepared = fig2.session().prepare("fig2", QUERY_MANY)
        with pytest.raises(ValueError):
            prepared.execute(batch_size=-1)

    @pytest.mark.parametrize("profile", ["m3", "m4"])
    def test_interleaved_cursors_one_prepared_query(self, loaded,
                                                    profile):
        """Two cursors from one PreparedQuery, drained in alternating
        unequal fetches at different block sizes, both see the full
        result — batching never leaks state across executions."""
        query = ("for $a in //article return for $t in $a/title "
                 "return $t")
        expected = loaded.session(profile=profile).query("dblp", query)
        prepared = loaded.session(profile=profile).prepare("dblp", query)
        first = prepared.execute(batch_size=3)
        second = prepared.execute(batch_size=5)
        from_first, from_second = [], []
        while True:
            part_a = first.fetch(2)
            part_b = second.fetch(7)
            from_first.extend(part_a)
            from_second.extend(part_b)
            if not part_a and not part_b:
                break
        from repro.xmlkit.serializer import serialize

        assert "".join(serialize(n) for n in from_first) == expected
        assert "".join(serialize(n) for n in from_second) == expected

    def test_resource_limit_surfaces_on_fetch(self, loaded):
        """A budget tripped inside the pipeline propagates out of the
        cursor fetch, and the cursor still closes cleanly."""
        query = ("for $x in //author return for $y in //author "
                 "return <t/>")
        session = loaded.session(profile="m4", batch_size=64)
        prepared = session.prepare("dblp", query)
        cursor = prepared.execute(time_limit=0.0)
        with pytest.raises(ResourceLimitExceeded):
            cursor.fetch(1)
        cursor.close()


class TestExplainReportsBatchSize:
    def test_plan_root_carries_batch_size(self, fig2):
        report = fig2.session().explain("fig2", "//name")
        assert "batch=256" in str(report)
        for plan_explain in report.plans:
            assert plan_explain.plan.batch_size == DEFAULT_BATCH_SIZE
