"""End-to-end observability: traces, ANALYZE profiles, metrics.

The claims under test, bottom-up:

* the moved ``LatencyHistogram`` handles its edge cases (empty
  snapshots, single-sample p99, values past the top log2 bucket);
* ``MetricsRegistry`` flattens nested producer snapshots, survives a
  raising producer, and renders a stable Prometheus-style page;
* ``Span``/``TraceContext`` round-trip over their wire payloads and
  stitch remote trees with ``attach``;
* ``explain(analyze=True)`` / ``Cursor.profile()`` report per-operator
  batches, rows, wall time and memory, and cost nothing when off;
* a traced query over one ``NetworkServer`` returns the server's span
  tree on the final page, grafted under the client's context;
* a traced query through a sharded cluster — in-process and as the
  real ``python -m repro.shard`` process — yields ONE stitched tree:
  client span → mediator span → per-shard wire spans → per-operator
  ANALYZE profiles (the PR's acceptance criterion);
* the METRICS frame serves every layer's counters off one page, and
  the slow-query log emits a JSON line with the span tree attached.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import XmlDbms
from repro.errors import ProtocolError
from repro.net import NetClient, NetworkServer
from repro.net.protocol import MsgKind
from repro.obs import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    TraceContext,
)
from repro.obs.__main__ import pretty
from repro.shard import ShardedServer


def items_xml(count, tag="item"):
    return ("<r>"
            + "".join(f"<{tag}>v{i}</{tag}>" for i in range(count))
            + "</r>")


# -- LatencyHistogram edge cases ---------------------------------------------


class TestLatencyHistogram:

    def test_empty_percentiles_are_zero(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.50) == 0.0
        assert histogram.percentile(0.99) == 0.0
        snapshot = histogram.snapshot()
        assert snapshot.count == 0
        assert snapshot.p99_ms == 0.0
        assert snapshot.max_ms == 0.0
        assert snapshot.as_dict()["mean_ms"] == 0.0

    def test_single_sample_percentiles_are_exact(self):
        histogram = LatencyHistogram()
        histogram.record(0.005)
        # Any fraction maps to at least rank 1; the bucket upper bound
        # clamps into [min, max] = [0.005, 0.005], so exact.
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.percentile(fraction) == pytest.approx(0.005)
        assert histogram.snapshot().p99_ms == pytest.approx(5.0)

    def test_value_past_top_bucket_clamps_to_true_max(self):
        histogram = LatencyHistogram()
        # 2**70 µs is far beyond bucket 63; it must land in the last
        # bucket and still report the recorded value, not the bound.
        huge = float(2 ** 70) / 1e6
        histogram.record(huge)
        assert histogram.percentile(0.99) == pytest.approx(huge)
        assert histogram.max == pytest.approx(huge)

    def test_percentiles_stay_inside_observed_range(self):
        histogram = LatencyHistogram()
        values = [0.0001 * (i + 1) for i in range(100)]
        for value in values:
            histogram.record(value)
        for fraction in (0.01, 0.5, 0.9, 0.99):
            estimate = histogram.percentile(fraction)
            assert min(values) <= estimate <= max(values)
        # Upper-bound estimator: never below the true quantile's bucket.
        assert histogram.percentile(0.99) >= values[94]

    def test_sub_microsecond_clamps_to_first_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        histogram.record(1e-9)
        assert histogram.count == 2
        assert histogram.percentile(0.5) >= 0.0
        assert histogram.mean == pytest.approx(5e-10)


# -- the metrics registry ----------------------------------------------------


class TestMetricsRegistry:

    def test_flattens_nested_numeric_leaves(self):
        registry = MetricsRegistry()
        registry.register("layer", lambda: {
            "count": 3,
            "nested": {"hit_rate": 0.5, "name": "skipped",
                       "flag": True, "none": None, "list": [1, 2]},
        })
        collected = registry.collect()
        assert collected["layer.count"] == 3
        assert collected["layer.nested.hit_rate"] == 0.5
        assert not any("name" in key or "flag" in key or "list" in key
                       for key in collected)

    def test_bare_number_and_callable_instruments(self):
        registry = MetricsRegistry()
        counter = Counter()
        counter.inc(7)
        gauge = Gauge()
        gauge.set(2.5)
        registry.register("hits", counter)
        registry.register("depth", gauge)
        collected = registry.collect()
        assert collected["hits"] == 7
        assert collected["depth"] == 2.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_raising_producer_is_skipped_and_counted(self):
        registry = MetricsRegistry()
        registry.register("good", lambda: {"value": 1})
        registry.register("bad", lambda: 1 / 0)
        collected = registry.collect()
        assert collected["good.value"] == 1
        assert collected["registry.producer_errors"] == 1
        assert registry.collect()["registry.producer_errors"] == 2

    def test_render_text_is_sorted_and_sanitized(self):
        registry = MetricsRegistry()
        registry.register("a.b", lambda: {"x-y": 1})
        registry.register("z", lambda: 2)
        text = registry.render_text()
        lines = text.strip().splitlines()
        assert "repro_a_b_x_y 1" in lines
        assert "repro_z 2" in lines
        assert lines == sorted(lines)

    def test_register_replaces_and_unregister_drops(self):
        registry = MetricsRegistry()
        registry.register("p", lambda: 1)
        registry.register("p", lambda: 2)
        assert registry.collect()["p"] == 2
        registry.unregister("p")
        registry.unregister("p")     # missing is not an error
        assert "p" not in registry.collect()
        with pytest.raises(ValueError):
            registry.register("", lambda: 0)


# -- spans and trace contexts ------------------------------------------------


class TestTrace:

    def test_span_tree_round_trips_through_dict(self):
        root = Span("root", {"k": 1})
        child = root.child("child", step=2)
        child.event("done", duration_ms=1.5)
        child.end(rows=3)
        root.end()
        rebuilt = Span.from_dict(root.as_dict())
        assert rebuilt.name == "root"
        assert rebuilt.attributes == {"k": 1}
        assert rebuilt.children[0].attributes == {"step": 2, "rows": 3}
        assert rebuilt.find("done").duration_ms == 1.5
        assert [span.name for span in rebuilt.walk()] == [
            "root", "child", "done"]

    def test_end_is_idempotent_but_merges_attributes(self):
        span = Span("s")
        span.end(first=1)
        duration = span.duration_ms
        span.end(second=2)
        assert span.duration_ms == duration
        assert span.attributes == {"first": 1, "second": 2}

    def test_context_payload_round_trip(self):
        trace = TraceContext("client", deadline=time.monotonic() + 5.0)
        payload = trace.as_payload()
        assert payload["id"] == trace.trace_id
        assert 0 < payload["time_left_ms"] <= 5000
        remote = TraceContext.from_payload(payload, name="shard",
                                           document="d")
        assert remote.trace_id == trace.trace_id
        assert remote.root.name == "shard"
        assert remote.root.attributes["document"] == "d"
        assert remote.root.attributes["time_left_ms"] > 0

    def test_span_stack_and_attach(self):
        trace = TraceContext("query")
        with trace.span("outer") as outer:
            assert trace.current is outer
            trace.event("tick", duration_ms=0.1)
            trace.attach([{"name": "remote", "duration_ms": 2.0}])
        assert trace.current is trace.root
        assert outer.find("remote").duration_ms == 2.0
        assert outer.duration_ms is not None

    def test_close_is_re_callable_and_carries_trace_id(self):
        trace = TraceContext("query", trace_id="abc123")
        first = trace.close(rows=1)
        second = trace.close()
        assert first[0]["trace_id"] == "abc123"
        assert second[0]["duration_ms"] == first[0]["duration_ms"]
        assert "abc123" in trace.render()


class TestSlowQueryLog:

    def test_threshold_filters_and_logs_json(self, caplog):
        log = SlowQueryLog(0.5)
        assert not log.observe({"document": "d", "seconds": 0.1})
        assert log.count == 0
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            assert log.observe({"document": "d", "seconds": 0.9},
                               spans=[{"name": "server"}])
        entry = json.loads(caplog.records[-1].getMessage())
        assert entry["event"] == "slow_query"
        assert entry["seconds"] == 0.9
        assert entry["trace"] == [{"name": "server"}]
        assert log.count == 1 and len(log.recent) == 1
        assert log() == {"slow_queries": 1}

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)


# -- EXPLAIN ANALYZE through the session -------------------------------------


class TestAnalyze:

    def test_explain_analyze_reports_operator_profiles(self, fig2):
        session = fig2.session()
        report = session.explain(
            "fig2", "for $n in //name return $n", analyze=True)
        assert report.profiles, "analyze produced no operator profiles"
        for profile in report.profiles:
            assert profile["batches"] >= 1
            assert profile["rows"] >= 0
            assert profile["wall_ns"] >= 0
            assert profile["memory_peak"] >= 0
            assert profile["op"]
        assert "analyze:" in str(report)

    def test_cursor_profile_after_drain(self, fig2):
        session = fig2.session()
        prepared = session.prepare("fig2",
                                   "for $n in //name return $n")
        with prepared.execute(analyze=True) as cursor:
            rows = cursor.fetchall()
            profiles = cursor.profile()
        assert rows
        assert profiles
        roots = [p for p in profiles if p["depth"] == 0]
        assert sum(p["rows"] for p in roots) >= len(rows) or any(
            p["rows"] for p in profiles)
        assert cursor.profile_text()

    def test_unprofiled_cursor_reports_none(self, fig2):
        session = fig2.session()
        prepared = session.prepare("fig2",
                                   "for $n in //name return $n")
        with prepared.execute() as cursor:
            cursor.fetchall()
            assert cursor.profile() is None
            assert cursor.profile_text() is None

    def test_session_execute_trace_includes_plan_spans(self, fig2):
        session = fig2.session()
        trace = TraceContext("test")
        rows = session.execute("fig2",
                               "for $n in //name return $n",
                               trace=trace)
        assert rows
        trace.root.end()
        execute = trace.root.find("execute")
        assert execute is not None
        assert execute.attributes["rows"] == len(rows)
        assert execute.find("plan") is not None


# -- one server over the wire ------------------------------------------------


@pytest.fixture
def net_server(dbms):
    dbms.load("r", xml=items_xml(40))
    server = NetworkServer(dbms, workers=2, page_size=8,
                           log_interval=0.0, slow_query_seconds=0.0)
    server.start()
    yield server
    server.stop()


class TestWireTracing:

    def test_traced_query_returns_stitched_spans(self, net_server):
        with NetClient(*net_server.address) as client:
            trace = TraceContext("client")
            cursor = client.execute("r", "for $i in //item return $i",
                                    trace=trace)
            rows = cursor.fetchall()
            trace.root.end()
        assert len(rows) == 40
        assert cursor.spans, "final page carried no spans"
        server_span = trace.root.find("server")
        assert server_span is not None
        assert server_span.attributes["rows"] == 40
        execute = server_span.find("execute")
        assert execute is not None
        assert execute.find("plan") is not None
        # The wire payload carries the trace id back on the root.
        assert cursor.spans[0]["trace_id"] == trace.trace_id

    def test_untraced_query_has_no_spans(self, net_server):
        with NetClient(*net_server.address) as client:
            cursor = client.execute("r", "//item")
            cursor.fetchall()
        assert cursor.spans is None

    def test_traced_update_attaches_spans(self, net_server):
        with NetClient(*net_server.address) as client:
            trace = TraceContext("client")
            result = client.update(
                "r", "insert node <item>new</item> as last into /r",
                trace=trace)
        assert "spans" not in result
        assert result["nodes_inserted"] >= 1
        server_span = trace.root.find("server")
        assert server_span is not None
        assert server_span.find("update") is not None

    def test_bad_trace_payload_is_a_protocol_error(self, net_server):
        # Speak the frame directly: the client's own conversion would
        # reject a non-object trace before it ever reached the wire.
        with NetClient(*net_server.address) as client:
            with pytest.raises(ProtocolError):
                client._request(
                    MsgKind.EXECUTE,
                    {"document": "r", "query": "//item",
                     "trace": "not-an-object"},
                    MsgKind.EXECUTE_OK)

    def test_metrics_page_serves_every_layer(self, net_server):
        with NetClient(*net_server.address) as client:
            client.execute("r", "//item").fetchall()
            text = client.metrics()
            stats = client.stats()
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        page = "\n".join(lines)
        assert "repro_server_submitted" in page
        assert "repro_server_completed" in page
        assert "repro_network_queries" in page
        assert "repro_storage_buffer_hit_rate" in page
        # One counter, three surfaces: the pool's, the server's, the page.
        decodes = dict(line.split() for line in lines)[
            "repro_storage_buffer_decodes_total"]
        assert int(decodes) == stats["server"]["decodes"] > 0
        assert "repro_slowlog_slow_queries" in page
        assert "repro_registry_producer_errors 0" in page

    def test_slow_query_log_observes_wire_queries(self, net_server,
                                                  caplog):
        with caplog.at_level(logging.WARNING,
                             logger="repro.obs.slowlog"):
            with NetClient(*net_server.address) as client:
                trace = TraceContext("client")
                client.execute("r", "//item", trace=trace).fetchall()
        # Threshold 0.0: every finished query is an offender.
        assert net_server.slow_log.count >= 1
        entry = net_server.slow_log.recent[-1]
        assert entry["document"] == "r"
        assert entry["trace"][0]["name"] == "server"

    def test_pretty_printer_groups_by_subsystem(self, net_server,
                                                capsys):
        from repro.obs.__main__ import main
        host, port = net_server.address
        assert main(["--host", host, "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "== server ==" in out
        assert "== network ==" in out
        assert main(["--host", host, "--port", "1",
                     ]) == 1          # nothing listens on port 1

    def test_pretty_alignment(self):
        text = "repro_a_x 1\nrepro_b_longer_name 2\n"
        rendered = pretty(text)
        assert "== a ==" in rendered and "== b ==" in rendered
        assert "repro_a_x" in rendered


# -- the sharded cluster, in process -----------------------------------------


@pytest.fixture
def traced_cluster(tmp_path):
    dbs, servers = [], []
    for index in range(2):
        dbms = XmlDbms(str(tmp_path / f"shard-{index}.db"),
                       buffer_capacity=256)
        server = NetworkServer(dbms, workers=2, page_size=8,
                               log_interval=0.0, shard_id=index)
        server.start()
        dbs.append(dbms)
        servers.append(server)
    mediator = ShardedServer([server.address for server in servers],
                             timeout=30.0)
    front = NetworkServer(None, page_size=8, log_interval=0.0,
                          query_server=mediator,
                          slow_query_seconds=0.0)
    front.start()
    yield mediator, front
    front.stop()
    mediator.close()
    for server in servers:
        server.stop()
    for dbms in dbs:
        dbms.close()


class TestClusterTracing:

    def test_fanout_stitches_one_tree(self, traced_cluster):
        mediator, front = traced_cluster
        mediator.load("r", xml=items_xml(30), parts=2)
        with NetClient(*front.address) as client:
            trace = TraceContext("client")
            cursor = client.execute("r", "for $i in //item return $i",
                                    trace=trace)
            rows = cursor.fetchall()
            trace.root.end()
        assert len(rows) == 30
        mediator_span = trace.root.find("mediator")
        assert mediator_span is not None
        assert mediator_span.attributes["parts"] == 2
        shard_spans = [span for span in mediator_span.walk()
                       if span.name == "shard"]
        assert len(shard_spans) == 2
        assert {span.attributes["shard"]
                for span in shard_spans} == {0, 1}
        for span in shard_spans:
            assert span.find("execute") is not None, span.render()
            assert span.find("plan") is not None, span.render()
        # One tree, one trace id, end to end.
        assert cursor.spans[0]["trace_id"] == trace.trace_id

    def test_routed_query_and_update_traced(self, traced_cluster):
        mediator, front = traced_cluster
        mediator.load("solo", xml=items_xml(5))
        with NetClient(*front.address) as client:
            trace = TraceContext("client")
            client.execute("solo", "//item", trace=trace).fetchall()
            mediator_span = trace.root.find("mediator")
            assert mediator_span is not None
            assert mediator_span.find("execute") is not None

            update_trace = TraceContext("client")
            result = client.update(
                "solo", "insert node <item>x</item> as last into /r",
                trace=update_trace)
            assert "spans" not in result
            med = update_trace.root.find("mediator")
            assert med is not None
            assert med.find("update") is not None

    def test_front_door_metrics_include_mediator(self, traced_cluster):
        mediator, front = traced_cluster
        mediator.load("m", xml=items_xml(4))
        with NetClient(*front.address) as client:
            client.execute("m", "//item").fetchall()
            text = client.metrics()
        assert "repro_mediator_queries" in text
        assert "repro_mediator_shards 2" in text
        assert "repro_network_queries" in text
        # The front door joined the mediator's registry, not a new one.
        assert front.metrics_registry is mediator.metrics_registry


# -- the real process cluster (the acceptance criterion) ---------------------


def test_shard_subprocess_end_to_end_trace_and_metrics(tmp_path):
    """One query through ``python -m repro.shard`` with tracing enabled
    yields a single stitched trace: mediator span → per-shard wire
    spans → per-operator ANALYZE profiles."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.shard",
         "--shards", "2", "--data-dir", str(tmp_path / "cluster"),
         "--generate", "dblp=dblp:40", "--partition", "dblp",
         "--log-interval", "0", "--slow-query-ms", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).parent.parent / "src")})
    try:
        banner = process.stdout.readline().split()
        assert banner and banner[0] == "LISTENING", (
            process.stderr.read()[-2000:])
        host, port = banner[1], int(banner[2])
        with NetClient(host, port) as client:
            trace = TraceContext("client", document="dblp")
            cursor = client.execute(
                "dblp", "for $a in //author return $a", trace=trace)
            rows = cursor.fetchall()
            trace.root.end()
            assert rows, "partitioned document served no rows"

            # One stitched tree under one trace id.
            assert cursor.spans[0]["trace_id"] == trace.trace_id
            mediator_span = trace.root.find("mediator")
            assert mediator_span is not None, trace.render()
            shard_spans = [span for span in mediator_span.walk()
                           if span.name == "shard"]
            assert len(shard_spans) == 2, trace.render()
            total = 0
            for span in shard_spans:
                execute = span.find("execute")
                assert execute is not None, trace.render()
                total += execute.attributes["rows"]
                plan = span.find("plan")
                assert plan is not None, trace.render()
                # Operator profiles underneath carry ANALYZE numbers.
                operators = [child for child in plan.walk()
                             if "batches" in child.attributes]
                assert operators, trace.render()
                for op in operators:
                    assert op.attributes["batches"] >= 1
                    assert op.attributes["rows"] >= 0
            assert total == len(rows)

            # The METRICS frame serves the whole cluster front door.
            text = client.metrics()
            assert "repro_mediator_fanouts" in text
            assert "repro_network_queries" in text
            assert "repro_slowlog_slow_queries" in text
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    assert process.returncode == 0


# -- locking discipline of the metric primitives ------------------------------


class _CountingLock:
    """A context-manager lock that counts its acquisitions."""

    def __init__(self):
        self.entries = 0

    def __enter__(self):
        self.entries += 1
        return self

    def __exit__(self, *exc_info):
        return False


class TestMetricsLocking:
    """Reads of shared counters go through the lock (RL002's contract)."""

    def test_counter_reads_take_the_lock(self):
        counter = Counter()
        counter.inc(3)
        lock = _CountingLock()
        counter._lock = lock
        assert counter.value == 3
        assert counter() == 3
        assert lock.entries == 2

    def test_gauge_reads_take_the_lock(self):
        gauge = Gauge()
        gauge.set(2.5)
        lock = _CountingLock()
        gauge._lock = lock
        assert gauge.value == 2.5
        assert gauge() == 2.5
        assert lock.entries == 2

    def test_histogram_count_and_max_take_the_lock(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        lock = _CountingLock()
        histogram._lock = lock
        assert histogram.count == 1
        assert histogram.max == pytest.approx(0.002)
        assert lock.entries == 2

    def test_histogram_snapshot_is_one_critical_section(self):
        # count, mean, and the three percentiles must describe the same
        # population: the snapshot takes the lock exactly once instead
        # of composing separately-locked reads.
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.004):
            histogram.record(value)
        lock = _CountingLock()
        histogram._lock = lock
        snapshot = histogram.snapshot()
        assert snapshot.count == 3
        assert lock.entries == 1

    def test_registry_error_counter_is_read_under_the_lock(self):
        registry = MetricsRegistry()

        def boom():
            raise RuntimeError("broken producer")

        registry.register("bad", boom)
        lock = _CountingLock()
        registry._lock = lock
        flat = registry.collect()
        assert flat["registry.producer_errors"] == 1
        # One acquisition to copy the producers, one to count the
        # error, one to read the error counter at the end.
        assert lock.entries == 3
