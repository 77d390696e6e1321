"""The per-layer staircase, measured from outside the program.

One ``heavy`` and one ``point`` statement are run at five depths —
engine, ``Session``, ``QueryServer``, wire, mediator — and each stair's
*tax* is its median minus the stair beneath it: the layer's self time
as a caller sees it.  Around the staircase sit micro-probes of the
public functions each layer is made of (tokenizer, loader, parser,
translator, planner, B+-tree, buffer pool, codec, update apply, WAL
recovery).

Every figure here is a median over ``Scale.stair_reps`` repetitions of a
call into a public function, or a delta of a public counter; nothing
under ``src/`` is touched.  The same procedure runs in every traced run
whatever the workload, so each time-valued layer metric is measured —
never a placeholder — on every workload.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.algebra.merge import (
    eliminate_redundant_relations,
    merge_relfors,
    promote_residuals,
)
from repro.algebra.translate import translate
from repro.core.dbms import XmlDbms
from repro.core.server import PageEnvelope, QueryServer
from repro.engine.algebraic import iter_relfors
from repro.net import FrameDecoder, MsgKind, encode_frame
from repro.optimizer.planner import Planner
from repro.storage.wal import default_wal_path, recover
from repro.xasr import schema
from repro.xasr.document import StoredDocument
from repro.xmlkit.serializer import serialize
from repro.xmlkit.tokenizer import iterparse
from repro.xq.parser import parse_program

from ops import (
    READ_COUNTER,
    READ_NOTES,
    SEED_COUNTER,
    UpdateLedger,
    update_sequence,
)
from rig import FIT_PAGES, PAGE_SIZE

#: Operator classes whose self time is declared in BENCHMARK.json: the
#: ones the two waterfall plans are built from today.  A class that
#: leaves the plans reads 0; a new one is printed but not emitted until
#: it is declared.
OP_CLASSES = ("ProjectBindings", "IndexNestedLoopsJoin", "FullScan",
              "LabelIndexScan", "ChildLookup", "PrimaryLookup",
              "ExternalSort")

MB = 1024.0 * 1024.0
#: Updates in each update probe (in-process apply, wire acknowledgement).
PROBE_UPDATES = 24


def _median_ms(call, reps: int) -> float:
    call()
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def _drain(batches) -> list:
    nodes = []
    for batch in batches:
        nodes.extend(batch)
    return nodes


def _operator_self_ms(profiles: list[dict], out: dict[str, float]) -> None:
    """Add each operator's wall time minus its children's, by class.

    ``Cursor.profile()`` is a pre-order list with depths, so a node's
    children are the deeper entries that follow it."""
    children = [0] * len(profiles)
    stack: list[int] = []
    for index, profile in enumerate(profiles):
        while stack and profiles[stack[-1]]["depth"] >= profile["depth"]:
            stack.pop()
        if stack:
            children[stack[-1]] += profile["wall_ns"]
        stack.append(index)
    for profile, covered in zip(profiles, children, strict=True):
        own = (profile["wall_ns"] - covered) / 1e6
        out[profile["op"]] = out.get(profile["op"], 0.0) + own


# -- ingest ----------------------------------------------------------------


def ingest(fit, data: dict[str, str], reps: int) -> dict:
    """Tokenizer alone, the loader as timed at set-up, one index build."""
    xml = data["dblp"]
    nbytes = len(xml.encode())

    def tokenize():
        for _ in iterparse(xml):
            pass

    tokenize_ms = _median_ms(tokenize, max(2, reps // 3))
    loaded = sum(len(text.encode()) for text in data.values())
    started = time.perf_counter()
    fit.dbms.create_index("dblp", "booktitle")
    build_ms = (time.perf_counter() - started) * 1e3
    fit.dbms.drop_index("dblp", "booktitle")
    return {
        "xmlkit.tokenize_mb_per_s": (nbytes / MB / (tokenize_ms / 1e3),
                                     "MB/s"),
        "xasr.load_mb_per_s": (
            loaded / MB / sum(fit.load_seconds.values()), "MB/s"),
        "xasr.index_build_ms": (build_ms, "ms"),
    }


# -- storage micro-probes ---------------------------------------------------


def storage(fit) -> dict:
    """Scan, label lookup, B+-tree search/scan, page fetch hit and miss."""
    db = fit.dbms.db
    document = StoredDocument(db, "dblp")
    pool = db.buffer_pool

    started = time.perf_counter()
    nodes = [node for batch in document.scan_batches(PAGE_SIZE)
             for node in batch]
    scan_us = (time.perf_counter() - started) * 1e6 / len(nodes)

    started = time.perf_counter()
    authors = list(document.nodes_with_label("author"))
    label_us = (time.perf_counter() - started) * 1e6 / len(authors)

    keys = [schema.primary_key(node.in_) for node in nodes[::7]]
    started = time.perf_counter()
    for key in keys:
        document.primary.search(key)
    search_us = (time.perf_counter() - started) * 1e6 / len(keys)

    started = time.perf_counter()
    scanned = sum(1 for _ in document.primary.range_scan())
    range_us = (time.perf_counter() - started) * 1e6 / scanned

    pages = pool.resident_pages()
    pool.flush_and_clear()
    started = time.perf_counter()
    for page_id in pages:
        with pool.pinned(page_id):
            pass
    miss_us = (time.perf_counter() - started) * 1e6 / len(pages)
    started = time.perf_counter()
    for page_id in pages:
        with pool.pinned(page_id):
            pass
    hit_us = (time.perf_counter() - started) * 1e6 / len(pages)
    return {
        "xasr.scan_us_per_node": (scan_us, "us"),
        "xasr.label_lookup_us_per_node": (label_us, "us"),
        "storage.btree_search_us": (search_us, "us"),
        "storage.btree_scan_us_per_key": (range_us, "us"),
        "storage.page_fetch_hit_us": (hit_us, "us"),
        "storage.page_fetch_miss_us": (miss_us, "us"),
    }


# -- the staircase -----------------------------------------------------------


def compile_phases(fit, stmt, cls: str, reps: int) -> dict:
    """Parse, translate + rewrites, plan, and what ``prepare`` adds."""
    engine = fit.dbms.engine(stmt.document)
    profile = engine.profile
    program = parse_program(stmt.text)

    def rewrite():
        tpm = translate(program.body,
                        carry_out_values=profile.carry_out_values)
        tpm = eliminate_redundant_relations(merge_relfors(tpm))
        return promote_residuals(tpm)

    tpm = rewrite()
    planner = Planner(engine.document.statistics, profile.planner,
                      value_indexes=engine.document.value_index_labels)

    def plan():
        for relfor in iter_relfors(tpm):
            planner.plan(relfor.source)

    parse_ms = _median_ms(lambda: parse_program(stmt.text), reps)
    translate_ms = _median_ms(rewrite, reps)
    plan_ms = _median_ms(plan, reps)
    prepare_ms = _median_ms(lambda: engine.prepare(stmt.text), reps)
    return {
        f"xq.parse_ms.{cls}": (parse_ms, "ms"),
        f"algebra.translate_ms.{cls}": (translate_ms, "ms"),
        f"optimizer.plan_ms.{cls}": (plan_ms, "ms"),
        f"engine.prepare_cold_ms.{cls}": (
            prepare_ms - parse_ms - translate_ms, "ms"),
    }


def stairs(fit, server: QueryServer, serve, shard, stmt, cls: str,
           reps: int, op_self: dict[str, float]) -> tuple[dict, list]:
    """The five depths for one statement; returns metrics and the
    waterfall rows ``(stair, median ms, tax ms)``.

    Each repetition climbs the whole staircase, and a tax is the median
    of the *paired* differences between neighbouring stairs: the
    sandbox's speed drifts by more than most taxes are worth, and
    pairing cancels what two separate medians would not."""
    engine = fit.dbms.engine(stmt.document)
    compiled = engine.prepare(stmt.text)
    bindings = stmt.binding_dict
    session = fit.session
    wire, mediator = serve.control(), shard.control()
    split = []
    size = {}

    def at_engine():
        started = time.perf_counter()
        nodes = _drain(engine.stream_compiled_batches(
            compiled, bindings=bindings, batch_size=PAGE_SIZE))
        drained = time.perf_counter()
        text = "".join(serialize(node) for node in nodes)
        split.append((drained - started,
                      time.perf_counter() - drained))
        size.update(rows=len(nodes), nbytes=len(text.encode()))

    climb = [
        ("engine", at_engine),
        ("Session", lambda: session.query(
            stmt.document, stmt.text, bindings=bindings)),
        ("QueryServer", lambda: server.submit(
            stmt.document, stmt.text, bindings=bindings,
            serialize=True).result()),
        ("wire", lambda: wire.execute(
            stmt.document, stmt.text, bindings=bindings,
            page_size=PAGE_SIZE).fetchall()),
        ("mediator", lambda: mediator.execute(
            stmt.document, stmt.text, bindings=bindings,
            page_size=PAGE_SIZE).fetchall()),
    ]
    for _, call in climb:
        call()
    split.clear()
    laps = []
    for _ in range(reps):
        lap = []
        for _, call in climb:
            started = time.perf_counter()
            call()
            lap.append((time.perf_counter() - started) * 1e3)
        laps.append(lap)
    rows = []
    for index, (stair, _) in enumerate(climb):
        rows.append((
            stair, statistics.median(lap[index] for lap in laps),
            statistics.median(
                lap[index] - (lap[index - 1] if index else 0.0)
                for lap in laps)))
    taxes = {stair: tax for stair, _, tax in rows}

    prepared = session.prepare(stmt.document, stmt.text)
    with prepared.execute(bindings=bindings, analyze=True) as cursor:
        cursor.fetchall()
        _operator_self_ms(cursor.profile() or [], op_self)
    metrics = {
        f"physical.execute_ms.{cls}": (
            statistics.median(part[0] for part in split) * 1e3, "ms"),
        f"xmlkit.serialize_ms.{cls}": (
            statistics.median(part[1] for part in split) * 1e3, "ms"),
        f"core.session_tax_ms.{cls}": (taxes["Session"], "ms"),
        f"core.server_tax_ms.{cls}": (taxes["QueryServer"], "ms"),
        f"net.wire_tax_ms.{cls}": (taxes["wire"], "ms"),
        f"shard.mediator_tax_ms.{cls}": (taxes["mediator"], "ms"),
    }
    if cls == "heavy":
        metrics["xmlkit.result_bytes_per_row"] = (
            size["nbytes"] / max(1, size["rows"]), "bytes")
    return metrics, rows


def codec(serve, stmt, reps: int) -> dict:
    """Frame encode and decode cost on a PAGE payload of real rows."""
    rows = serve.control().execute(stmt.document, stmt.text,
                                   page_size=PAGE_SIZE).fetchall()
    payload = PageEnvelope(document=stmt.document, base=0,
                           rows=rows[:PAGE_SIZE], eof=False).as_payload()
    frame = encode_frame(MsgKind.PAGE, payload)

    def decode():
        decoder = FrameDecoder()
        decoder.feed(frame)
        decoder.next_frame()

    size_mb = len(frame) / MB
    return {
        "net.codec_encode_ms_per_mb": (
            _median_ms(lambda: encode_frame(MsgKind.PAGE, payload),
                       reps * 4) / size_mb, "ms/MB"),
        "net.codec_decode_ms_per_mb": (
            _median_ms(decode, reps * 4) / size_mb, "ms/MB"),
    }


# -- the update path ----------------------------------------------------------


def apply_probe(fit) -> dict:
    """In-process ``dbms.update`` with one writer and no readers, so
    the per-update counts repeat exactly."""
    dbms = fit.dbms
    wal_path = default_wal_path(fit.db_path)
    dbms.update("dblp", SEED_COUNTER)
    updates = update_sequence()
    for _ in range(4):
        kind, statement, bindings = next(updates)
        dbms.update("dblp", statement, bindings=bindings)
    timings: dict[str, list[float]] = {}
    wal_growth = []
    mvcc_before = dbms.mvcc_stats()
    buffer_before = dbms.buffer_stats.snapshot()
    for _ in range(PROBE_UPDATES):
        kind, statement, bindings = next(updates)
        size = os.path.getsize(wal_path)
        started = time.perf_counter()
        dbms.update("dblp", statement, bindings=bindings)
        timings.setdefault(kind, []).append(
            time.perf_counter() - started)
        # A checkpoint in between resets the log; skip that sample.
        grown = os.path.getsize(wal_path) - size
        if grown > 0:
            wal_growth.append(grown)
    mvcc = dbms.mvcc_stats()
    buffer_after = dbms.buffer_stats
    metrics = {
        f"updates.apply_ms.{kind}": (statistics.median(samples) * 1e3,
                                     "ms")
        for kind, samples in timings.items()}
    metrics.update({
        "storage.wal_bytes_per_update": (
            statistics.median(wal_growth) if wal_growth else 0.0,
            "bytes"),
        "storage.fsyncs_per_update": (
            (mvcc["group_fsyncs"] - mvcc_before["group_fsyncs"])
            / PROBE_UPDATES, "count"),
        "storage.dirty_writebacks_per_update": (
            (buffer_after.dirty_writebacks
             - buffer_before.dirty_writebacks) / PROBE_UPDATES, "count"),
        "storage.versions_installed_per_update": (
            (mvcc["versions_installed"]
             - mvcc_before["versions_installed"]) / PROBE_UPDATES,
            "count"),
    })
    return metrics


def crash_check(serve, ledger: UpdateLedger) -> tuple[bool, float, str]:
    """SIGKILL the server, recover its files, compare with the ledger.

    Returns ``(ok, recover_ms, detail)``.  This is process-crash
    durability on a sandbox: the OS cache survives the kill, so it
    proves the WAL protocol, not behaviour on power loss."""
    db_path = serve.db_paths[0]
    serve.close(kill=True)
    started = time.perf_counter()
    recover(db_path)
    recover_ms = (time.perf_counter() - started) * 1e3
    with XmlDbms(db_path, buffer_capacity=FIT_PAGES) as dbms:
        session = dbms.session()
        counter = session.query("dblp", READ_COUNTER)
        notes = session.query("dblp", READ_NOTES)
    expected = "".join(ledger.notes)
    ok = counter == ledger.counter and notes == expected
    detail = (f"counter {counter!r} (acknowledged {ledger.counter!r}), "
              f"notes {notes!r} (acknowledged {expected!r})")
    return ok, recover_ms, detail


def ack_probe(serve, ledger: UpdateLedger, updates
              ) -> tuple[dict, bool, str]:
    """One writer over the wire, then kill -9 and recover."""
    client = serve.control()
    latencies = []
    for _ in range(PROBE_UPDATES):
        kind, statement, bindings = next(updates)
        started = time.perf_counter()
        client.update("dblp", statement, bindings=bindings)
        latencies.append(time.perf_counter() - started)
        ledger.acknowledge(kind, bindings)
    ok, recover_ms, detail = crash_check(serve, ledger)
    return ({"updates.ack_p50_ms": (statistics.median(latencies) * 1e3,
                                    "ms"),
             "storage.recover_ms": (recover_ms, "ms")}, ok, detail)


def measure(fit, serve, shard, waterfall: dict, data: dict[str, str],
            reps: int, ledger: UpdateLedger, updates
            ) -> tuple[dict, dict, bool, str]:
    """Everything above, in the one order that works: reads before the
    updates that bump catalog versions, the kill last.

    ``ledger``/``updates`` are the served document's writer state (the
    bench counter is already in place).  Returns the metrics, the
    waterfall tables, and the durability verdict with its detail."""
    metrics = ingest(fit, data, reps)
    op_self: dict[str, float] = {}
    tables = {}
    with QueryServer(fit.dbms, workers=2) as server:
        for cls, stmt in waterfall.items():
            metrics.update(compile_phases(fit, stmt, cls, reps))
            stair_metrics, tables[cls] = stairs(
                fit, server, serve, shard, stmt, cls, reps, op_self)
            metrics.update(stair_metrics)
        # The mean, not the p50: the histogram's percentiles are
        # bucket bounds and would read the same on every run.
        metrics["core.server_queue_wait_mean_ms"] = (
            server.stats().queue_wait.mean_ms, "ms")
    for name in OP_CLASSES:
        metrics[f"physical.op_self_ms.{name}"] = (
            op_self.pop(name, 0.0), "ms")
    tables["undeclared_operators"] = sorted(op_self)
    metrics.update(codec(serve, waterfall["heavy"], reps))
    metrics.update(storage(fit))
    metrics.update(apply_probe(fit))
    ack_metrics, durable, detail = ack_probe(serve, ledger, updates)
    metrics.update(ack_metrics)
    return metrics, tables, durable, detail
