"""One run of one workload: set up, drive the closed loops, check, report.

An untraced run sets the system up ``Scale.setups`` times (``setup_s`` is
the median), drives the workload's fixed number of ops from the seeded
sequence and reports the end-to-end metrics, all as wall time.  A traced
run replays the first quarter of the same sequence twice — spans off,
then on — reads the public counters around the traced replay, and then
runs the staircase.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field

import staircase
from drive import OpResult, make_targets, read_loop, update_loop
from ops import (
    SEED_COUNTER,
    UpdateLedger,
    build_catalog,
    distinct,
    read_sequence,
    update_sequence,
    waterfall_stmts,
)
from rig import (
    CYCLE_OPS,
    FIT_PAGES,
    PAGE_SIZE,
    WORKLOADS,
    InprocEnv,
    Oracle,
    Scale,
    Scratch,
    ServerEnv,
    build_env,
    make_data,
)
from spans import Recorder

SHARD_UNITS = {"shard.fanout_ratio": "ratio",
               "shard.pool_reuse_ratio": "ratio",
               "shard.pool_retries": "count",
               "shard.part_exec_max_over_mean": "ratio"}
FLUSH_POLICY = ("program default: group commit, one fsync per batch, "
                "checkpoint every 16 commits")


@dataclass
class Prepared:
    """A system that is set up: the next op can be sent."""

    env: object
    readers: list
    writer: object = None
    ledger: UpdateLedger | None = None
    updates: object = None
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)


def set_up(workload: str, data, catalog, scratch: Scratch,
           scale: Scale) -> Prepared:
    """XML text ready → first op can be sent: load (or spawn with
    ``--load``), connect, prepare handles, one warm-up pass."""
    started = time.perf_counter()
    env = build_env(workload, data, scratch, scale)
    prepared = Prepared(env,
                        make_targets(env, WORKLOADS[workload].connections))
    try:
        if WORKLOADS[workload].updates:
            prepared.writer = prepared.readers.pop()
            _seed_writer(prepared, prepared.writer.client)
            for _ in range(4):
                kind, statement, bindings = next(prepared.updates)
                prepared.writer.client.update("dblp", statement,
                                              bindings=bindings)
                prepared.ledger.acknowledge(kind, bindings)
        stmts = distinct(catalog)
        for target in prepared.readers:
            for stmt in stmts:
                if stmt.mode == "prepared":
                    target.prepare(stmt)
        # One pass over every distinct text, from one connection: the
        # plan caches it fills belong to the server, not the client.
        warm = {}
        for stmt in stmts:
            warm.setdefault((stmt.document, stmt.text), stmt)
        quiet = Recorder(False)
        for stmt in warm.values():
            if not prepared.readers[0].run(stmt, quiet).ok:
                prepared.failures.append(
                    f"warm-up digest mismatch on {stmt.name}")
    except BaseException:
        env.close()
        raise
    prepared.seconds = time.perf_counter() - started
    return prepared


def _seed_writer(prepared: Prepared, client) -> None:
    client.update("dblp", SEED_COUNTER)
    prepared.ledger = UpdateLedger()
    prepared.updates = update_sequence()


def planned(workload: str, share: float) -> tuple[int, int]:
    """``(reads per reading connection, updates)`` of a run that does
    ``share`` of the workload's declared work.  Reads come in whole
    cycles and updates in whole rounds of four (bump, insert, bump,
    delete), so every share ends on the same mix and document size."""
    shape = WORKLOADS[workload]
    cycles = max(1, round(shape.cycles * share))
    rounds = max(1, round(shape.updates * share / 4)) if shape.updates else 0
    return cycles * CYCLE_OPS, rounds * 4


def drive_loops(prepared: Prepared, catalog, seed: int, reads: int,
                updates: int, recorder: Recorder
                ) -> tuple[list[OpResult], list[float]]:
    """Run every connection's closed loop to its count; returns the ops
    and, per connection, the wall seconds from the common start to its
    last reply (the phase's length is the longest)."""
    results: list[list[OpResult]] = []
    loops = []
    for index, target in enumerate(prepared.readers):
        results.append([])
        loops.append((read_loop, target,
                      read_sequence(catalog, seed, index), reads,
                      results[-1], recorder))
    if prepared.writer is not None:
        results.append([])
        loops.append((update_loop, prepared.writer, prepared.updates,
                      updates, results[-1], prepared.ledger, recorder))
    finished = [0.0] * len(loops)

    def run(index: int, loop, *args) -> None:
        loop(*args)
        finished[index] = time.perf_counter()

    threads = [threading.Thread(target=run, args=(index, *loop))
               for index, loop in enumerate(loops)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ([op for bucket in results for op in bucket],
            [end - started for end in finished])


#: Tail percentile per class (``None``: the class reports a median only).
TAILS = {"heavy": 0.90, "selective": None, "point": 0.95, "update": 0.95}


def _percentile(samples: list[float], q: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100,
                                method="inclusive")[round(q * 100) - 1]


def _class_metrics(ops: list[OpResult]) -> tuple[dict, dict]:
    """Median and tail latency per class over all its ops pooled
    (submit → reply fully fetched and checked), and the sample counts.

    The op counts are fixed, so every statement holds the same share of
    its class in every run and a pooled percentile means the same thing
    on every commit."""
    by_class: dict[str, list[OpResult]] = {}
    for op in ops:
        if op.ok:
            by_class.setdefault(op.cls, []).append(op)
    metrics, counts = {}, {}
    for cls, tail in TAILS.items():
        group = by_class.get(cls, [])
        counts[cls] = len(group)
        if not group:
            continue
        latencies = [op.latency * 1e3 for op in group]
        metrics[f"{cls}_p50_ms"] = (statistics.median(latencies), "ms")
        if tail is not None:
            metrics[f"{cls}_p{round(tail * 100)}_ms"] = (
                _percentile(latencies, tail), "ms")
    # The streaming promise only shows on results of several pages
    # (at tiny scale nothing is that long, so every statement counts).
    heavy = by_class.get("heavy", [])
    paged = [op for op in heavy if op.rows > PAGE_SIZE] or heavy
    if paged:
        metrics["first_page_p50_ms"] = (
            statistics.median(op.first_page for op in paged) * 1e3, "ms")
    return metrics, counts


@dataclass
class RunResult:
    """What one run hands to the reporter."""

    workload: str
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list[str]
    info: dict
    tables: dict = field(default_factory=dict)
    recorder: Recorder | None = None


def _inputs(seed: int, scale: Scale):
    """The XML text and the statement catalog with its oracle digests.

    The oracle's DOMs are dropped here, before anything is set up: they
    are the harness's, and ``peak_rss_mb`` of an in-process workload is
    this process's."""
    data = make_data(seed, scale)
    catalog = build_catalog(Oracle(data))
    gc.collect()
    return data, catalog


def _info(prepared: Prepared, data, scale: Scale, workload: str) -> dict:
    env = prepared.env
    shape = WORKLOADS[workload]
    return {
        "xml_bytes": {name: len(text.encode())
                      for name, text in data.items()},
        "db_pages": env.db_pages(),
        "pool_pages": shape.pool_pages or scale.spill_pages,
        "connections": shape.connections,
        "shards": 2 if shape.kind == "shard" else 0,
        "flush_policy": FLUSH_POLICY,
    }


def _failures(ops: list[OpResult]) -> list[str]:
    return sorted({op.error or f"wrong digest on {op.name}"
                   for op in ops if not op.ok})


def run_untraced(workload: str, seed: int, share: float,
                 scale: Scale) -> RunResult:
    """Set up, run ``share`` of the workload's fixed op counts, check,
    report end-to-end."""
    data, catalog = _inputs(seed, scale)
    reads, updates = planned(workload, share)
    scratch = Scratch()
    notes: list[str] = []
    setups = []
    prepared = None
    try:
        for _ in range(scale.setups):
            if prepared is not None:
                prepared.env.close()
            prepared = set_up(workload, data, catalog, scratch, scale)
            setups.append(prepared.seconds)
            notes.extend(prepared.failures)
        # The catalog is the harness's, not the program's: keep it out
        # of every later collection.
        gc.collect()
        gc.freeze()
        ops, finished = drive_loops(prepared, catalog, seed, reads,
                                    updates, Recorder(False))
        env = prepared.env
        info = _info(prepared, data, scale, workload)
        attempted = reads * len(prepared.readers) + updates
        failed = attempted - sum(op.ok for op in ops)
        metrics, counts = _class_metrics(ops)
        metrics.update({
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(ops) / max(finished), "1/s"),
            "peak_rss_mb": (env.peak_rss_mb(), "MB"),
            "space_amp": (env.stored_bytes()
                          / sum(info["xml_bytes"].values()), "ratio"),
            "error_rate": (failed / attempted, "ratio"),
        })
        notes.extend(_failures(ops))
        durable = True
        if prepared.writer is not None:
            durable, recover_ms, detail = staircase.crash_check(
                env, prepared.ledger)
            notes.append(f"durability after kill -9 (process crash on a "
                         f"sandbox, OS cache intact; not power loss): "
                         f"{'ok' if durable else 'FAILED'} — {detail}; "
                         f"recovery {recover_ms:.1f} ms")
        by_name: dict[str, list[float]] = {}
        for op in ops:
            by_name.setdefault(op.name, []).append(op.latency * 1e3)
        info.update(
            reads_per_connection=reads, updates=updates, samples=counts,
            samples_beyond_tail={
                f"{cls}_p{round(tail * 100)}_ms":
                    round(counts[cls] * (1 - tail), 1)
                for cls, tail in TAILS.items() if tail and counts[cls]},
            setups_s=setups, timed_s=max(finished),
            connection_finished_s=[round(end, 2) for end in finished],
            rows=sum(op.rows for op in ops),
            p50_ms_by_statement={
                name: round(statistics.median(times), 3)
                for name, times in sorted(by_name.items())})
        return RunResult(
            workload, metrics, attempted=attempted, failed=failed,
            correct=not failed and durable and not prepared.failures,
            notes=notes, info=info)
    finally:
        if prepared is not None:
            prepared.env.close()
        scratch.remove()


# -- the traced run ---------------------------------------------------------


def _counters(prepared: Prepared) -> dict:
    env = prepared.env
    counters = {"buffer": env.buffer_counters()}
    if isinstance(env, InprocEnv):
        cache = env.session.cache_info()
        counters["plan_cache"] = (cache.hits, cache.misses)
    else:
        stats = env.control().stats()
        counters["front"] = stats["server"]
        counters["network"] = stats["network"]
        if env.kind == "shard":
            counters["members"] = [member.stats()["server"]
                                   for member in env.members()]
    return counters


def _ratio(numerator: float, denominator: float,
           empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def _replay_metrics(workload: str, ops: list[OpResult], before: dict,
                    after: dict) -> dict:
    """Count-type layer metrics from the counters around the traced
    replay; a layer that does not run in this workload reads 0."""
    reads = [op for op in ops if op.cls != "update"]
    buffer = {key: after["buffer"][key] - before["buffer"][key]
              for key in after["buffer"]}
    metrics = {
        "storage.buffer_hit_ratio": (
            _ratio(buffer["hits"], buffer["hits"] + buffer["misses"],
                   empty=1.0), "ratio"),
        "storage.page_reads_per_op": (
            _ratio(buffer["misses"], len(reads)), "count"),
        "storage.evictions_per_op": (
            _ratio(buffer["evictions"], len(reads)), "count"),
    }
    if "plan_cache" in after:
        hits = after["plan_cache"][0] - before["plan_cache"][0]
        misses = after["plan_cache"][1] - before["plan_cache"][1]
        hit_ratio = _ratio(hits, hits + misses, empty=1.0)
    else:
        flags = [op.plan_cache_hit for op in reads
                 if op.plan_cache_hit is not None]
        hit_ratio = _ratio(sum(flags), len(flags), empty=1.0)
    metrics["core.plan_cache_hit_ratio"] = (hit_ratio, "ratio")
    front = after.get("front", {})
    network = {key: after["network"][key] - before["network"][key]
               for key in ("bytes_sent", "rows_sent")
               } if "network" in after else {}
    metrics.update({
        "net.round_trips_per_op": (
            _ratio(sum(op.round_trips for op in reads), len(reads))
            if network else 0.0, "count"),
        "net.bytes_per_row": (
            _ratio(network.get("bytes_sent", 0),
                   network.get("rows_sent", 0)), "bytes"),
        "core.server_peak_pending": (
            float(front.get("peak_pending", 0)), "count"),
        "storage.versioned_reads_per_op": (
            _ratio(front.get("snapshot_reads", 0)
                   - before.get("front", {}).get("snapshot_reads", 0),
                   len(reads)), "count"),
    })
    shard = dict.fromkeys(SHARD_UNITS, 0.0)
    if workload == "shard_fanout":
        delta = {key: front[key] - before["front"][key]
                 for key in ("queries", "fanouts", "pool_connects",
                             "pool_retries")}
        leases = delta["queries"] + 2 * delta["fanouts"]
        busy = [after_member["execution"]["mean_ms"]
                * after_member["execution"]["count"]
                - before_member["execution"]["mean_ms"]
                * before_member["execution"]["count"]
                for before_member, after_member
                in zip(before["members"], after["members"], strict=True)]
        shard = {
            "shard.fanout_ratio": _ratio(
                delta["fanouts"], delta["queries"] + delta["fanouts"]),
            "shard.pool_reuse_ratio": 1.0 - _ratio(
                delta["pool_connects"], leases),
            "shard.pool_retries": float(delta["pool_retries"]),
            "shard.part_exec_max_over_mean": _ratio(
                max(busy, default=0.0), _ratio(sum(busy), len(busy))),
        }
    metrics.update({name: (value, SHARD_UNITS[name])
                    for name, value in shard.items()})
    return metrics


class _RetainedPoller:
    """Samples ``versions_retained`` while the traced replay runs: the
    counter is a level, so its peak has to be watched, not read once."""

    def __init__(self, env, watch: bool):
        self.peak = 0
        self._client = env.connect() if watch else None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll)

    def _poll(self) -> None:
        while not self._stop.wait(0.05):
            server = self._client.stats()["server"]
            self.peak = max(self.peak, server["versions_retained"])

    def __enter__(self):
        if self._client is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        if self._client is not None:
            self._thread.join()


def run_traced(workload: str, seed: int, share: float, scale: Scale,
               stairs: bool = True) -> RunResult:
    """Replay the first quarter of the run's sequence without and with
    spans, read the counters around the second, then (``stairs``) run
    the staircase on an in-process database, a server and a shard tree.

    The class latencies of the spans-off replay ride along, so an
    end-to-end candidate too noisy to gate can be declared per-layer."""
    data, catalog = _inputs(seed, scale)
    reads, updates = planned(workload, share / 4)
    scratch = Scratch()
    envs: dict[str, object] = {}
    notes: list[str] = []
    tables: dict = {}
    try:
        prepared = set_up(workload, data, catalog, scratch, scale)
        envs[WORKLOADS[workload].kind] = prepared.env
        notes.extend(prepared.failures)
        untraced, finished = drive_loops(prepared, catalog, seed, reads,
                                         updates, Recorder(False))
        plain_s = max(finished)
        recorder = Recorder(True)
        before = _counters(prepared)
        with _RetainedPoller(prepared.env,
                             prepared.writer is not None) as poller:
            ops, finished = drive_loops(prepared, catalog, seed, reads,
                                        updates, recorder)
        traced_s = max(finished)
        after = _counters(prepared)
        info = _info(prepared, data, scale, workload)
        metrics, _ = _class_metrics(untraced)
        metrics.update({
            "ops_per_s": (len(untraced) / plain_s, "1/s"),
            "space_amp": (prepared.env.stored_bytes()
                          / sum(info["xml_bytes"].values()), "ratio"),
        })
        metrics.update(_replay_metrics(workload, ops, before, after))
        metrics["storage.versions_retained_peak"] = (
            float(poller.peak), "count")
        metrics["obs.traced_run_overhead_ratio"] = (
            (len(ops) / traced_s) / (len(untraced) / plain_s), "ratio")
        durable = True
        if stairs:
            if isinstance(prepared.env, InprocEnv) \
                    and prepared.env.capacity == FIT_PAGES:
                fit = prepared.env
            else:
                fit = InprocEnv(data, scratch.subdir("stairs"), FIT_PAGES)
                envs["fit"] = fit
            for kind in ("serve", "shard"):
                if kind not in envs:
                    envs[kind] = ServerEnv(kind, data,
                                           scratch.subdir(kind))
            if prepared.ledger is None:
                _seed_writer(prepared, envs["serve"].control())
            stair_metrics, tables, durable, detail = staircase.measure(
                fit, envs["serve"], envs["shard"],
                waterfall_stmts(catalog), data, scale.stair_reps,
                prepared.ledger, prepared.updates)
            metrics.update(stair_metrics)
            notes.append(f"durability after kill -9 (process crash on a "
                         f"sandbox, OS cache intact; not power loss): "
                         f"{'ok' if durable else 'FAILED'} — {detail}")
        attempted = 2 * (reads * len(prepared.readers) + updates)
        failed = attempted - sum(op.ok for op in untraced + ops)
        notes.extend(_failures(untraced + ops))
        info.update(
            reads_per_connection=reads, updates=updates,
            traced_s=traced_s, untraced_s=plain_s,
            # The harness's own spans over the traced replay.
            span_self_ms={name: round(seconds * 1e3, 2) for name, seconds
                          in sorted(recorder.self_times().items())})
        return RunResult(
            workload, metrics, attempted=attempted, failed=failed,
            correct=not failed and durable and not prepared.failures,
            notes=notes, info=info, tables=tables, recorder=recorder)
    finally:
        for env in envs.values():
            env.close()
        scratch.remove()
