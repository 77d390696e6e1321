"""The network front door vs. the in-process worker pool, at 16 clients.

``python -m repro.serve`` runs in a subprocess with the benchmark-scale
DBLP document; 16 *processes* (real clients: separate GILs, real
sockets) drive it closed-loop through
:class:`~repro.net.client.NetClient`, executing the same efficiency
suite :mod:`bench_concurrency` uses.  The same total work then runs
against an in-process :class:`~repro.core.server.QueryServer` from 16
threads — the no-network ceiling.

The regression-gated metric is the ratio:

* ``server.network_efficiency_16`` — wire throughput at 16 clients over
  in-process throughput at 16 clients.  It prices everything the front
  door adds: framing, JSON, a connection thread's hand-off to the
  worker and per-page round trips.  The acceptance bar demands the
  network layer keep at least ~a third of in-process throughput at
  smoke scale; the committed baseline carries the real floor.

Results land in ``BENCH_server.json``.
"""

import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time

from repro.core.server import QueryServer
from repro.net import NetClient
from repro.workloads.queries import EFFICIENCY_QUERIES

#: The contested client count (the 16-client point of Figure 7's axis).
CLIENTS = 16
#: Workload suites in total, split evenly across clients — identical
#: work for the wire run and the in-process run.
TOTAL_SUITES = 64
PROFILE = "engine-1"
#: Rows per FETCH: large enough that round trips do not dominate at
#: benchmark scale, small enough to exercise real multi-page streams.
PAGE_SIZE = 256
#: In-bench floor (lenient; ``benchmarks/baseline.json`` has the real
#: gate).
MIN_NETWORK_EFFICIENCY = 0.35

ARTICLES = int(os.environ.get("REPRO_BENCH_ARTICLES", "500"))
QUERIES = [test.xq for test in EFFICIENCY_QUERIES]
JOIN_TIMEOUT = 300.0


def _client_process(host, port, suites, barrier, results):
    """One closed-loop client: warm up, sync on the barrier, run."""
    latencies = []
    with NetClient(host, int(port), timeout=JOIN_TIMEOUT) as client:
        for query in QUERIES:            # warm this connection's path
            client.execute("dblp", query,
                           page_size=PAGE_SIZE).fetchall()
        barrier.wait(timeout=JOIN_TIMEOUT)
        for __ in range(suites):
            for query in QUERIES:
                started = time.perf_counter()
                client.execute("dblp", query,
                               page_size=PAGE_SIZE).fetchall()
                latencies.append(time.perf_counter() - started)
    results.put(latencies)


def _spawn_server():
    """``python -m repro.serve`` on a free port; returns (proc, host, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [path for path in (env.get("PYTHONPATH"),) if path] + [src])
    inproceedings = max(1, ARTICLES * 3 // 10)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--generate", f"dblp=dblp:{ARTICLES}:{inproceedings}:40",
         "--port", "0", "--workers", str(CLIENTS),
         "--max-pending", "256", "--profile", PROFILE,
         "--time-limit", "0", "--log-interval", "0",
         "--buffer-capacity", "4096"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    banner = process.stdout.readline().strip()
    assert banner.startswith("LISTENING "), (
        f"serve failed to start: {banner!r}")
    __, host, port = banner.split()
    return process, host, int(port)


def _network_run(host, port):
    """16 client processes, closed loop; returns the run summary."""
    suites_per_client = TOTAL_SUITES // CLIENTS
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(CLIENTS + 1)
    results = context.Queue()
    clients = [context.Process(target=_client_process,
                               args=(host, port, suites_per_client,
                                     barrier, results))
               for __ in range(CLIENTS)]
    for client in clients:
        client.start()
    barrier.wait(timeout=JOIN_TIMEOUT)   # every client warmed and ready
    started = time.perf_counter()
    latencies = []
    for __ in clients:
        latencies.extend(results.get(timeout=JOIN_TIMEOUT))
    wall = time.perf_counter() - started
    for client in clients:
        client.join(timeout=JOIN_TIMEOUT)
        assert client.exitcode == 0, (
            f"client process failed with exit code {client.exitcode}")
    executed = len(latencies)
    assert executed == CLIENTS * suites_per_client * len(QUERIES)
    ordered = sorted(latencies)
    return {
        "clients": CLIENTS,
        "queries": executed,
        "wall_seconds": round(wall, 4),
        "qps": executed / wall,
        "p50_ms": round(statistics.median(ordered) * 1e3, 3),
        "p99_ms": round(ordered[min(executed - 1,
                                    int(executed * 0.99))] * 1e3, 3),
    }


def _inprocess_run(dbms):
    """The same work through QueryServer directly, from 16 threads."""
    import threading

    suites_per_client = TOTAL_SUITES // CLIENTS
    latencies = []
    lock = threading.Lock()
    with QueryServer(dbms, workers=CLIENTS, max_pending=256,
                     profile=PROFILE) as server:
        warm = [server.submit("dblp", query, serialize=True)
                for __ in range(CLIENTS) for query in QUERIES]
        for future in warm:
            future.result()

        def client():
            own = []
            for __ in range(suites_per_client):
                for query in QUERIES:
                    started = time.perf_counter()
                    server.query("dblp", query)
                    own.append(time.perf_counter() - started)
            with lock:
                latencies.extend(own)

        threads = [threading.Thread(target=client)
                   for __ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    executed = len(latencies)
    ordered = sorted(latencies)
    return {
        "clients": CLIENTS,
        "queries": executed,
        "wall_seconds": round(wall, 4),
        "qps": executed / wall,
        "p50_ms": round(statistics.median(ordered) * 1e3, 3),
        "p99_ms": round(ordered[min(executed - 1,
                                    int(executed * 0.99))] * 1e3, 3),
    }


def test_network_serving_throughput(bench_dbms, bench_record):
    process, host, port = _spawn_server()
    try:
        # Answers over the wire must match the in-process engine before
        # their speeds are worth comparing.
        session = bench_dbms.session(profile=PROFILE)
        with NetClient(host, port, timeout=JOIN_TIMEOUT) as client:
            for query in QUERIES:
                assert client.query("dblp", query) \
                    == session.query("dblp", query)
        network = _network_run(host, port)
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60.0) == 0, \
            "serve subprocess did not shut down cleanly"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    inprocess = _inprocess_run(bench_dbms)

    print(f"\nin-process {inprocess['clients']:3d} clients: "
          f"{inprocess['qps']:8.1f} q/s   p50 {inprocess['p50_ms']:7.2f} ms"
          f"   p99 {inprocess['p99_ms']:7.2f} ms")
    print(f"network    {network['clients']:3d} clients: "
          f"{network['qps']:8.1f} q/s   p50 {network['p50_ms']:7.2f} ms"
          f"   p99 {network['p99_ms']:7.2f} ms")

    network_efficiency = network["qps"] / inprocess["qps"]
    bench_record(
        "server",
        {"server.network_efficiency_16": round(network_efficiency, 3)},
        details={"profile": PROFILE,
                 "total_suites": TOTAL_SUITES,
                 "page_size": PAGE_SIZE,
                 "network": network,
                 "inprocess": inprocess})

    assert network_efficiency >= MIN_NETWORK_EFFICIENCY, (
        f"network serving overhead too high: wire throughput at "
        f"{CLIENTS} clients is only {network_efficiency:.2f}x of "
        f"in-process (floor {MIN_NETWORK_EFFICIENCY}x)")
