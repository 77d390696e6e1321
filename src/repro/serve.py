"""``python -m repro.serve`` — run the network front door.

Loads (or generates) documents into an :class:`~repro.core.dbms.XmlDbms`
and serves them over TCP with :class:`~repro.net.server.NetworkServer`::

    # a throwaway database with a synthetic DBLP document
    python -m repro.serve --generate dblp=dblp:200 --port 7878

    # an existing database file, loading documents from XML files
    python -m repro.serve --db library.db --load dblp=dblp.xml \\
        --workers 8 --max-pending 128 --time-limit 5

On success one line is printed to stdout before serving::

    LISTENING <host> <port>

which spawners (the integration tests, ``benchmarks/bench_server.py``)
wait for; with ``--port 0`` the kernel-assigned port is what they parse.
Structured observability lines go to stderr via the ``repro.net``
logger every ``--log-interval`` seconds.  SIGINT/SIGTERM shut down
cleanly: connections drop, the worker pool drains, the database closes.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from pathlib import Path

from repro.core.dbms import XmlDbms
from repro.net.server import NetworkServer


def _parse_spec(spec: str, flag: str) -> tuple[str, str]:
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise SystemExit(f"{flag} expects NAME=VALUE, got {spec!r}")
    return name, rest


def _generate(spec: str) -> str:
    """``dblp:articles[:inproceedings[:name_pool]]`` or
    ``treebank:sentences`` → document XML text.

    The generators are imported here, by the one option that needs
    them: a server of real documents never loads them.
    """
    kind, *params = spec.split(":")
    try:
        numbers = [int(value) for value in params]
        if kind == "dblp":
            from repro.workloads.dblp import DblpConfig, generate_dblp
            articles = numbers[0] if numbers else 100
            config = DblpConfig(
                articles=articles,
                inproceedings=(numbers[1] if len(numbers) > 1
                               else max(1, articles * 3 // 10)),
                name_pool=numbers[2] if len(numbers) > 2 else 40)
            return generate_dblp(config)
        if kind == "treebank":
            from repro.workloads.treebank import (
                TreebankConfig,
                generate_treebank,
            )
            return generate_treebank(TreebankConfig(
                sentences=numbers[0] if numbers else 50))
    except (ValueError, IndexError):
        pass
    raise SystemExit(f"--generate expects NAME=dblp:N[:M[:P]] or "
                     f"NAME=treebank:N, got generator {spec!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve an XML database over the wire protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (printed on stdout)")
    parser.add_argument("--db", default=None,
                        help="database file (default: a temp file)")
    parser.add_argument("--load", action="append", default=[],
                        metavar="NAME=XMLPATH",
                        help="load a document from an XML file "
                             "(repeatable)")
    parser.add_argument("--generate", action="append", default=[],
                        metavar="NAME=KIND:N",
                        help="load a synthetic document, e.g. "
                             "dblp=dblp:200 or tb=treebank:50 "
                             "(repeatable)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-pending", type=int, default=64,
                        help="admission-control queue depth")
    parser.add_argument("--profile", default="m4")
    parser.add_argument("--time-limit", type=float, default=30.0,
                        help="per-query deadline in seconds, counted "
                             "from submission (0 = unlimited)")
    parser.add_argument("--memory-budget", type=int, default=None,
                        help="per-query memory budget in bytes")
    parser.add_argument("--page-size", type=int, default=64,
                        help="default rows per streamed cursor page")
    parser.add_argument("--log-interval", type=float, default=30.0,
                        help="seconds between structured stats log "
                             "lines (0 disables)")
    parser.add_argument("--buffer-capacity", type=int, default=1024,
                        help="buffer-pool frames for the database")
    parser.add_argument("--shard-id", type=int, default=None,
                        help="serve as member N of a sharded cluster; "
                             "echoed in HELLO_OK so the mediator can "
                             "verify it dialed the right process")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log a structured line (with the span "
                             "tree, if traced) for every query slower "
                             "than this many milliseconds")
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    db_path = args.db
    if not db_path:
        import tempfile
        db_path = str(
            Path(tempfile.mkdtemp(prefix="repro-serve-")) / "serve.db")
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *__: stop.set())

    with XmlDbms(db_path, buffer_capacity=args.buffer_capacity) as dbms:
        for spec in args.load:
            name, path = _parse_spec(spec, "--load")
            dbms.load(name, path=path)
        for spec in args.generate:
            name, generator = _parse_spec(spec, "--generate")
            dbms.load(name, xml=_generate(generator))
        server = NetworkServer(
            dbms, host=args.host, port=args.port,
            workers=args.workers, max_pending=args.max_pending,
            profile=args.profile,
            time_limit=args.time_limit or None,
            memory_budget=args.memory_budget,
            page_size=args.page_size,
            log_interval=args.log_interval,
            shard_id=args.shard_id,
            slow_query_seconds=(None if args.slow_query_ms is None
                                else args.slow_query_ms / 1e3))
        host, port = server.start()
        print(f"LISTENING {host} {port}", flush=True)
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
