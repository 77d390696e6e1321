"""``python -m repro.shard`` — run a sharded cluster behind one port.

Spawns N ``python -m repro.serve`` member processes (each with its own
database under ``--data-dir``), places documents on them through the
mediator, and serves the mediator itself over the ordinary wire
protocol — clients talk to one address and never learn the cluster
exists::

    # 4 shards, one synthetic DBLP document partitioned across all 4
    python -m repro.shard --shards 4 --generate dblp=dblp:2000 \\
        --partition dblp --port 7878

    # documents from files, each placed whole on the least-loaded shard
    python -m repro.shard --shards 2 --data-dir cluster/ \\
        --load a=a.xml --load b=b.xml

Like ``repro.serve``, one ``LISTENING <host> <port>`` line goes to
stdout once the front door is up.  SIGINT/SIGTERM stop the mediator,
then SIGTERM every member.  See ``docs/operations.md`` for the full
runbook and ``docs/sharding.md`` for how routing and merging work.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading

from repro.net.server import NetworkServer
from repro.serve import _generate, _parse_spec
from repro.shard.mediator import ShardedServer
from repro.shard.process import ShardCluster


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Serve XML documents sharded across worker "
                    "processes.")
    parser.add_argument("--shards", type=int, default=2,
                        help="member processes to spawn (default 2)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="mediator port; 0 picks a free one "
                             "(printed on stdout)")
    parser.add_argument("--data-dir", default=None,
                        help="directory for per-shard databases "
                             "(default: a temp dir); shard i uses "
                             "<dir>/shard-i.db, so a re-run recovers")
    parser.add_argument("--load", action="append", default=[],
                        metavar="NAME=XMLPATH",
                        help="place a document from an XML file "
                             "(repeatable)")
    parser.add_argument("--generate", action="append", default=[],
                        metavar="NAME=KIND:N",
                        help="place a synthetic document, e.g. "
                             "dblp=dblp:200 (repeatable)")
    parser.add_argument("--partition", action="append", default=[],
                        metavar="NAME",
                        help="split this document across every shard "
                             "instead of placing it whole "
                             "(repeatable)")
    parser.add_argument("--shard-workers", type=int, default=2,
                        help="worker threads per member process")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="per-member admission-control queue depth")
    parser.add_argument("--time-limit", type=float, default=30.0,
                        help="per-query deadline in seconds "
                             "(0 = unlimited)")
    parser.add_argument("--page-size", type=int, default=64,
                        help="default rows per streamed cursor page")
    parser.add_argument("--log-interval", type=float, default=30.0,
                        help="seconds between mediator stats log "
                             "lines (0 disables)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log a structured line (with the stitched "
                             "span tree, if traced) for every query "
                             "slower than this many milliseconds")
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    data_dir = args.data_dir
    if not data_dir:
        import tempfile
        data_dir = tempfile.mkdtemp(prefix="repro-shard-")
    partitioned = set(args.partition)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *__: stop.set())

    with ShardCluster.spawn(
            args.shards, data_dir, host=args.host,
            workers=args.shard_workers, max_pending=args.max_pending,
            time_limit=args.time_limit or None) as cluster:
        cluster.health_check()
        with ShardedServer(cluster.endpoints,
                           page_size=args.page_size) as mediator:
            for spec in args.load:
                name, path = _parse_spec(spec, "--load")
                mediator.load(name, path=path,
                              parts=(args.shards if name in partitioned
                                     else 1))
            for spec in args.generate:
                name, generator = _parse_spec(spec, "--generate")
                mediator.load(name, xml=_generate(generator),
                              parts=(args.shards if name in partitioned
                                     else 1))
            unknown = partitioned - {
                _parse_spec(spec, "--load/--generate")[0]
                for spec in args.load + args.generate}
            if unknown:
                raise SystemExit(f"--partition names documents that "
                                 f"were never loaded: "
                                 f"{sorted(unknown)}")
            server = NetworkServer(
                None, host=args.host, port=args.port,
                page_size=args.page_size,
                log_interval=args.log_interval,
                query_server=mediator,
                slow_query_seconds=(
                    None if args.slow_query_ms is None
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
