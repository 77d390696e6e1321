"""The network front door: wire protocol, threaded server, client.

This package puts the in-process serving layer
(:class:`~repro.core.server.QueryServer`) behind a TCP socket:

* :mod:`repro.net.protocol` — the length-prefixed binary frame codec
  and the typed message vocabulary (HELLO, PREPARE, EXECUTE, FETCH,
  UPDATE, CLOSE, STATS, ERROR), including the mapping that carries the
  library's exception taxonomy across the wire;
* :mod:`repro.net.server` — a thread-per-connection front end owning
  connection lifecycle and per-connection statement/cursor tables in
  front of the worker pool;
* :mod:`repro.net.client` — a blocking client library used by the
  tests, examples and benchmarks;
* :mod:`repro.net.pool` — a reconnecting connection pool, the building
  block the shard mediator (:mod:`repro.shard`) uses to survive shard
  restarts.

Start a server from the command line with ``python -m repro.serve``,
or a sharded cluster with ``python -m repro.shard``.
"""

from repro.net.client import NetClient, RemoteCursor, RemoteStatement
from repro.net.pool import ConnectionPool
from repro.net.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    MsgKind,
    decode_error,
    encode_error,
    encode_frame,
)
from repro.net.server import NetworkServer

__all__ = [
    "NetworkServer",
    "NetClient",
    "RemoteStatement",
    "RemoteCursor",
    "ConnectionPool",
    "MsgKind",
    "FrameDecoder",
    "encode_frame",
    "encode_error",
    "decode_error",
    "PROTOCOL_VERSION",
    "MAX_FRAME",
]
