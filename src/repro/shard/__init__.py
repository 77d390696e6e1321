"""Sharded serving: documents partitioned across worker processes.

Python's GIL caps one process at roughly one core of query work no
matter how many worker threads :class:`~repro.core.server.QueryServer`
runs.  This package breaks that ceiling the way the deployment story
of a real DBMS does — more *processes*:

* :mod:`repro.shard.partition` — cut one XML document into contiguous
  per-shard chunks (document order preserved across the cut);
* :mod:`repro.shard.process` — spawn/health-check/terminate/restart
  ``python -m repro.serve`` member processes as a
  :class:`~repro.shard.process.ShardCluster`;
* :mod:`repro.shard.mediator` — :class:`ShardedServer`, the query
  front: routes single-document operations to the owning shard,
  decomposes multi-document and partitioned queries into per-shard
  subqueries, and merges the streamed pages back in document order;
* ``python -m repro.shard`` — the CLI: spawn a cluster, place
  documents, and serve the whole thing through one address speaking
  the ordinary wire protocol (the mediator is a
  :class:`~repro.core.server.QueryService`, so
  :class:`~repro.net.server.NetworkServer` fronts it unchanged).

The failure model is per-shard: a dead member makes *its* documents
raise :class:`~repro.errors.ShardUnavailableError` while every other
shard keeps answering, and a restarted member (same port, same
database) is healed transparently by the connection pool's retry.
"""

from repro.errors import ShardError, ShardUnavailableError
from repro.shard.mediator import (
    ALL_DOCUMENTS,
    MediatorStats,
    ShardedServer,
    statement_text,
)
from repro.shard.partition import split_document
from repro.shard.process import ShardCluster, ShardProcess

__all__ = [
    "ShardedServer",
    "ShardCluster",
    "ShardProcess",
    "MediatorStats",
    "split_document",
    "statement_text",
    "ALL_DOCUMENTS",
    "ShardError",
    "ShardUnavailableError",
]
