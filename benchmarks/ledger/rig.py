"""The rig: seeded inputs, the m1 oracle, and the systems under test.

Everything the ledger measures is built here from the generated XML
text and nothing else: an in-process :class:`~repro.core.dbms.XmlDbms`
(``inproc_*``), one ``python -m repro.serve`` subprocess (``wire_*``)
or one ``python -m repro.shard`` subprocess tree (``shard_fanout``).
Servers run in their own process group on a kernel-assigned port and
are reaped on every exit path; all files live under ``out/`` next to
this module, so a run never writes outside its checkout.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.dbms import XmlDbms
from repro.net import NetClient
from repro.storage.pager import PAGE_SIZE as DB_PAGE_SIZE
from repro.storage.wal import default_wal_path
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.treebank import TreebankConfig, generate_treebank
from repro.xmlkit.dom import Text
from repro.xmlkit.parser import parse
from repro.xq import eval_memory
from repro.xq.parser import parse_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Rows per page on every cursor the harness opens (wire FETCH size and
#: the in-process ``Cursor.fetch`` size), so "first page" means the
#: same thing at every depth.
PAGE_SIZE = 256
#: Per-op deadline: passed to the program as ``time_limit`` and used as
#: the socket timeout, so a wedged op fails instead of hanging the run.
OP_TIMEOUT = 20.0
#: Seconds a spawned server gets to print its LISTENING banner.
SPAWN_TIMEOUT = 60.0

BENCH_COUNTER = "bench-counter"
BENCH_NOTE = "bench-note"


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``full`` is what BENCHMARK.json is measured at;
    ``tiny`` exists for the smoke test only."""

    name: str
    articles: int
    inproceedings: int
    name_pool: int
    sentences: int
    #: Buffer-pool frames for ``inproc_spill`` (``inproc_fit`` and the
    #: servers hold the whole database).
    spill_pages: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: Repetitions per stair in the traced staircase.
    stair_reps: int


SCALES = {
    # Half of the issue's 600/180/40 + 120: the contract caps a run at
    # ~30 s including three set-ups, and the issue asks to shrink by
    # one factor rather than drop a workload.
    "full": Scale("full", articles=300, inproceedings=90, name_pool=40,
                  sentences=60, spill_pages=48, setups=3, stair_reps=15),
    "tiny": Scale("tiny", articles=24, inproceedings=8, name_pool=8,
                  sentences=5, spill_pages=32, setups=1, stair_reps=2),
}
FIT_PAGES = 4096


def make_data(seed: int, scale: Scale) -> dict[str, str]:
    """The two input documents, as XML text, from ``seed`` alone."""
    rng = random.Random(seed)
    dblp_seed, treebank_seed = rng.getrandbits(31), rng.getrandbits(31)
    return {
        "dblp": generate_dblp(DblpConfig(
            articles=scale.articles, inproceedings=scale.inproceedings,
            name_pool=scale.name_pool, seed=dblp_seed)),
        "treebank": generate_treebank(TreebankConfig(
            sentences=scale.sentences, seed=treebank_seed)),
    }


class Oracle:
    """The milestone-1 in-memory evaluator over the parsed input text.

    It never touches storage, the planner or the wire, so a digest that
    matches it proves the whole stack below the client."""

    def __init__(self, data: dict[str, str]):
        self.doms = {name: parse(xml) for name, xml in data.items()}

    def nodes(self, document: str, text: str,
              bindings: dict[str, str] | None = None) -> list:
        """The result sequence of ``text`` on ``document``."""
        env = {name: Text(value)
               for name, value in (bindings or {}).items()}
        return list(eval_memory.stream(parse_program(text).body,
                                       self.doms[document],
                                       environment=env))

    def expect(self, document: str, text: str,
               bindings: dict[str, str] | None = None) -> str:
        """SHA-1 of the serialised result."""
        return digest(eval_memory.serialize_result(
            self.nodes(document, text, bindings)))

    def texts(self, document: str, label: str) -> list[str]:
        """Distinct text values under ``//label``, sorted — the pools
        the point lookups rotate over, read back from the input."""
        nodes = self.nodes(
            document, f"for $t in //{label}/text() return $t")
        return sorted({node.text for node in nodes})


def digest(text: str) -> str:
    """SHA-1 of serialised result text."""
    return hashlib.sha1(text.encode()).hexdigest()


# -- scratch space ---------------------------------------------------------


class Scratch:
    """A temp dir under ``out/`` that is removed on every exit path."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self._count = 0
        atexit.register(self.remove)

    def subdir(self, stem: str) -> Path:
        """A fresh, empty directory for one set-up."""
        self._count += 1
        path = self.path / f"{stem}-{self._count}"
        path.mkdir()
        return path

    def remove(self) -> None:
        """Delete the tree (idempotent)."""
        shutil.rmtree(self.path, ignore_errors=True)


# -- CPU placement ---------------------------------------------------------
#
# Sized for two cores: the load generator gets the first CPU it may run
# on, a server the last, and the two shard members one each (mediator
# and client float).  Server threads hold one interpreter lock, so a
# second core buys them nothing but lock hand-offs across cores — left
# to the scheduler, that alone moved every latency by a fifth from run
# to run.  With a single CPU nothing is pinned.

CPUS = sorted(os.sched_getaffinity(0))
#: Where ``repro.serve`` is pinned (``None``: one CPU, nothing pinned).
SERVER_CPU = CPUS[-1] if len(CPUS) > 1 else None


def pin_harness() -> None:
    """Keep the load generator off the server's CPU."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[0]})


def _pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of a running process."""
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(task), {cpu})
    except OSError:
        pass


# -- server subprocesses ---------------------------------------------------

_LIVE: set["ServerProcess"] = set()


def _reap_all() -> None:
    for server in list(_LIVE):
        server.stop(kill=True)


def install_reaper() -> None:
    """Reap every live server at exit and on SIGTERM/SIGINT/SIGHUP."""
    atexit.register(_reap_all)

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _exit)


def _group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def _listening_ports(pid: int) -> list[int]:
    """TCP ports ``pid`` listens on (from ``/proc``).

    ``python -m repro.shard`` prints only the mediator's port; this is
    how the harness finds the members to read their METRICS pages."""
    inodes = set()
    try:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                target = os.readlink(f"/proc/{pid}/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:["):
                inodes.add(target[8:-1])
        with open(f"/proc/{pid}/net/tcp") as handle:
            rows = [line.split() for line in handle.readlines()[1:]]
    except OSError:
        return []
    return [int(row[1].rsplit(":", 1)[1], 16) for row in rows
            if row[3] == "0A" and row[9] in inodes]


class ServerProcess:
    """One ``python -m repro.serve`` / ``repro.shard`` process group."""

    def __init__(self, module: str, args: list[str],
                 pin_to: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, "--port", "0",
             "--log-interval", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, start_new_session=True)
        _LIVE.add(self)
        if pin_to is not None:
            # Before the child has started a thread, so all inherit it.
            os.sched_setaffinity(self.process.pid, {pin_to})
        self.host, self.port = self._await_banner()

    def _await_banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        fd = self.process.stdout.fileno()
        banner = b""
        while b"\n" not in banner and time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                banner += chunk
            elif self.process.poll() is not None:
                break
        parts = banner.decode(errors="replace").split()
        if len(parts) != 3 or parts[0] != "LISTENING":
            self.stop(kill=True)
            raise RuntimeError(f"server printed {banner!r}, expected "
                               f"'LISTENING <host> <port>'")
        return parts[1], int(parts[2])

    @property
    def pgid(self) -> int:
        """The process group (== the leader's pid)."""
        return self.process.pid

    def member_ports(self) -> list[int]:
        """Listening ports of the leader's children (shard members)."""
        ports = []
        for pid in _group_pids(self.pgid):
            if pid != self.process.pid:
                ports.extend(_listening_ports(pid))
        return sorted(ports)

    def peak_rss_mb(self) -> float:
        """Sum of the group's resident-set high-water marks."""
        total_kb = 0
        for pid in _group_pids(self.pgid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, kill: bool = False) -> None:
        """Stop the whole group and wait until every member has ended.

        ``kill=True`` is SIGKILL at once (the crash test, and error
        paths); otherwise SIGTERM, so a mediator reaps its own members,
        with SIGKILL after ten seconds."""
        if self not in _LIVE:
            return
        _LIVE.discard(self)
        self._signal(signal.SIGKILL if kill else signal.SIGTERM)
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._signal(signal.SIGKILL)
            self.process.wait()
        deadline = time.monotonic() + 10
        while _group_pids(self.pgid):
            if time.monotonic() > deadline:
                self._signal(signal.SIGKILL)
                deadline = time.monotonic() + 10
            time.sleep(0.01)
        self.process.stdout.close()

    def _signal(self, signum: int) -> None:
        try:
            os.killpg(self.pgid, signum)
        except ProcessLookupError:
            pass


# -- environments ----------------------------------------------------------


def _stored_bytes(db_paths: list[str]) -> int:
    total = 0
    for path in db_paths:
        for name in (path, default_wal_path(path)):
            if os.path.exists(name):
                total += os.path.getsize(name)
    return total


class InprocEnv:
    """An in-process database holding both documents."""

    kind = "inproc"

    def __init__(self, data: dict[str, str], directory: Path,
                 capacity: int):
        self.capacity = capacity
        self.db_path = str(directory / "ledger.db")
        self.dbms = XmlDbms(self.db_path, buffer_capacity=capacity)
        self.load_seconds = {}
        for name, xml in data.items():
            started = time.perf_counter()
            self.dbms.load(name, xml=xml)
            self.load_seconds[name] = time.perf_counter() - started
        self.session = self.dbms.session()

    def db_pages(self) -> int:
        """Database file size in pages."""
        return os.path.getsize(self.db_path) // self.dbms.db.pager.page_size

    def stored_bytes(self) -> int:
        """Database plus WAL bytes on disk."""
        self.dbms.db.buffer_pool.flush()
        return _stored_bytes([self.db_path])

    def peak_rss_mb(self) -> float:
        """The harness process itself: it *is* the system here.

        A lifetime high-water mark, like a server's ``VmHWM``: it holds
        the interpreter, the load and the run.  One process runs one
        workload once, and the oracle is dropped before the first
        set-up, so nothing but this workload is in it."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def buffer_counters(self) -> dict[str, int]:
        """Buffer-pool counters (hits, misses, evictions, writebacks)."""
        stats = self.dbms.buffer_stats
        return {"hits": stats.hits, "misses": stats.misses,
                "evictions": stats.evictions,
                "dirty_writebacks": stats.dirty_writebacks}

    def close(self) -> None:
        """Close the database (idempotent)."""
        if self.dbms is not None:
            self.dbms.close()
            self.dbms = None


def _metrics_page(client: NetClient) -> dict[str, float]:
    page = {}
    for line in client.metrics().splitlines():
        name, _, value = line.partition(" ")
        try:
            page[name] = float(value)
        except ValueError:
            continue
    return page


class ServerEnv:
    """A served database: ``repro.serve`` or the ``repro.shard`` tree."""

    def __init__(self, kind: str, data: dict[str, str], directory: Path):
        self.kind = kind
        self.directory = directory
        load_args = []
        for name, xml in data.items():
            path = directory / f"{name}.xml"
            path.write_text(xml, encoding="utf-8")
            load_args += ["--load", f"{name}={path}"]
        if kind == "serve":
            self.db_paths = [str(directory / "serve.db")]
            self.server = ServerProcess("repro.serve", [
                "--db", self.db_paths[0], "--workers", "2",
                "--buffer-capacity", str(FIT_PAGES), *load_args],
                pin_to=SERVER_CPU)
        else:
            data_dir = directory / "cluster"
            self.db_paths = [str(data_dir / f"shard-{index}.db")
                             for index in range(2)]
            self.server = ServerProcess("repro.shard", [
                "--shards", "2", "--data-dir", str(data_dir),
                "--partition", "dblp", *load_args])
            if len(CPUS) > 1:
                members = [pid for pid in _group_pids(self.server.pgid)
                           if pid != self.server.pgid]
                for pid, cpu in zip(sorted(members),
                                    (CPUS[0], CPUS[-1]), strict=False):
                    _pin_process(pid, cpu)
        self._clients: list[NetClient] = []
        self._members: list[NetClient] | None = None

    def connect(self) -> NetClient:
        """A new connection to the front door."""
        client = NetClient(self.server.host, self.server.port,
                           timeout=OP_TIMEOUT)
        self._clients.append(client)
        return client

    def control(self) -> NetClient:
        """A connection for STATS/METRICS, separate from the load."""
        if not self._clients:
            return self.connect()
        return self._clients[0]

    def members(self) -> list[NetClient]:
        """Connections to the processes that own a buffer pool: the
        server itself, or each shard member behind the mediator."""
        if self._members is None:
            if self.kind == "serve":
                self._members = [self.connect()]
            else:
                self._members = [
                    NetClient(self.server.host, port, timeout=OP_TIMEOUT)
                    for port in self.server.member_ports()]
                self._clients.extend(self._members)
        return self._members

    def buffer_counters(self) -> dict[str, int]:
        """Buffer-pool counters summed over the member processes."""
        total = {"hits": 0, "misses": 0, "evictions": 0,
                 "dirty_writebacks": 0}
        for member in self.members():
            page = _metrics_page(member)
            for key in total:
                total[key] += int(page.get(
                    f"repro_storage_buffer_{key}", 0))
        return total

    def db_pages(self) -> int:
        """Database file size in pages, summed over members."""
        return sum(os.path.getsize(path) for path in self.db_paths
                   if os.path.exists(path)) // DB_PAGE_SIZE

    def stored_bytes(self) -> int:
        """Database plus WAL bytes on disk, summed over members."""
        return _stored_bytes(self.db_paths)

    def peak_rss_mb(self) -> float:
        """Summed over the harness-owned server processes."""
        return self.server.peak_rss_mb()

    def close(self, kill: bool = False) -> None:
        """Drop the connections and stop the process group."""
        for client in self._clients:
            client.close()
        self._clients.clear()
        self._members = None
        self.server.stop(kill=kill)


#: Ops in one cycle of the read sequence: every class in its weight,
#: every heavy slot twice (see ``ops.read_sequence``).
CYCLE_OPS = 70


@dataclass(frozen=True)
class Workload:
    """One workload's shape and its fixed amount of work.

    The counts are what a run at BENCHMARK.json's ``run_seconds`` does
    (``--seconds`` scales them): the same ops on every commit, sized so
    that the seed commit's timed phase takes about that long here."""

    #: ``inproc``, ``serve`` or ``shard``.
    kind: str
    #: Buffer-pool frames; ``None`` is the scale's ``spill_pages``.
    pool_pages: int | None
    #: Connections in all; with ``updates``, the last one writes.
    connections: int
    #: Cycles of ``CYCLE_OPS`` reads each reading connection runs.
    cycles: int
    #: Updates the writing connection runs.
    updates: int = 0


WORKLOADS = {
    "inproc_fit": Workload("inproc", FIT_PAGES, 1, cycles=14),
    "inproc_spill": Workload("inproc", None, 1, cycles=12),
    "wire_read": Workload("serve", FIT_PAGES, 2, cycles=6),
    # Eight cycles are 112 heavy reads: the fewest that leave ten
    # samples beyond ``heavy_p90_ms``.  The writer's count makes it
    # finish with the reader on the seed commit.
    "wire_mixed_rw": Workload("serve", FIT_PAGES, 2, cycles=8,
                              updates=520),
    "shard_fanout": Workload("shard", FIT_PAGES, 1, cycles=12),
}


def build_env(workload: str, data: dict[str, str], scratch: Scratch,
              scale: Scale):
    """Load/spawn the system ``workload`` runs against."""
    shape = WORKLOADS[workload]
    directory = scratch.subdir(workload)
    if shape.kind == "inproc":
        return InprocEnv(data, directory,
                         shape.pool_pages or scale.spill_pages)
    return ServerEnv(shape.kind, data, directory)
