"""Shard process lifecycle: spawn, health-check, terminate, restart.

A shard is an ordinary ``python -m repro.serve`` subprocess with three
cluster-specific properties:

* it runs with ``--shard-id N`` so its HELLO_OK advertises which
  cluster slot it believes it fills (the mediator's health check
  catches a process answering on the wrong port);
* its database lives at a stable per-shard path
  (``<data-dir>/shard-N.db``), so a restarted shard recovers its
  documents from the WAL instead of starting empty;
* its stdout ``LISTENING <host> <port>`` banner is parsed by the
  spawner, which is how ``--port 0`` (kernel-assigned) clusters learn
  their own membership;
* its stderr — the structured log lines — is appended to
  ``<data-dir>/shard-N.log``, never to a pipe the spawner would have
  to keep draining.

:class:`ShardCluster` manages N of them as a unit — spawn them all,
SIGTERM them all, restart one in place on its old port and database —
which is everything ``python -m repro.shard`` and the crash tests
need.  Nothing here talks XQ; process management and the query path
(:mod:`repro.shard.mediator`) stay separate layers.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ShardError, ShardUnavailableError
from repro.net.client import NetClient

#: Seconds a set of freshly spawned shards gets, together, to print
#: their LISTENING banners.
SPAWN_TIMEOUT = 30.0


def _log_path(db_path: str) -> Path:
    """Where a member's stderr goes: ``shard-N.log`` beside
    ``shard-N.db``, appended to across restarts."""
    return Path(db_path).with_suffix(".log")


def _member_argv(index: int, db_path: str, host: str, port: int,
                 workers: int, max_pending: int,
                 time_limit: float | None,
                 extra_args: list[str] | None) -> list[str]:
    return [sys.executable, "-m", "repro.serve",
            "--host", host, "--port", str(port),
            "--db", db_path,
            "--shard-id", str(index),
            "--workers", str(workers),
            "--max-pending", str(max_pending),
            "--time-limit", str(time_limit or 0),
            "--log-interval", "0", *(extra_args or [])]


def _launch(members: list[tuple[int, list[str], str]]
            ) -> list["ShardProcess"]:
    """Start every ``(index, argv, db_path)`` member, *then* wait for
    all their ``LISTENING`` banners under one :data:`SPAWN_TIMEOUT`.

    Shared by first spawns and in-place restarts (which reuse the old
    command line with the port pinned).  Stderr goes to the member's
    log file: a pipe nobody drains blocks its writer at 64 KB.  A
    member that exits before listening, prints something else or stays
    silent past the deadline raises :class:`~repro.errors.ShardError`
    with the tail of what this start logged, after every process
    started here has been killed.
    """
    # The members must import the same ``repro`` the spawner runs —
    # regardless of the spawner's cwd or how it set its own path.
    source_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]]
                         if env.get("PYTHONPATH") else []))
    processes: list[subprocess.Popen] = []
    log_starts: list[int] = []

    def failure(position: int, what: str) -> ShardError:
        index, __, db_path = members[position]
        log_path = _log_path(db_path)
        with open(log_path, "rb") as log:
            log.seek(log_starts[position])
            tail = log.read().decode("utf-8", "replace")[-2000:]
        return ShardError(f"shard {index} {what}; {log_path}: {tail}")

    try:
        for __, argv, db_path in members:
            with open(_log_path(db_path), "ab") as log:
                log_starts.append(log.tell())
                processes.append(subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=log, env=env))
        deadline = time.monotonic() + SPAWN_TIMEOUT
        output = [b""] * len(members)
        waiting = {process.stdout.fileno(): position
                   for position, process in enumerate(processes)}
        while waiting:
            ready, __, __ = select.select(
                list(waiting), [], [],
                max(0.0, deadline - time.monotonic()))
            if not ready:
                raise failure(
                    min(waiting.values()),
                    f"printed no LISTENING banner in {SPAWN_TIMEOUT:g} s")
            for fd in ready:
                position = waiting[fd]
                chunk = os.read(fd, 4096)
                output[position] += chunk
                if not chunk:
                    raise failure(
                        position, "exited with code "
                        f"{processes[position].wait()} before listening")
                if b"\n" in output[position]:
                    del waiting[fd]
        shards = []
        for position, (index, argv, db_path) in enumerate(members):
            banner = output[position].decode("utf-8", "replace")
            parts = banner.split("\n")[0].split()
            if len(parts) != 3 or parts[0] != "LISTENING":
                raise failure(position, f"printed {banner!r}, expected "
                              "'LISTENING <host> <port>'")
            shards.append(ShardProcess(index, processes[position],
                                       parts[1], int(parts[2]),
                                       db_path, argv))
        return shards
    except BaseException:
        for process in processes:
            process.kill()
            process.wait()
        raise


class ShardProcess:
    """One shard subprocess and the address it serves.

    Created via :meth:`spawn`; holds the ``Popen`` handle, the bound
    ``(host, port)``, and the database path — enough to health-check
    it, stop it, and spawn a successor that recovers its data.
    """

    def __init__(self, index: int, process: subprocess.Popen,
                 host: str, port: int, db_path: str,
                 argv: list[str]):
        self.index = index
        self.process = process
        self.host = host
        self.port = port
        self.db_path = db_path
        #: The exact command line, for in-place restarts.
        self.argv = argv

    @classmethod
    def spawn(cls, index: int, db_path: str, host: str = "127.0.0.1",
              port: int = 0, workers: int = 2,
              max_pending: int = 64,
              time_limit: float | None = 30.0,
              extra_args: list[str] | None = None) -> "ShardProcess":
        """Start ``python -m repro.serve --shard-id index`` and wait
        for its LISTENING banner.

        ``port=0`` lets the kernel pick; the banner tells us what it
        picked.  A process that exits (or stays silent past
        ``SPAWN_TIMEOUT``) raises :class:`~repro.errors.ShardError`
        with its log tail, because a shard that cannot start is a
        deployment problem, not an unavailability blip.
        """
        argv = _member_argv(index, db_path, host, port, workers,
                            max_pending, time_limit, extra_args)
        return _launch([(index, argv, db_path)])[0]

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` the shard serves on."""
        return (self.host, self.port)

    @property
    def log_path(self) -> Path:
        """The file the shard's stderr (its log) is appended to."""
        return _log_path(self.db_path)

    def alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self.process.poll() is None

    def health_check(self, timeout: float = 5.0) -> dict:
        """Dial the shard and verify its advertised identity.

        Returns the HELLO_OK info on success.  Raises
        :class:`~repro.errors.ShardUnavailableError` when nothing
        answers, :class:`~repro.errors.ShardError` when something
        answers but claims a different ``shard_id`` — a mis-wired
        cluster must fail loudly, not route queries to the wrong data.
        """
        try:
            with NetClient(self.host, self.port,
                           timeout=timeout) as client:
                info = dict(client.server_info)
        except Exception as error:
            raise ShardUnavailableError(
                f"shard {self.index} at {self.host}:{self.port} "
                f"failed its health check: {error}",
                shard=self.index) from error
        advertised = info.get("shard_id")
        if advertised != self.index:
            raise ShardError(
                f"process at {self.host}:{self.port} advertises "
                f"shard_id {advertised!r}, expected {self.index}")
        return info

    def terminate(self, timeout: float = 10.0) -> int:
        """SIGTERM the shard and wait; escalate to SIGKILL on timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode

    def kill(self) -> int:
        """SIGKILL the shard — the crash the failure tests inject."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        return self.process.returncode


class ShardCluster:
    """N shard processes managed as one unit."""

    def __init__(self, shards: list[ShardProcess], data_dir: str):
        self.shards = shards
        self.data_dir = data_dir

    @classmethod
    def spawn(cls, count: int, data_dir: str, host: str = "127.0.0.1",
              workers: int = 2, max_pending: int = 64,
              time_limit: float | None = 30.0,
              extra_args: list[str] | None = None) -> "ShardCluster":
        """Start ``count`` shards with databases under ``data_dir``.

        Shard ``i`` serves ``<data_dir>/shard-i.db`` on a
        kernel-assigned port and logs to ``<data_dir>/shard-i.log``.
        All members are started before any banner is awaited, so
        bring-up costs one start-up, not ``count``; if any member
        fails to start, every one is killed before the error
        propagates — no half-spawned clusters.
        """
        if count < 1:
            raise ShardError(f"count must be >= 1, got {count}")
        Path(data_dir).mkdir(parents=True, exist_ok=True)
        members = []
        for index in range(count):
            db_path = str(Path(data_dir) / f"shard-{index}.db")
            members.append((index, _member_argv(
                index, db_path, host, 0, workers, max_pending,
                time_limit, extra_args), db_path))
        return cls(_launch(members), data_dir)

    @property
    def endpoints(self) -> list[tuple[str, int]]:
        """The ``(host, port)`` list, in shard-id order — what a
        :class:`~repro.shard.mediator.ShardedServer` takes."""
        return [shard.address for shard in self.shards]

    def health_check(self) -> dict[int, dict]:
        """Health-check every member; see
        :meth:`ShardProcess.health_check`."""
        return {shard.index: shard.health_check()
                for shard in self.shards}

    def restart(self, index: int, timeout: float = 10.0) -> ShardProcess:
        """Stop shard ``index`` (if alive) and respawn it in place.

        The successor binds the *same* port and reopens the *same*
        database, so its documents come back through WAL recovery and
        the mediator's pooled connections heal on their next retry —
        no catalog change, no client-visible re-membership.
        """
        old = self.shards[index]
        old.terminate(timeout=timeout)
        argv = list(old.argv)
        argv[argv.index("--port") + 1] = str(old.port)
        fresh, = _launch([(index, argv, old.db_path)])
        self.shards[index] = fresh
        return fresh

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM every member concurrently, then reap them all."""
        for shard in self.shards:
            if shard.process.poll() is None:
                shard.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for shard in self.shards:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                shard.process.kill()
                shard.process.wait()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
