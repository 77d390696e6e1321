"""Shard process bring-up: real ``python -m repro.serve`` members (and
stubs standing in for broken ones) under :mod:`repro.shard.process`.

* a member's log goes to ``<data-dir>/shard-N.log``, so it can write any
  amount of it without wedging on a full pipe;
* a cluster's members are all started before the first banner is
  awaited, and they share one ``SPAWN_TIMEOUT``;
* a member that stays silent, exits early or prints something else
  fails the spawn with a typed error and leaves no process behind.
"""

import os
import select
import subprocess
import sys
import time

import pytest

from repro.errors import ShardError
from repro.net import NetClient
from repro.shard import ShardCluster, process as shard_process

#: What a pipe holds before its writer blocks (Linux default).
PIPE_CAPACITY = 64 * 1024


def stub(code):
    return [sys.executable, "-c", code]


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def started(monkeypatch):
    """Every ``Popen`` the spawner makes, in order."""
    processes = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        processes.append(real_popen(*args, **kwargs))
        return processes[-1]

    monkeypatch.setattr(shard_process.subprocess, "Popen", recording_popen)
    return processes


def test_member_logs_past_a_pipe_buffer_without_wedging(tmp_path):
    """Every query logs a slow-query line; with stderr on an undrained
    pipe the member blocked in ``write`` at 64 KB and the next query
    timed out."""
    with ShardCluster.spawn(1, str(tmp_path), extra_args=[
            "--slow-query-ms", "0"]) as cluster:
        shard = cluster.shards[0]
        assert shard.log_path == tmp_path / "shard-0.log"
        with NetClient(*shard.address, timeout=20.0) as client:
            client.load("d", xml="<r><a>x</a></r>")
            for __ in range(2000):
                assert client.query("d", "//a") == "<a>x</a>"
                if shard.log_path.stat().st_size > 2 * PIPE_CAPACITY:
                    break
        assert shard.log_path.stat().st_size > 2 * PIPE_CAPACITY
        # Appended to, not truncated, by an in-place restart.
        before = shard.log_path.stat().st_size
        assert cluster.restart(0).log_path.stat().st_size >= before


def test_every_member_is_started_before_a_banner_is_awaited(
        tmp_path, monkeypatch, started):
    real_select = select.select
    started_at_first_wait = []

    def recording_select(*args):
        started_at_first_wait.append(len(started))
        return real_select(*args)

    monkeypatch.setattr(shard_process.select, "select", recording_select)
    with ShardCluster.spawn(3, str(tmp_path)) as cluster:
        assert started_at_first_wait[0] == 3
        assert [shard.process for shard in cluster.shards] == started
        assert sorted(cluster.health_check()) == [0, 1, 2]


def test_silent_member_times_out_and_takes_the_rest_down(
        tmp_path, monkeypatch, started):
    """``readline()`` on a live, silent member used to block forever."""
    monkeypatch.setattr(shard_process, "SPAWN_TIMEOUT", 1.0)
    listening = stub("import time; print('LISTENING 127.0.0.1 1', "
                     "flush=True); time.sleep(60)")
    silent = stub("import sys, time; print('warming up', "
                  "file=sys.stderr, flush=True); time.sleep(60)")
    began = time.monotonic()
    with pytest.raises(ShardError, match=r"shard 1 printed no LISTENING "
                       r"banner in 1 s.*shard-1\.log.*warming up"):
        shard_process._launch([
            (0, listening, str(tmp_path / "shard-0.db")),
            (1, silent, str(tmp_path / "shard-1.db"))])
    assert time.monotonic() - began < 10.0
    assert len(started) == 2
    assert not any(alive(process.pid) for process in started)


def test_early_exit_reports_the_code_and_this_starts_log_tail(tmp_path):
    (tmp_path / "shard-4.log").write_text("from an earlier run\n")
    dying = stub("import sys; sys.exit('no such database')")
    with pytest.raises(ShardError) as info:
        shard_process._launch([(4, dying, str(tmp_path / "shard-4.db"))])
    message = str(info.value)
    assert "shard 4 exited with code 1 before listening" in message
    assert "no such database" in message
    assert "earlier run" not in message
    assert (tmp_path / "shard-4.log").read_text().startswith("from an")


def test_wrong_banner_is_rejected(tmp_path):
    chatty = stub("import time; print('hello', flush=True); time.sleep(60)")
    with pytest.raises(ShardError, match="printed 'hello"):
        shard_process._launch([(0, chatty, str(tmp_path / "shard-0.db"))])
