"""Smoke test: the ledger runs end to end and says what it declares.

All five workloads and the traced staircase at ``--scale tiny``, through
the command line a driver uses.  The names each run emits must be
exactly the names ``BENCHMARK.json`` (and ``extras.json``, for the
workloads it names) declares — none missing, none undeclared — each
with its declared unit.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXTRAS = json.loads(
    (HERE / "extras.json").read_text(encoding="utf-8"))["end_to_end"]
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


#: One traced run is enough: the staircase spawns a server and a shard
#: tree whatever the workload, so every layer metric is exercised.
RUNS = [(workload, 0) for workload in WORKLOADS] + [("wire_mixed_rw", 1)]


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    """Per run: the final JSON line and the ``--out`` document.  The
    runs overlap to stay quick."""
    scratch = tmp_path_factory.mktemp("ledger")

    def run(which: tuple[str, int]) -> subprocess.CompletedProcess:
        workload, trace = which
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
             "--scale", "tiny",
             "--out", str(scratch / f"{workload}-{trace}.json")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)

    with ThreadPoolExecutor(len(RUNS)) as pool:
        processes = list(pool.map(run, RUNS))
    out = {}
    for (workload, trace), process in zip(RUNS, processes, strict=True):
        assert process.returncode == 0, (workload, process.stderr[-2000:])
        written = json.loads((scratch / f"{workload}-{trace}.json")
                             .read_text(encoding="utf-8"))
        out[workload, trace] = (
            json.loads(process.stdout.strip().splitlines()[-1]), written)
    return out


def _check(final: dict, written: dict, section: str,
           extras: set[str]) -> None:
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC[section]}
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True, final
    assert final["failed"] == 0 and final["attempted"] >= 1
    emitted = {name: metric["unit"]
               for name, metric in final["metrics"].items()}
    assert emitted == declared
    assert set(written["metrics"]) == set(declared) | extras
    for name, metric in final["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_declared_end_to_end_metrics(
        results, workload):
    extras = {metric["name"] for metric in EXTRAS
              if workload in metric.get("workloads", WORKLOADS)}
    _check(*results[workload, 0], "end_to_end", extras)


def test_traced_run_emits_the_declared_per_layer_metrics(results):
    _check(*results["wire_mixed_rw", 1], "per_layer", set())


def test_declared_names_are_unique_and_well_formed():
    gate = [metric["name"] for metric in SPEC["end_to_end"]]
    names = gate + [metric["name"]
                    for metric in SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    # What an untraced run measures beyond the gate; a candidate too
    # noisy to gate is in ``per_layer`` as well, never in the gate.
    extras = [metric["name"] for metric in EXTRAS]
    assert len(gate + extras) == len(set(gate + extras))
    names += extras
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert SPEC["paths"] == ["benchmarks/ledger"]
