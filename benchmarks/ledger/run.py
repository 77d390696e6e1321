"""The perf ledger: one command, five workloads, every metric by name.

Contract mode (what ``BENCHMARK.json`` names and a driver runs)::

    python3 benchmarks/ledger/run.py --workload wire_read --seed 7 \\
        --seconds 10 --trace 0

runs one workload once, prints ``name value unit`` per metric and ends
with one JSON object holding ``correct``, ``attempted``, ``failed`` and
the declared metrics — the end-to-end set with ``--trace 0``, the
per-layer set with ``--trace 1``.  The work is a fixed op count per
workload (``rig.WORKLOADS``), sized to take about ``run_seconds`` on
the seed commit; ``--seconds`` scales it.

Ledger mode (no ``--workload``) runs all five workloads ``--repeat``
times in alternating order, each run in a process of its own, with
``--trace 1`` adds one traced run each (the staircase once, with
``shard_fanout``), and writes every per-run value plus the run metadata
to ``--out`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: {SRC}/repro not found — run from a checkout that "
             f"holds the program's source")
sys.path.insert(0, str(SRC))

from rig import (  # noqa: E402
    CPUS,
    OUT,
    SCALES,
    WORKLOADS,
    install_reaper,
    pin_harness,
)
from workload import (  # noqa: E402
    RunResult,
    planned,
    run_traced,
    run_untraced,
)

#: The workload whose traced run carries the staircase in ledger mode:
#: its top stair is the call this workload times.
STAIRS_WITH = "shard_fanout"


def declared() -> dict:
    """BENCHMARK.json, the declaration of names, units and bounds, with
    ``extras.json`` folded in: the end-to-end metrics BENCHMARK.json's
    schema has no room for (each names the ``workloads`` it is measured
    on; ``error_rate`` is the contract's ``failed / attempted``)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(HERE / "extras.json", encoding="utf-8") as handle:
        spec["extras"] = json.load(handle)["end_to_end"]
    return spec


def metadata(args, spec: dict) -> dict:
    """Run metadata, carried in every output file (not metrics)."""
    from repro.analysis.config import LOCK_HIERARCHY
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    share = args.seconds / spec["run_seconds"]
    return {
        "meta.seed": args.seed, "meta.scale": args.scale,
        "meta.seconds": args.seconds,
        "meta.op_counts": {
            name: dict(zip(("reads_per_connection", "updates"),
                           planned(name, share), strict=True),
                       reading_connections=shape.connections
                       - bool(shape.updates))
            for name, shape in WORKLOADS.items()},
        "meta.scale_config": vars(SCALES[args.scale]),
        "meta.nproc": os.cpu_count(),
        "meta.cpus": CPUS,
        "meta.python": platform.python_version(),
        "meta.platform": platform.platform(),
        "meta.git_sha": sha,
        "meta.src_lines": lines,
        "meta.lock_sites": len(LOCK_HIERARCHY),
    }


def report(result: RunResult, traced: bool, spec: dict) -> dict:
    """Print one run's declared metrics; returns the contract's final
    JSON object (``result.metrics`` is cut down to what is declared)."""
    section = spec["per_layer" if traced else "end_to_end"]
    names = [metric["name"] for metric in section]
    extras = [] if traced else [
        metric["name"] for metric in spec["extras"]
        if result.workload in metric.get("workloads", WORKLOADS)]
    undeclared = sorted(set(result.metrics) - set(names + extras))
    result.metrics = {name: result.metrics[name]
                      for name in names + extras if name in result.metrics}
    for name, (value, unit) in result.metrics.items():
        mark = "   # extras.json" if name in extras else ""
        print(f"{name} {value:.6g} {unit}{mark}")
    for key, value in result.info.items():
        print(f"# {key}: {value}")
    for note in result.notes:
        print(f"# {note}")
    for cls in ("heavy", "point"):
        if cls in result.tables:
            print(f"# waterfall, {cls} query "
                  f"(stair / median ms / tax over the stair below):")
            for stair, median, tax in result.tables[cls]:
                print(f"#   {stair:<12}{median:10.3f}{tax:10.3f}")
    if result.tables.get("undeclared_operators"):
        print(f"# operator classes seen but not declared: "
              f"{result.tables['undeclared_operators']}")
    if undeclared:
        print(f"# measured but not declared for this run: {undeclared}")
    missing = [name for name in names + extras
               if name not in result.metrics]
    if missing:
        print(f"# missing declared metrics: {missing}")
    return {
        "correct": result.correct and not missing,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in names if name in result.metrics},
    }


def one_run(args, spec: dict) -> int:
    """Contract mode: one run of one workload in this process."""
    install_reaper()
    pin_harness()
    share = args.seconds / spec["run_seconds"]
    scale = SCALES[args.scale]
    if args.trace:
        result = run_traced(args.workload, args.seed, share, scale,
                            stairs=not args.replay_only)
        result.recorder.dump(OUT / "trace.json")
        if args.replay_only:
            spec = dict(spec, per_layer=[
                metric for metric in spec["per_layer"]
                if metric["name"] in result.metrics])
    else:
        result = run_untraced(args.workload, args.seed, share, scale)
    final = report(result, bool(args.trace), spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"correct": final["correct"],
                       "metrics": {name: value for name, (value, _)
                                   in result.metrics.items()},
                       "info": result.info,
                       "waterfall": {cls: result.tables[cls]
                                     for cls in ("heavy", "point")
                                     if cls in result.tables}}, handle)
    print(json.dumps(final))
    return 0


def _child(args, workload: str, trace: int, handoff: str) -> dict:
    """One contract-mode run in its own process (so that a workload's
    memory and caches are its own); returns what it wrote to ``--out``."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale, "--out", handoff]
    if trace and workload != STAIRS_WITH:
        command.append("--replay-only")
    subprocess.run(command, check=True)
    with open(handoff, encoding="utf-8") as handle:
        return json.load(handle)


def ledger(args, spec: dict) -> int:
    """All five workloads, ``--repeat`` times, alternating order."""
    document = {"meta": metadata(args, spec),
                "runs": {name: [] for name in WORKLOADS},
                "traced": {}, "info": {}}
    good = True
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        handoff = os.path.join(scratch, "run.json")
        for repeat in range(args.repeat):
            order = list(WORKLOADS)[::1 if repeat % 2 == 0 else -1]
            for workload in order:
                print(f"== {workload} (untraced run {repeat + 1})",
                      flush=True)
                run = _child(args, workload, 0, handoff)
                good = good and run["correct"]
                document["runs"][workload].append(run["metrics"])
                document["info"][workload] = run["info"]
        if args.trace:
            for workload in WORKLOADS:
                print(f"== {workload} (traced run)", flush=True)
                run = _child(args, workload, 1, handoff)
                good = good and run["correct"]
                document["traced"][workload] = {
                    "metrics": run["metrics"],
                    "waterfall": run["waterfall"]}
    out = Path(args.out or OUT / "ledger.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"# wrote {out}")
    return 0 if good else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="scales the fixed op counts: the seed "
                             "commit's timed phase takes about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer run (ledger mode: one "
                             "traced run per workload after the others)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="ledger mode: untraced runs per workload")
    parser.add_argument("--out",
                        help="where the per-run values go (ledger mode "
                             "default: out/ledger.json)")
    parser.add_argument("--scale", choices=list(SCALES), default="full",
                        help="'tiny' is for the smoke test only")
    parser.add_argument("--replay-only", action="store_true",
                        help="with --trace 1: skip the staircase, which "
                             "is the same on every workload (ledger "
                             "mode runs it once)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return ledger(args, spec)
    return one_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
