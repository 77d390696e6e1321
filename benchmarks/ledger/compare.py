"""Compare two ledger files: ``compare.py A.json B.json``.

A and B are ``run.py --repeat K --out FILE`` outputs (A the parent, B
the change).  Every (workload, metric) pair an untraced run measures
gets one row with both medians, quartiles and sample counts, judged
against the metric's bound:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but A's own run-to-run spread (distance
  between its quartiles over its median) exceeds the bound, so "no
  regression" cannot be told from noise;
* ``unchanged`` — within the bound, and A is steady enough to say so;
* ``better`` — B's median is better than A's by more than A's spread.

The end-to-end metrics of ``BENCHMARK.json`` are the gate: a regression
there, or an ``error_rate`` that rose in any run, makes the exit status
1.  The rows of ``extras.json`` (the end-to-end candidates this sandbox
is too noisy to gate, with the bounds ISSUE 11 fixed, and the
``update_*`` pair of ``wire_mixed_rw``) are judged the same way and
marked ``*``; they inform and do not decide the exit status.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def judge(a: list[float], b: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """Verdict and B's change as a share of A's median (+ is worse)."""
    a_low, a_median, a_high = _quartiles(a)
    b_median = statistics.median(b)
    if a_median == 0:
        return ("unchanged" if b_median == 0 else "unresolved"), 0.0
    worse = (b_median - a_median) / abs(a_median)
    if better == "higher":
        worse = -worse
    spread = (a_high - a_low) / abs(a_median)
    if worse > bound:
        return "REGRESSION", worse
    if spread > bound:
        return "unresolved", worse
    if -worse > spread:
        return "better", worse
    return "unchanged", worse


def compare(a: dict, b: dict, gate: list[dict], extras: list[dict]
            ) -> tuple[list[str], bool]:
    """Rows of the report and whether the gate failed."""
    rows = [f"{'workload':<15}{'metric':<20}{'A median [q1,q3] n':<36}"
            f"{'B median [q1,q3] n':<36}{'worse by':>8}  verdict"]
    failed = False
    for workload in a["runs"]:
        runs_a, runs_b = a["runs"][workload], b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            rows.append(f"{workload:<15}missing in one file")
            failed = True
            continue
        for metric in gate + extras:
            name = metric["name"]
            if name == "error_rate":
                continue
            values_a = [run[name] for run in runs_a if name in run]
            values_b = [run[name] for run in runs_b if name in run]
            if not values_a or not values_b:
                continue
            verdict, worse = judge(values_a, values_b, metric["better"],
                                   metric["bound"])
            if metric in gate:
                failed = failed or verdict == "REGRESSION"
            else:
                verdict += " *"
            cells = []
            for values in (values_a, values_b):
                low, median, high = _quartiles(values)
                cells.append(f"{median:.4g} [{low:.4g},{high:.4g}] "
                             f"n={len(values)}")
            rows.append(f"{workload:<15}{name:<20}{cells[0]:<36}"
                        f"{cells[1]:<36}{worse:>+8.1%}  {verdict}")
        errors_a = max(run.get("error_rate", 0.0) for run in runs_a)
        errors_b = max(run.get("error_rate", 0.0) for run in runs_b)
        if errors_b > errors_a:
            rows.append(f"{workload:<15}error_rate rose: {errors_a:.4g} "
                        f"-> {errors_b:.4g}  REGRESSION")
            failed = True
    return rows, failed


def main(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        gate = json.load(handle)["end_to_end"]
    with open(HERE / "extras.json", encoding="utf-8") as handle:
        extras = json.load(handle)["end_to_end"]
    rows, failed = compare(documents[0], documents[1], gate, extras)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
