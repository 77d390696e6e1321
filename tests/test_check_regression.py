"""The CI perf-gate script: floors, duplicate metrics, unbaselined
metrics.

Loads ``benchmarks/check_regression.py`` by path (the benchmarks
directory is not a package).
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    return write_json(tmp_path / "baseline.json", {
        "tolerance": 0.2,
        "metrics": {"suite.speedup": 2.0}})


class TestLoadMetrics:
    def test_merges_files(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"metrics": {"m1": 1.0}})
        b = write_json(tmp_path / "b.json", {"metrics": {"m2": 2.0}})
        assert check_regression.load_metrics([a, b]) == \
            {"m1": 1.0, "m2": 2.0}

    def test_duplicate_metric_raises(self, tmp_path):
        """A later file must not silently overwrite an earlier metric —
        that could mask a regression in whichever file loses."""
        a = write_json(tmp_path / "a.json", {"metrics": {"m": 9.0}})
        b = write_json(tmp_path / "b.json", {"metrics": {"m": 0.1}})
        with pytest.raises(check_regression.DuplicateMetricError):
            check_regression.load_metrics([a, b])


class TestMain:
    def test_passing_run(self, tmp_path, baseline, capsys):
        bench = write_json(tmp_path / "BENCH_x.json",
                           {"metrics": {"suite.speedup": 2.5}})
        assert check_regression.main(
            ["--baseline", baseline, bench]) == 0
        assert "ok   suite.speedup" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, baseline):
        bench = write_json(tmp_path / "BENCH_x.json",
                           {"metrics": {"suite.speedup": 1.0}})
        assert check_regression.main(
            ["--baseline", baseline, bench]) == 1

    def test_missing_metric_fails(self, tmp_path, baseline):
        bench = write_json(tmp_path / "BENCH_x.json", {"metrics": {}})
        assert check_regression.main(
            ["--baseline", baseline, bench]) == 1

    def test_duplicate_metric_fails_run(self, tmp_path, baseline):
        a = write_json(tmp_path / "BENCH_a.json",
                       {"metrics": {"suite.speedup": 2.5}})
        b = write_json(tmp_path / "BENCH_b.json",
                       {"metrics": {"suite.speedup": 2.6}})
        assert check_regression.main(
            ["--baseline", baseline, a, b]) == 1

    def test_unbaselined_metric_warns_but_passes(self, tmp_path, baseline,
                                                 capsys):
        bench = write_json(tmp_path / "BENCH_x.json", {"metrics": {
            "suite.speedup": 2.5, "suite.new_metric": 1.3}})
        assert check_regression.main(
            ["--baseline", baseline, bench]) == 0
        out = capsys.readouterr().out
        assert "WARN suite.new_metric" in out
        assert "no committed floor" in out


def test_every_gated_suite_has_a_committed_floor():
    """A BENCH file the CI gate checks but baseline.json has no floor
    for would only ever WARN — e.g. ``BENCH_loader.json`` without its
    ``loader.*`` floor."""
    root = _SCRIPT.parent.parent
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    gate = workflow[workflow.index("check_regression.py"):]
    suites = set(re.findall(r"BENCH_(\w+)\.json", gate))
    floors = json.loads((root / "benchmarks" / "baseline.json").read_text(
        encoding="utf-8"))["metrics"]
    assert "loader" in suites
    for suite in suites:
        assert any(name.startswith(f"{suite}.") for name in floors), suite
