#!/usr/bin/env python3
"""Print the size numbers ROADMAP aim 2 tracks, one per line.

Usage: ``python tools/tracked_numbers.py``.
Standard library only; the test count needs pytest and says so when it
is missing.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.analysis.config import LOCK_HIERARCHY  # noqa: E402

sources = {path: path.read_text(encoding="utf-8")
           for path in sorted(SRC.rglob("*.py"))}
pools = stats_classes = 0
for text in sources.values():
    tree = ast.parse(text)
    stats_classes += sum(
        isinstance(node, ast.ClassDef)
        and node.name.endswith(("Stats", "Metrics")) for node in tree.body)
    # A pool is an executor, or threads started several at once by a
    # ``for`` loop or comprehension; an accept loop starting one thread
    # per connection is not one.
    pools += len(re.findall(r"\bThreadPoolExecutor\(", text))
    pools += sum(
        "threading.Thread(" in ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.ListComp)))
collected = subprocess.run(
    [sys.executable, "-m", "pytest", "--collect-only", "-q"], cwd=ROOT,
    env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
    text=True)
tests = re.search(r"^(\d+) tests? collected", collected.stdout, re.M)

print("src lines:", sum(text.count("\n") for text in sources.values()))
print("declared lock sites:", len(LOCK_HIERARCHY))
print("thread pools:", pools)
print("stats classes:", stats_classes)
print("guarded-by annotations:", sum(
    len(re.findall(r"^\s*# guarded by:", text, re.M))
    for text in sources.values()))
print("tests:", tests.group(1) if tests else "unavailable (needs pytest)")
