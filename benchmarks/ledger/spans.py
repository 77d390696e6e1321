"""The harness's own spans: name, start, end, parent, op id.

Spans are recorded from outside the program, around the calls the
harness makes into each layer; they stay in memory and are written to
``out/trace.json`` when the run ends.  A disabled recorder hands out one
shared no-op span, so the untraced run pays a method call and nothing
else — the difference between the two runs is
``obs.traced_run_overhead_ratio``.
"""

from __future__ import annotations

import json
import threading
import time


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder, record):
        self.recorder = recorder
        self.record = record

    def note(self, **attributes) -> None:
        """Attach attributes (rows, ok, …) to the span."""
        self.record.update(attributes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.record["end"] = time.perf_counter()
        self.recorder._stack().pop()


class _NoSpan:
    def note(self, **attributes) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


_NO_SPAN = _NoSpan()


class Recorder:
    """Collects spans; one stack per thread, one list for all."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, detail: str = ""):
        """Open a span under the calling thread's current one.

        A span named ``op`` starts a new op id; its children share it."""
        if not self.enabled:
            return _NO_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            if parent is None:
                self._next_op += 1
                op = self._next_op
            else:
                op = parent["op"]
            record = {"id": index, "name": name, "detail": detail,
                      "parent": None if parent is None else parent["id"],
                      "op": op, "start": 0.0, "end": 0.0}
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        return _Span(self, record)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus what child spans cover."""
        covered = dict.fromkeys(range(len(self.spans)), 0.0)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record in self.spans:
            own = record["end"] - record["start"] - covered[record["id"]]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def dump(self, path) -> None:
        """Write every span as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter", "spans": self.spans},
                      handle)
            handle.write("\n")
