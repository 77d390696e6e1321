"""Unified metrics: counters, gauges, histograms, and the registry.

Every serving layer keeps its own live counters (``ServerStats`` in the
worker pool, ``_NetMetrics`` on the TCP front end, ``MediatorStats`` in
the shard mediator, MVCC/WAL/buffer-pool counters in storage).  This
module does not replace those structures — they are good at being
cheap, lock-sharded write paths — it unifies how they are *read*: each
layer registers a producer callable under a prefix, and the registry
flattens whatever nested numeric snapshot the producer returns into one
``prefix.key.subkey -> value`` map, rendered as a Prometheus-style text
page (served over the METRICS wire frame and pretty-printed by
``python -m repro.obs``).

``LatencyHistogram`` lives here (moved out of ``core/server.py``, which
re-exports it for compatibility): a fixed-bucket log2-of-microseconds
histogram whose percentiles are bucket upper bounds clamped into the
observed ``[min, max]`` range — they over-report by at most 2x and
never invent values outside what was recorded.

Everything in this package imports only the standard library, so any
layer of the system may depend on it without cycles.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "LatencySnapshot",
    "MetricsRegistry",
]


class Counter:
    """A thread-safe monotonically increasing counter.

    Calling the instance returns its value, so a counter can be handed
    to ``MetricsRegistry.register`` directly as its own producer.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __call__(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe point-in-time value (may go up or down).

    Like :class:`Counter`, instances are callable so they can serve as
    their own registry producer.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self, value: float = 0.0) -> None:
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._value = value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __call__(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class LatencySnapshot:
    """Summary of a latency distribution, all times in milliseconds."""

    count: int = 0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "mean_ms": self.mean_ms,
                "p50_ms": self.p50_ms, "p90_ms": self.p90_ms,
                "p99_ms": self.p99_ms, "max_ms": self.max_ms}


class LatencyHistogram:
    """Fixed-bucket latency histogram with cheap thread-safe recording.

    Buckets are powers of two in microseconds (bucket ``i`` holds
    ``[2**i, 2**(i+1))`` µs), so 64 buckets cover sub-microsecond to
    ~584000 years.  A reported percentile is the upper bound of the
    bucket holding that rank, clamped into the observed ``[min, max]``
    range: it over-reports by at most 2x, is exact for a single sample,
    and never exceeds the largest value actually recorded (values past
    the top bucket all land in bucket 63 and clamp to the true max).
    """

    BUCKETS = 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._counts = [0] * self.BUCKETS
        # guarded by: self._lock
        self._count = 0
        # guarded by: self._lock
        self._sum = 0.0
        # guarded by: self._lock
        self._min = float("inf")
        # guarded by: self._lock
        self._max = 0.0

    def record(self, seconds: float) -> None:
        """Record one observation, clamped below at one microsecond."""
        micros = max(1, int(seconds * 1e6))
        index = min(micros.bit_length() - 1, self.BUCKETS - 1)
        value = max(seconds, 0.0)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._mean_locked()

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def _mean_locked(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def _percentile_locked(self, fraction: float) -> float:
        if not self._count:
            return 0.0
        rank = min(self._count, max(1, math.ceil(fraction * self._count)))
        seen = 0
        index = self.BUCKETS - 1
        for i, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                index = i
                break
        upper = (1 << (index + 1)) / 1e6
        return min(max(upper, self._min), self._max)

    def percentile(self, fraction: float) -> float:
        """Upper-bound estimate of the ``fraction`` quantile in seconds.

        Returns 0.0 for an empty histogram.  Any fraction maps to at
        least rank 1 (so p99 of a single sample is that sample, not an
        empty walk), and the bucket bound is clamped into the observed
        ``[min, max]``.
        """
        with self._lock:
            return self._percentile_locked(fraction)

    def snapshot(self) -> LatencySnapshot:
        """An immutable summary (milliseconds) of the distribution.

        All six statistics come from one critical section, so the
        snapshot is internally consistent even while other threads
        record (count, mean, and percentiles agree on the same
        population).
        """
        with self._lock:
            if not self._count:
                return LatencySnapshot()
            return LatencySnapshot(
                count=self._count,
                mean_ms=round(self._mean_locked() * 1e3, 3),
                p50_ms=round(self._percentile_locked(0.50) * 1e3, 3),
                p90_ms=round(self._percentile_locked(0.90) * 1e3, 3),
                p99_ms=round(self._percentile_locked(0.99) * 1e3, 3),
                max_ms=round(self._max * 1e3, 3),
            )


#: Characters Prometheus metric names may not contain.
_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def _flatten(prefix: str, value: object,
             out: Dict[str, float]) -> None:
    """Collect numeric leaves of a nested mapping under dotted keys."""
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float)):
        out[prefix] = value
        return
    if isinstance(value, Mapping):
        for key, nested in value.items():
            _flatten(f"{prefix}.{key}", nested, out)
    # Strings, lists, and anything else are not metrics: skipped.


class MetricsRegistry:
    """One read surface over every layer's live counters.

    Layers register a *producer* — a zero-argument callable returning a
    (possibly nested) mapping of numbers, or a bare number — under a
    unique prefix.  :meth:`collect` calls every producer and flattens
    the results into a single ``prefix.key.subkey -> value`` map;
    :meth:`render_text` turns that into a Prometheus-style text page.
    A producer that raises is skipped for that collection (a broken
    layer must not take the whole metrics page down) and counted in
    ``registry.producer_errors``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # guarded by: self._lock
        self._producers: Dict[str, Callable[[], object]] = {}
        # guarded by: self._lock
        self._producer_errors = 0

    def register(self, prefix: str,
                 producer: Callable[[], object]) -> None:
        """Register ``producer`` under ``prefix`` (replaces any prior)."""
        if not prefix:
            raise ValueError("metrics prefix must be non-empty")
        with self._lock:
            self._producers[prefix] = producer

    def unregister(self, prefix: str) -> None:
        """Drop the producer at ``prefix`` (missing is not an error)."""
        with self._lock:
            self._producers.pop(prefix, None)

    def prefixes(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._producers))

    def collect(self) -> Dict[str, float]:
        """Flattened ``prefix.key -> value`` map across all producers.

        Producers run outside the registry lock (they may take their
        own layer's locks; holding ours too would order locks across
        unrelated subsystems).
        """
        with self._lock:
            producers = list(self._producers.items())
        flat: Dict[str, float] = {}
        for prefix, producer in producers:
            try:
                value = producer()
            except Exception:
                with self._lock:
                    self._producer_errors += 1
                continue
            _flatten(prefix, value, flat)
        with self._lock:
            flat["registry.producer_errors"] = self._producer_errors
        return flat

    @staticmethod
    def metric_name(key: str) -> str:
        """The Prometheus-style name for a flattened dotted key."""
        return "repro_" + _NAME_SANITIZER.sub("_", key)

    def render_lines(self) -> Iterator[str]:
        """Yield ``repro_<name> <value>`` lines, sorted by name."""
        collected = self.collect()
        for key in sorted(collected):
            value = collected[key]
            if isinstance(value, float):
                rendered = repr(round(value, 6))
            else:
                rendered = str(value)
            yield f"{self.metric_name(key)} {rendered}"

    def render_text(self) -> str:
        """The full metrics page as Prometheus-style text."""
        return "\n".join(self.render_lines()) + "\n"
