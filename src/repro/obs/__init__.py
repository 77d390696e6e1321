"""Observability: traces, operator profiles, and the metrics registry.

Three cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — per-query :class:`TraceContext`/:class:`Span`
  trees that cross the wire and stitch a sharded query back into one
  tree, plus the structured :class:`SlowQueryLog`;
* :mod:`repro.obs.profile` — :class:`PlanProfiler`, the per-execution
  EXPLAIN ANALYZE collector behind ``ctx.profiler``;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` and the shared
  counter/gauge/:class:`LatencyHistogram` primitives, rendered as a
  Prometheus-style text page over the METRICS wire frame and by
  ``python -m repro.obs``.

This package imports only the standard library, so every other layer
may depend on it freely.
"""

from repro.obs.metrics import (Counter, Gauge, LatencyHistogram,
                               LatencySnapshot, MetricsRegistry)
from repro.obs.profile import OperatorProfile, PlanProfiler, render_profiles
from repro.obs.trace import SlowQueryLog, Span, TraceContext

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "LatencySnapshot",
    "MetricsRegistry",
    "OperatorProfile",
    "PlanProfiler",
    "SlowQueryLog",
    "Span",
    "TraceContext",
    "render_profiles",
]
