"""Observability layer: span tracing and a metrics registry.

``repro.obs`` gives the reproduction the internal visibility the paper's
methodology is built on: per-operator time attribution (:mod:`.tracer`)
and aggregate utilization/latency distributions (:mod:`.registry`).

Everything defaults off via :data:`NULL_TRACER`; see ``DESIGN.md``
("Observability layer") for the span taxonomy and how traces relate to the
paper's figures.
"""

from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_all,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "merge_all",
]
