"""repro.obs — the unified tracing/metrics layer.

One tracer core (:mod:`repro.obs.trace`) behind every way the repo
observes itself: the legacy partition/simulate profilers are adapters
over it, the CLI ``--trace`` flag exports its span tree (human tree,
schema-versioned JSON, Chrome trace-event for Perfetto), ``repro
stats`` aggregates the cache/native counter stores, and
``tools/bench_trend.py`` gates BENCH acceptance metrics against the
committed history.
"""

from repro.obs.export import (
    FORMATS,
    from_json,
    to_chrome,
    to_json,
    tree_str,
    write_trace,
)
from repro.obs.stats import gather_stats, register_cache, register_engine, stats_text
from repro.obs.trace import (
    SCHEMA_VERSION,
    AmbientCollector,
    Span,
    Trace,
    active_trace,
    add,
    current_span,
    event,
    graft,
    now,
    record,
    span,
    tracing,
)
from repro.obs.trend import compare_bench, load_bench, trend_report, trend_text

__all__ = [
    "AmbientCollector",
    "FORMATS",
    "SCHEMA_VERSION",
    "Span",
    "Trace",
    "active_trace",
    "add",
    "compare_bench",
    "current_span",
    "event",
    "from_json",
    "gather_stats",
    "graft",
    "load_bench",
    "now",
    "record",
    "register_cache",
    "register_engine",
    "span",
    "stats_text",
    "to_chrome",
    "to_json",
    "tracing",
    "tree_str",
    "trend_report",
    "trend_text",
    "write_trace",
]
