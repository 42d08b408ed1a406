"""repro.obs -- tracing, metrics, profiling and benchmarking.

The observability layer of the reproduction: a hierarchical span
tracer (:mod:`repro.obs.trace`), a metrics registry of counters,
gauges and fixed-bucket histograms (:mod:`repro.obs.metrics`), an
opt-in per-stage profiler with cProfile + tracemalloc capture
(:mod:`repro.obs.prof`), the unified benchmark-result schema, history
store and statistical regression detector (:mod:`repro.obs.bench`),
the exporters that turn them into Chrome trace-event JSON / speedscope
profiles / text reports / ``metrics.json`` (:mod:`repro.obs.export`),
and the ``logging`` configuration for the ``repro`` logger hierarchy
(:mod:`repro.obs.logsetup`).

Tracing, metrics and profiling are disabled by default and
near-zero-cost in that state; the CLI's ``--trace`` / ``--metrics`` /
``--profile`` flags (or an explicit ``set_tracer`` / ``set_registry``
/ ``set_profiler``) opt in::

    from repro.obs import trace, metrics, prof
    from repro.obs.export import write_chrome_trace, write_profile

    trace.set_tracer(trace.Tracer())
    prof.set_profiler(prof.Profiler())
    ...run the flow...
    write_chrome_trace("trace.json")      # open in ui.perfetto.dev
    write_profile("profile-out")          # open in speedscope.app
"""

from . import bench, export, logsetup, metrics, prof, trace, vcd
from .bench import BenchResult, check_regression, machine_metadata
from .export import (
    aggregate_spans,
    chrome_trace_events,
    collapsed_stacks,
    handshake_trace_events,
    phase_times,
    profile_document,
    profile_report,
    prometheus_text,
    speedscope_document,
    summary_report,
    trace_document,
    write_chrome_trace,
    write_handshake_trace,
    write_metrics,
    write_profile,
)
from .logsetup import configure_logging, get_logger
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, NS_BUCKETS
from .prof import Profiler, StageProfile
from .trace import NULL_SPAN, Span, Tracer
from .vcd import VcdWriter, read_vcd

__all__ = [
    "BenchResult",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NS_BUCKETS",
    "NULL_SPAN",
    "Profiler",
    "Span",
    "StageProfile",
    "Tracer",
    "VcdWriter",
    "aggregate_spans",
    "bench",
    "check_regression",
    "chrome_trace_events",
    "collapsed_stacks",
    "configure_logging",
    "export",
    "get_logger",
    "handshake_trace_events",
    "logsetup",
    "machine_metadata",
    "metrics",
    "phase_times",
    "prof",
    "profile_document",
    "profile_report",
    "prometheus_text",
    "read_vcd",
    "speedscope_document",
    "summary_report",
    "trace",
    "trace_document",
    "vcd",
    "write_chrome_trace",
    "write_handshake_trace",
    "write_metrics",
    "write_profile",
]
