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

The submodules load on first use (``from repro.obs import metrics``, or
any name below), so a conversion that only counts and traces never
imports the exporters or the benchmark store.
"""

import importlib
from typing import Any

#: public name -> the submodule that defines it
_EXPORTS = {
    "BenchResult": "bench",
    "check_regression": "bench",
    "machine_metadata": "bench",
    "aggregate_spans": "export",
    "chrome_trace_events": "export",
    "collapsed_stacks": "export",
    "handshake_trace_events": "export",
    "phase_times": "export",
    "profile_document": "export",
    "profile_report": "export",
    "prometheus_text": "export",
    "speedscope_document": "export",
    "summary_report": "export",
    "trace_document": "export",
    "write_chrome_trace": "export",
    "write_handshake_trace": "export",
    "write_metrics": "export",
    "write_profile": "export",
    "configure_logging": "logsetup",
    "get_logger": "logsetup",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "NS_BUCKETS": "metrics",
    "Profiler": "prof",
    "StageProfile": "prof",
    "NULL_SPAN": "trace",
    "Span": "trace",
    "Tracer": "trace",
    "VcdWriter": "vcd",
    "read_vcd": "vcd",
}

_SUBMODULES = ("bench", "export", "logsetup", "metrics", "prof", "trace", "vcd")

__all__ = sorted((*_EXPORTS, *_SUBMODULES))


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    owner = _EXPORTS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value
