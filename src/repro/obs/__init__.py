"""repro.obs -- tracing, metrics, profiling and benchmarking.

The observability layer of the reproduction: a hierarchical span
tracer (:mod:`repro.obs.trace`), a metrics registry of counters,
gauges and fixed-bucket histograms (:mod:`repro.obs.metrics`), an
opt-in per-stage profiler with cProfile + tracemalloc capture
(:mod:`repro.obs.prof`), the per-run :class:`Context` that bundles
the three and is installed per thread (:mod:`repro.obs.context`), the
benchmark-result schema and the regression check the perf gates share
(:mod:`repro.obs.bench`), the exporters that turn them into Chrome
trace-event JSON / speedscope profiles / text reports /
``metrics.json`` (:mod:`repro.obs.export`), and the ``logging``
configuration for the ``repro`` logger hierarchy
(:mod:`repro.obs.logsetup`).

Tracing, metrics and profiling are disabled by default and
near-zero-cost in that state; the CLI's ``--trace`` / ``--metrics`` /
``--profile`` flags (or a ``with use(Context(...))`` block) opt in::

    from repro.obs import Context, Profiler, Tracer, use
    from repro.obs.export import write_chrome_trace, write_profile

    run = Context(tracer=Tracer(), profiler=Profiler())
    with use(run):
        ...run the flow...
    write_chrome_trace("trace.json", run.tracer)   # open in ui.perfetto.dev
    write_profile("profile-out", run.profiler)     # open in speedscope.app

The submodules load on first use (``from repro.obs import metrics``, or
any name below), so a conversion that only counts and traces never
imports the exporters or the benchmark schema.
"""

import importlib
from typing import Any

#: public name -> the submodule that defines it
_EXPORTS = {
    "check_regression": "bench",
    "machine_metadata": "bench",
    "Context": "context",
    "current": "context",
    "use": "context",
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

_SUBMODULES = (
    "bench", "context", "export", "logsetup", "metrics", "prof", "trace",
    "vcd",
)

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
