"""Observability overhead and flow profile (the repro.obs layer).

Three questions: (1) what does enabled tracing plus metrics cost on a
real conversion, (2) what does the per-phase profile of a traced DLX
desynchronization look like, and (3) what does an enabled profiler
capture on the reduced DLX flow, and what does its machinery cost?

The tracing+metrics cost is timed over interleaved disabled/enabled
pairs (arm order alternating, a fresh design per conversion, a
collected heap before each timed run) and reported as each arm's
median and quartiles; it is recorded, not gated.

The disabled profiler path is not timed: the default context already
carries a disabled profiler, so an A/B against an explicitly entered
disabled one compares a path with itself.  That a disabled profiler
captures nothing is checked in ``tests/test_perf_observatory.py``.

Emits ``obs_profile.txt``, ``obs_overhead.json`` and
``obs_profiler_overhead.json`` (stamped with the ``repro-bench/v1``
schema) under ``benchmarks/results/``.
"""

import gc
import statistics
import time

from conftest import emit, emit_json, run_once, stamp_result

from repro.desync import Drdesync
from repro.engine import FlowEngine
from repro.obs import (
    Context,
    MetricsRegistry,
    Profiler,
    Tracer,
    phase_times,
    profile_report,
    summary_report,
    use,
)

#: interleaved disabled/enabled pairs behind the tracing+metrics cost
OVERHEAD_PAIRS = 10


def _convert(library, module):
    return Drdesync(library, engine=FlowEngine()).run(module)


def _spread(samples):
    """Median and quartiles of one arm's wall times, in seconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": round(median, 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
    }


def test_obs_overhead_and_profile(benchmark, hs_library, dlx_factory):
    kwargs = dict(registers=8, multiplier=False, width=16)

    def timed(context):
        module = dlx_factory(**kwargs)
        gc.collect()
        start = time.perf_counter()
        with use(context):
            result = _convert(hs_library, module)
        return time.perf_counter() - start, result

    # warm-up conversion so both arms see hot caches alike
    timed(Context())

    samples = {"disabled": [], "enabled": []}
    for pair in range(OVERHEAD_PAIRS):
        arms = ["disabled", "enabled"]
        if pair % 2:
            arms.reverse()
        for arm in arms:
            context = (
                Context(tracer=Tracer(), registry=MetricsRegistry())
                if arm == "enabled"
                else Context()
            )
            samples[arm].append(timed(context)[0])

    # one more traced run for the span profile
    observed = Context(tracer=Tracer(), registry=MetricsRegistry())
    _, result = run_once(benchmark, lambda: timed(observed))
    tracer, registry = observed.tracer, observed.registry
    phases = phase_times(tracer)
    report = summary_report(tracer)

    assert result.network.controllers
    assert len(tracer) > 10
    assert {"group", "ffsub", "ddg", "network"} <= set(phases)
    assert registry.snapshot()["counters"]["desync.ffsub.replaced"] > 0

    disabled = _spread(samples["disabled"])
    enabled = _spread(samples["enabled"])
    base = disabled["median"]
    overhead_pct = round(100.0 * (enabled["median"] - base) / base, 2)
    overhead = {
        "bench": "obs_overhead",
        "design": "dlx_small",
        "pairs": OVERHEAD_PAIRS,
        "instrumentation_disabled_s": disabled,
        "instrumentation_enabled_s": enabled,
        "tracing_overhead_pct": overhead_pct,
        "span_count": len(tracer),
        "phases_s": phases,
    }
    stamp_result(
        overhead,
        "obs_overhead",
        {"tracing_overhead_pct": overhead_pct},
    )
    emit_json("obs_overhead", overhead)

    emit(
        "obs_profile",
        "DLX desynchronization span profile (repro.obs)\n"
        f"median of {OVERHEAD_PAIRS} interleaved pairs: disabled "
        f"{disabled['median']:.3f}s vs traced {enabled['median']:.3f}s "
        f"({overhead_pct:+.1f}%)\n\n" + report,
    )


def test_enabled_profiler_overhead_estimate(
    benchmark, hs_library, dlx_factory
):
    """An enabled profiler gives every engine stage a hot table, and
    its machinery overhead estimate lands in the report footers."""
    kwargs = dict(registers=8, multiplier=False, width=16)
    profiler = Profiler(enabled=True)
    with use(Context(profiler=profiler)):
        start = time.perf_counter()
        result = run_once(
            benchmark, lambda: _convert(hs_library, dlx_factory(**kwargs))
        )
        profiled_s = time.perf_counter() - start

    assert result.network.controllers
    assert len(profiler) > 5, "engine stages were not profiled"
    assert all(p.hot for p in profiler.profiles())
    estimate = profiler.overhead_estimate()
    assert estimate["profiled_wall_s"] > 0
    assert "profiler:" in summary_report(profiler=profiler)
    assert "profiler machinery overhead" in profile_report(profiler)

    payload = {
        "bench": "obs_profiler",
        "design": "dlx_small",
        "profiled_s": round(profiled_s, 4),
        "profiled_stages": len(profiler),
        "machinery_overhead_s": round(estimate["machinery_s"], 6),
    }
    stamp_result(
        payload,
        "obs_profiler",
        {"machinery_overhead_pct": round(100.0 * estimate["fraction"], 3)},
    )
    emit_json("obs_profiler_overhead", payload)
