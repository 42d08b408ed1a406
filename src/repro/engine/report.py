"""Human-readable run reports and machine-readable engine statistics.

``render_report`` turns one :class:`~repro.engine.executor.FlowResult`
into the text table an operator reads after a run; ``engine_stats``
aggregates any number of results (plus the cache counters) into the
JSON document benchmarks persist as ``engine-stats.json`` so the
performance trajectory -- stage timings, cache hit rate -- is tracked
across PRs.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

from .cache import ArtifactCache
from .executor import FlowResult, StageStatus

if TYPE_CHECKING:  # the exporters load only when a tracer is passed
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import Tracer


def render_report(result: FlowResult) -> str:
    """One run as a fixed-width status table."""
    lines = [
        f"== flow {result.name!r}: {len(result.records)} stages, "
        f"{result.wall_time:.3f}s wall ==",
        f"{'stage':28s} {'status':8s} {'time (s)':>9s} {'cpu (s)':>9s} "
        f"{'cache':>6s} {'tries':>6s}  detail",
    ]
    for record in result.records.values():
        detail = ""
        if record.metrics:
            parts = [
                f"{key}: {value['cells']} cells"
                for key, value in record.metrics.items()
                if isinstance(value, dict) and "cells" in value
            ]
            detail = ", ".join(parts)
        if record.error_text:
            detail = record.error_text
        lines.append(
            f"{record.name:28s} {record.status.value:8s} "
            f"{record.duration:>9.3f} {record.cpu:>9.3f} {record.cache:>6s} "
            f"{record.attempts:>6d}  {detail}"
        )
    counts = result.summary()
    cached = counts.get("cached", 0)
    failed = counts.get("failed", 0) + counts.get("timeout", 0)
    lines.append(
        f"-- {cached} cached, {failed} failed, "
        f"{counts.get('skipped', 0)} skipped --"
    )
    return "\n".join(lines)


def engine_stats(
    results: Iterable[FlowResult],
    cache: Optional[ArtifactCache] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Aggregate per-stage timings and cache accounting across runs.

    With a :class:`~repro.obs.trace.Tracer` and/or
    :class:`~repro.obs.metrics.MetricsRegistry` attached, the document
    also carries the aggregated span tree (``"trace"``) and the metric
    snapshot (``"metrics"``), so ``engine-stats.json`` tracks the
    fine-grained observability data alongside the stage timings.
    """
    stages: Dict[str, Dict[str, Any]] = {}
    runs = 0
    wall = 0.0
    for result in results:
        runs += 1
        wall += result.wall_time
        for record in result.records.values():
            entry = stages.setdefault(
                record.name,
                {"runs": 0, "cached": 0, "failed": 0, "total_s": 0.0},
            )
            entry["runs"] += 1
            entry["total_s"] += record.duration
            if record.status is StageStatus.CACHED:
                entry["cached"] += 1
            elif record.status in (StageStatus.FAILED, StageStatus.TIMEOUT):
                entry["failed"] += 1
    for entry in stages.values():
        executed = entry["runs"] - entry["cached"]
        entry["total_s"] = round(entry["total_s"], 6)
        entry["mean_s"] = round(
            entry["total_s"] / executed if executed else 0.0, 6
        )
    stats: Dict[str, Any] = {
        "runs": runs,
        "wall_s": round(wall, 6),
        "stages": {name: stages[name] for name in sorted(stages)},
    }
    if cache is not None:
        stats["cache"] = cache.stats.as_dict()
    if tracer is not None:
        from ..obs.export import aggregate_spans

        stats["trace"] = aggregate_spans(tracer)
    if registry is not None:
        stats["metrics"] = registry.snapshot()
    return stats


def write_engine_stats(
    path: str,
    results: Iterable[FlowResult],
    cache: Optional[ArtifactCache] = None,
    extra: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Persist :func:`engine_stats` (plus ``extra`` fields) as JSON."""
    stats = engine_stats(results, cache, tracer=tracer, registry=registry)
    if extra:
        stats.update(extra)
    with open(path, "w") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return stats
