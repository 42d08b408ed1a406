"""Exporters: Chrome trace-event JSON, text summaries, metrics files.

``write_chrome_trace`` emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:
one complete (``"ph": "X"``) event per finished span, with timestamps
in microseconds, plus thread-name metadata so each thread (the
caller's, or the service worker running a job) is labelled.  Perfetto
reconstructs the span tree from the per-thread ts/dur nesting, so the
exported file shows in-stage spans stacked under their engine stage
exactly as they ran.

``summary_report`` renders the aggregated tree as text (the poor
operator's flame graph), with a footer admitting bounded-retention
span drops and the profiler's machinery overhead when either is
non-zero; ``write_metrics`` persists a
:class:`repro.obs.metrics.MetricsRegistry` snapshot; ``phase_times``
extracts per-stage wall times (the ``BENCH_obs.json`` payload) from a
tracer or from a previously written trace file.

Profiler exports live here too: :func:`speedscope_document` folds a
:class:`repro.obs.prof.Profiler`'s per-stage call graphs into one
`speedscope <https://www.speedscope.app>`_ JSON file (one sampled
profile per stage, weights in seconds), :func:`collapsed_stacks`
emits Brendan Gregg collapsed-stack text for ``flamegraph.pl``-style
tooling, and :func:`profile_document` bundles the per-stage
hot-function tables with the speedscope payload -- the body of the
service daemon's ``GET /jobs/<id>/profile``.  cProfile records a call
*graph*, not stack samples; each function's self time is attributed
to one representative stack built by following its heaviest caller
chain, so widths are exact per function and approximate per path.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .context import current
from .metrics import MetricsRegistry
from .prof import Profiler
from .prof import _func_label as _frame_label
from .trace import Tracer

#: speedscope's published file-format schema URL
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: span-name prefix the engine gives to stage spans
STAGE_PREFIX = "stage:"


def chrome_trace_events(tracer: Optional[Tracer] = None) -> List[Dict[str, Any]]:
    """Finished spans as a list of Chrome trace-event dicts."""
    tracer = tracer if tracer is not None else current().tracer
    pid = os.getpid()
    trace_id = getattr(tracer, "trace_id", None)
    events: List[Dict[str, Any]] = []
    thread_names: Dict[int, str] = {}
    for span in tracer.finished():
        thread_names.setdefault(span.thread_id, span.thread_name)
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((tracer.epoch + span.start) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": span.thread_id,
        }
        if span.attrs or trace_id is not None:
            args = {k: _jsonable(v) for k, v in span.attrs.items()}
            if trace_id is not None:
                args["trace_id"] = trace_id
            event["args"] = args
        events.append(event)
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return events


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def trace_document(tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """A tracer's spans as one Perfetto-loadable trace-event document.

    ``otherData`` carries the tracer's ``trace_id`` and dropped-span
    count when present, so a service trace names the job it belongs to
    and admits when its ring buffer clipped history.
    """
    tracer = tracer if tracer is not None else current().tracer
    other: Dict[str, Any] = {"producer": "repro.obs"}
    trace_id = getattr(tracer, "trace_id", None)
    if trace_id is not None:
        other["trace_id"] = trace_id
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        other["dropped_spans"] = dropped
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Write the tracer's spans as a Chrome trace-event JSON file."""
    document = trace_document(tracer)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


def aggregate_spans(tracer: Optional[Tracer] = None) -> Dict[str, Dict[str, Any]]:
    """Per-path aggregation: count, total/self wall time, mean.

    Self time is the span's duration minus its direct children's, i.e.
    where the wall clock actually went.
    """
    tracer = tracer if tracer is not None else current().tracer
    spans = tracer.finished()
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.duration
    out: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        entry = out.setdefault(
            span.path,
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "depth": span.depth},
        )
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_time.get(id(span), 0.0)
    for entry in out.values():
        entry["total_s"] = round(entry["total_s"], 6)
        entry["self_s"] = round(max(entry["self_s"], 0.0), 6)
        entry["mean_s"] = round(entry["total_s"] / entry["count"], 6)
    return out


def _retention_footer(
    tracer: Tracer, profiler: Optional[Profiler]
) -> List[str]:
    """Truncation/overhead admissions for :func:`summary_report`."""
    lines: List[str] = []
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        lines.append(
            f"(dropped {dropped} span(s) beyond the "
            f"max_spans={tracer.max_spans} retention ring)"
        )
    if profiler is not None and len(profiler):
        overhead = profiler.overhead_estimate()
        lines.append(
            f"(profiler: {len(profiler)} stage profile(s), machinery "
            f"overhead {overhead['machinery_s']:.4f}s, "
            f"{overhead['fraction'] * 100:.2f}% of profiled wall"
        )
        if profiler.dropped:
            lines[-1] += f", {profiler.dropped} profile(s) dropped"
        lines[-1] += ")"
    return lines


def summary_report(
    tracer: Optional[Tracer] = None,
    profiler: Optional[Profiler] = None,
) -> str:
    """Aggregated span tree as indented text, heaviest paths first.

    The footer surfaces the tracer's dropped-span count and the
    profiler's overhead estimate so bounded retention is visible
    instead of silent.  ``profiler`` defaults to the effective one.
    """
    tracer = tracer if tracer is not None else current().tracer
    if profiler is None:
        profiler = current().profiler
    footer = _retention_footer(tracer, profiler)
    aggregated = aggregate_spans(tracer)
    if not aggregated:
        return "\n".join(["(no spans recorded)"] + footer)
    lines = [
        f"{'span':44s} {'count':>6s} {'total (s)':>10s} "
        f"{'self (s)':>10s} {'mean (s)':>10s}"
    ]
    # depth-first over the path hierarchy, siblings by total time
    def children_of(path: Optional[str]) -> List[str]:
        prefix = f"{path}/" if path else ""
        depth = path.count("/") + 1 if path else 0
        found = [
            p
            for p in aggregated
            if p.startswith(prefix) and p.count("/") == depth
        ]
        return sorted(found, key=lambda p: -aggregated[p]["total_s"])

    def emit(path: str) -> None:
        entry = aggregated[path]
        label = "  " * entry["depth"] + path.rsplit("/", 1)[-1]
        lines.append(
            f"{label:44s} {entry['count']:>6d} {entry['total_s']:>10.4f} "
            f"{entry['self_s']:>10.4f} {entry['mean_s']:>10.4f}"
        )
        for child in children_of(path):
            emit(child)

    for root in children_of(None):
        emit(root)
    return "\n".join(lines + footer)


def phase_times(
    tracer: Optional[Tracer] = None,
    trace_file: Optional[str] = None,
    prefix: str = STAGE_PREFIX,
) -> Dict[str, float]:
    """Wall seconds per engine stage (``stage:*`` spans).

    Reads either a live tracer or a Chrome trace file written earlier
    by :func:`write_chrome_trace` -- the CI smoke job uses the latter
    to build ``BENCH_obs.json`` from the uploaded trace artifact.
    """
    totals: Dict[str, float] = {}
    if trace_file is not None:
        with open(trace_file) as handle:
            document = json.load(handle)
        for event in document.get("traceEvents", []):
            name = event.get("name", "")
            if event.get("ph") == "X" and name.startswith(prefix):
                totals[name[len(prefix):]] = (
                    totals.get(name[len(prefix):], 0.0)
                    + event.get("dur", 0.0) / 1e6
                )
    else:
        tracer = tracer if tracer is not None else current().tracer
        for span in tracer.finished():
            if span.name.startswith(prefix):
                totals[span.name[len(prefix):]] = (
                    totals.get(span.name[len(prefix):], 0.0) + span.duration
                )
    return {name: round(total, 6) for name, total in sorted(totals.items())}


def handshake_trace_events(probe) -> List[Dict[str, Any]]:
    """Token-flow slices from a :class:`repro.sim.probes.HandshakeProbe`.

    One Perfetto track (tid) per region: each handshake cycle is a
    ``token`` complete-event slice and its stall-attribution segments
    nest underneath it (same tid, contained ts/dur), so the waterfall
    shows *why* each region's cycle took as long as it did.  Timestamps
    map simulation nanoseconds to trace microseconds 1:1000, i.e. the
    viewer's "1 ms" is one simulated microsecond.
    """
    pid = 1
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "handshake"},
        }
    ]
    for tid, region in enumerate(sorted(probe.regions), start=1):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"region {region}"},
            }
        )
        state = probe.regions[region]
        for index, cycle in enumerate(state.cycles):
            start, end = cycle["start"], cycle["end"]
            events.append(
                {
                    "name": "token",
                    "cat": "handshake",
                    "ph": "X",
                    "ts": round(start * 1e3, 3),
                    "dur": round((end - start) * 1e3, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": {"region": region, "index": index},
                }
            )
            cursor = start
            for key, duration in cycle["segments"].items():
                if duration <= 0:
                    continue
                events.append(
                    {
                        "name": key,
                        "cat": "handshake.stall",
                        "ph": "X",
                        "ts": round(cursor * 1e3, 3),
                        "dur": round(duration * 1e3, 3),
                        "pid": pid,
                        "tid": tid,
                        "args": {"region": region},
                    }
                )
                cursor += duration
    return events


def write_handshake_trace(path: str, probe) -> Dict[str, Any]:
    """Write a probe's token flow as a Chrome/Perfetto trace file."""
    document = {
        "traceEvents": handshake_trace_events(probe),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.sim.probes"},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


def _prom_name(name: str) -> str:
    """Instrument name -> Prometheus metric name (dots to underscores)."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _labelled(metric: str, label_body: Optional[str], extra: str = "") -> str:
    """``metric{labels,extra}`` with either part optional."""
    body = ",".join(part for part in (label_body, extra) if part)
    return f"{metric}{{{body}}}" if body else metric


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Emits ``# HELP`` (from :meth:`MetricsRegistry.describe`, with a
    generic fallback) and ``# TYPE`` lines once per metric family;
    counters map to ``counter``, gauges to ``gauge`` and fixed-bucket
    histograms to cumulative ``_bucket{le=...}`` series plus ``_sum``
    and ``_count``.  Labelled instruments (``repro_jobs{state=
    "queued"}``) group under one family header, so the output is
    scrapeable by a real Prometheus, not just greppable.
    """
    from .metrics import split_name

    registry = registry if registry is not None else current().registry
    snapshot = registry.snapshot()
    help_texts = (
        registry.help_texts() if hasattr(registry, "help_texts") else {}
    )
    lines: List[str] = []
    seen_families: set = set()

    def family_header(base: str, kind: str) -> None:
        metric = _prom_name(base)
        if metric in seen_families:
            return
        seen_families.add(metric)
        help_text = help_texts.get(base, f"repro metric {base}")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")

    for name, value in snapshot.get("counters", {}).items():
        base, label_body = split_name(name)
        family_header(base, "counter")
        lines.append(f"{_labelled(_prom_name(base), label_body)} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        base, label_body = split_name(name)
        family_header(base, "gauge")
        lines.append(f"{_labelled(_prom_name(base), label_body)} {value}")
    for name, hist in snapshot.get("histograms", {}).items():
        base, label_body = split_name(name)
        family_header(base, "histogram")
        metric = _prom_name(base)
        cumulative = 0
        for bound, count in hist["buckets"].items():
            if not bound.startswith("<="):
                continue  # the overflow bucket folds into +Inf below
            cumulative += count
            bucket = _labelled(
                f"{metric}_bucket", label_body, f'le="{bound[2:]}"'
            )
            lines.append(f"{bucket} {cumulative}")
        bucket = _labelled(f"{metric}_bucket", label_body, 'le="+Inf"')
        lines.append(f'{bucket} {hist["count"]}')
        lines.append(f"{_labelled(metric + '_sum', label_body)} {hist['sum']}")
        lines.append(
            f"{_labelled(metric + '_count', label_body)} {hist['count']}"
        )
    return "\n".join(lines) + "\n"


def write_metrics(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Persist a metrics snapshot (plus ``extra`` fields) as JSON."""
    if registry is None:
        registry = current().registry
    snapshot = registry.snapshot()
    if extra:
        snapshot.update(extra)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot


# ----------------------------------------------------------------------
# profiler exports: folded stacks, speedscope, hot-function tables
# ----------------------------------------------------------------------
_FuncKey = Tuple[str, int, str]


def _representative_stack(
    raw_stats: Dict[_FuncKey, Any], func: _FuncKey, max_depth: int = 64
) -> List[_FuncKey]:
    """Leaf-to-root chain for ``func`` via its heaviest caller edges.

    cProfile keeps a call graph, so a function may have many callers;
    the fold follows the caller contributing the most cumulative time
    at each step (ties broken by the pstats sort order), guarding
    against recursion cycles and runaway depth.  Returned root-first.
    """
    chain = [func]
    seen = {func}
    current = func
    for _ in range(max_depth):
        entry = raw_stats.get(current)
        if entry is None:
            break
        callers = entry[4]
        if not callers:
            break
        best = None
        best_weight = -1.0
        for caller in sorted(callers):
            stats = callers[caller]
            weight = stats[3] if isinstance(stats, tuple) else float(stats)
            if weight > best_weight:
                best = caller
                best_weight = weight
        if best is None or best in seen:
            break
        chain.append(best)
        seen.add(best)
        current = best
    chain.reverse()
    return chain


def folded_stacks(
    profiler: Optional[Profiler] = None,
) -> List[Tuple[str, List[_FuncKey], float]]:
    """``(stage, root-first frames, self seconds)`` per hot function."""
    profiler = profiler if profiler is not None else current().profiler
    out: List[Tuple[str, List[_FuncKey], float]] = []
    for record in profiler.profiles():
        for func in sorted(record.raw_stats):
            tt = record.raw_stats[func][2]
            if tt <= 0.0:
                continue
            out.append(
                (record.name, _representative_stack(record.raw_stats, func), tt)
            )
    return out


def collapsed_stacks(profiler: Optional[Profiler] = None) -> str:
    """Brendan Gregg collapsed-stack text (counts in microseconds).

    Each line is ``stage;frame;...;frame weight`` -- pipe into
    ``flamegraph.pl`` or drag onto speedscope to get a flame graph.
    Stacks are prefixed with their stage so per-stage flames separate.
    """
    lines: List[str] = []
    for stage_name, frames, seconds in folded_stacks(profiler):
        weight = int(round(seconds * 1e6))
        if weight <= 0:
            continue
        path = ";".join(
            [stage_name] + [_frame_label(frame) for frame in frames]
        )
        lines.append(f"{path} {weight}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(
    profiler: Optional[Profiler] = None, name: str = "repro profile"
) -> Dict[str, Any]:
    """The profiler's stage call graphs as one speedscope JSON document.

    One ``"sampled"``-type profile per stage (weights in seconds, one
    sample per hot function's representative stack), sharing a global
    frame table.  Validates against speedscope's published schema and
    opens directly at https://www.speedscope.app.
    """
    profiler = profiler if profiler is not None else current().profiler
    frames: List[Dict[str, Any]] = []
    frame_index: Dict[_FuncKey, int] = {}

    def intern(func: _FuncKey) -> int:
        index = frame_index.get(func)
        if index is None:
            index = len(frames)
            frame_index[func] = index
            filename, line, funcname = func
            frame: Dict[str, Any] = {"name": _frame_label(func)}
            if filename != "~":
                frame["file"] = filename
                frame["line"] = line
            frames.append(frame)
        return index

    profiles: List[Dict[str, Any]] = []
    for record in profiler.profiles():
        samples: List[List[int]] = []
        weights: List[float] = []
        for func in sorted(record.raw_stats):
            tt = record.raw_stats[func][2]
            if tt <= 0.0:
                continue
            stack = _representative_stack(record.raw_stats, func)
            samples.append([intern(frame) for frame in stack])
            weights.append(round(tt, 9))
        total = round(sum(weights), 9)
        profiles.append(
            {
                "type": "sampled",
                "name": f"stage:{record.name}",
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        )
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.obs",
        "activeProfileIndex": 0 if profiles else None,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def profile_document(
    profiler: Optional[Profiler] = None, name: str = "repro profile"
) -> Dict[str, Any]:
    """Hot-function tables plus the speedscope payload, JSON-shaped.

    This is the body served by the daemon's ``GET /jobs/<id>/profile``
    and written by the CLI's ``--profile-out``: everything a human (or
    a flame-graph tool) needs to answer *where the time went*.
    """
    profiler = profiler if profiler is not None else current().profiler
    document = profiler.to_dict()
    document["schema"] = "repro-profile/v1"
    document["speedscope"] = speedscope_document(profiler, name=name)
    return document


def profile_report(profiler: Optional[Profiler] = None) -> str:
    """Per-stage hot-function tables as plain text."""
    profiler = profiler if profiler is not None else current().profiler
    records = profiler.profiles()
    if not records:
        return "(no stage profiles captured)"
    lines: List[str] = []
    for record in records:
        header = (
            f"stage {record.name}: wall {record.wall_s:.4f}s, "
            f"cpu {record.cpu_s:.4f}s, {record.calls} calls"
        )
        if record.mem_peak_kb is not None:
            header += (
                f", mem peak {record.mem_peak_kb:.0f} KB "
                f"(delta {record.mem_delta_kb:+.0f} KB)"
            )
        lines.append(header)
        lines.append(
            f"  {'self (s)':>10s} {'cum (s)':>10s} {'calls':>8s}  function"
        )
        for row in record.hot:
            lines.append(
                f"  {row['self_s']:>10.4f} {row['cum_s']:>10.4f} "
                f"{row['calls']:>8d}  {row['func']}"
            )
        if record.counters:
            counters = " ".join(
                f"{key}={record.counters[key]}"
                for key in sorted(record.counters)
            )
            lines.append(f"  counters: {counters}")
        lines.append("")
    overhead = profiler.overhead_estimate()
    lines.append(
        f"profiler machinery overhead: {overhead['machinery_s']:.4f}s "
        f"({overhead['fraction'] * 100:.2f}% of profiled wall)"
    )
    if profiler.dropped:
        lines.append(
            f"dropped {profiler.dropped} stage profile(s) beyond "
            f"max_profiles={profiler.max_profiles}"
        )
    return "\n".join(lines)


def write_profile(
    out_dir: str,
    profiler: Optional[Profiler] = None,
    name: str = "repro profile",
    prefix: str = "profile",
) -> Dict[str, str]:
    """Write every profile artifact into ``out_dir``.

    Emits ``<prefix>.json`` (the :func:`profile_document`),
    ``<prefix>.speedscope.json``, ``<prefix>.collapsed.txt`` and
    ``<prefix>.txt`` (hot tables); returns ``{kind: path}``.
    """
    profiler = profiler if profiler is not None else current().profiler
    os.makedirs(out_dir, exist_ok=True)
    document = profile_document(profiler, name=name)
    paths = {
        "profile": os.path.join(out_dir, f"{prefix}.json"),
        "speedscope": os.path.join(out_dir, f"{prefix}.speedscope.json"),
        "collapsed": os.path.join(out_dir, f"{prefix}.collapsed.txt"),
        "report": os.path.join(out_dir, f"{prefix}.txt"),
    }
    with open(paths["profile"], "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(paths["speedscope"], "w") as handle:
        json.dump(document["speedscope"], handle, indent=1)
        handle.write("\n")
    with open(paths["collapsed"], "w") as handle:
        handle.write(collapsed_stacks(profiler))
    with open(paths["report"], "w") as handle:
        handle.write(profile_report(profiler))
        handle.write("\n")
    return paths
