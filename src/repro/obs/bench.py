"""Unified benchmark schema, history store and regression detection.

Every ``benchmarks/bench_*.py`` emits one :class:`BenchResult`: a
named bag of scalar metrics (speedup ratios, overhead percentages,
wall seconds) stamped with :func:`machine_metadata` -- platform,
Python version, CPU count, git revision and a UTC timestamp -- so
points recorded on different runners stay comparable.  Results append
to an **append-only history** (``benchmarks/results/history.jsonl``,
one JSON object per line) that the ``repro bench`` CLI verb records,
compares and reports over.

:func:`check_regression` is the single gate every benchmark and the
CI ``perf-gate`` job go through.  It has two modes per metric:

- **legacy ratio gate** -- exactly the arithmetic the five hand-rolled
  per-benchmark gates used: fail when the fresh value drops strictly
  below ``baseline * (1 - tolerance)`` (or rises above
  ``baseline * (1 + tolerance)`` for lower-is-better metrics such as
  overhead percentages).  This is the default, so swapping the
  benchmarks onto the shared helper is bit-identical on the committed
  baselines.
- **statistical gate** -- once the history holds ``min_history``
  points for a metric, the reference becomes the **median** of the
  last N points and the tolerance band becomes ``mad_k`` scaled median
  absolute deviations (MAD x 1.4826 estimates sigma under normality),
  floored at ``min_rel_band`` of the median so a dead-flat history
  (MAD = 0) is not a hair trigger.  Medians shrug off one noisy CI
  runner; the band adapts to how noisy each metric actually is.

Absolute floors and ceilings (the MC kernel's 8x, the incremental
flow's 20x, the service warm hit's 5x, per-job tracing's 5% overhead) are
preserved verbatim in both modes -- a statistical band never excuses
dropping below a hard requirement.

Metrics are **ratios, not seconds**, by contract: both sides of every
ratio run on the same machine in the same process, so runner speed
cancels out and the history is comparable across laptop and CI (see
DESIGN.md).
"""

from __future__ import annotations

import argparse
import datetime
import html
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: schema tag stamped into every result so readers can dispatch
SCHEMA = "repro-bench/v1"

#: the default append-only history store, relative to the repo root
DEFAULT_HISTORY = os.path.join("benchmarks", "results", "history.jsonl")

#: shared legacy tolerance: fail on >25% regression vs the baseline
DEFAULT_TOLERANCE = 0.25

#: history points required before the statistical mode takes over
DEFAULT_MIN_HISTORY = 5

#: MAD multiplier (3 sigma-equivalents under normality)
DEFAULT_MAD_K = 3.0

#: minimum band as a fraction of the median, so MAD=0 is not a trigger
DEFAULT_MIN_REL_BAND = 0.05

#: consistency constant: MAD * 1.4826 estimates sigma for normal data
MAD_SIGMA = 1.4826


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Short git revision of ``cwd`` (or CWD), ``None`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine_metadata(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Runner provenance stamped into every benchmark result."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_revision(cwd),
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }


@dataclass
class BenchResult:
    """One benchmark run: named scalar metrics plus provenance.

    ``metrics`` holds the gated scalars (ratios by contract);
    ``detail`` carries the benchmark's free-form payload (timings,
    configuration, assertions) for humans and is never gated on.
    """

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=machine_metadata)
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "meta": self.meta,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        return cls(
            name=payload.get("name", ""),
            metrics=dict(payload.get("metrics", {})),
            meta=dict(payload.get("meta", {})),
            detail=dict(payload.get("detail", {})),
        )


def stamp(
    payload: Dict[str, Any],
    name: str,
    metrics: Dict[str, float],
    cwd: Optional[str] = None,
) -> Dict[str, Any]:
    """Upgrade a legacy benchmark payload to the unified schema in place.

    Adds ``schema``/``name``/``metrics``/``meta`` keys while leaving
    the benchmark's existing fields where its readers expect them, so
    committed-baseline consumers keep working during the transition.
    """
    payload["schema"] = SCHEMA
    payload["name"] = name
    payload["metrics"] = {k: metrics[k] for k in sorted(metrics)}
    payload["meta"] = machine_metadata(cwd)
    return payload


# ----------------------------------------------------------------------
# history store (append-only JSONL)
# ----------------------------------------------------------------------
def append_history(result: Any, path: str = DEFAULT_HISTORY) -> None:
    """Append one result (BenchResult or schema dict) as a JSON line."""
    payload = result.to_dict() if isinstance(result, BenchResult) else result
    if "metrics" not in payload:
        raise ValueError(
            "history entries need a 'metrics' block "
            "(stamp() legacy payloads first)"
        )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(payload, sort_keys=True))
        handle.write("\n")


def load_history(
    path: str = DEFAULT_HISTORY, name: Optional[str] = None
) -> List[Dict[str, Any]]:
    """All history entries (oldest first), optionally one benchmark's."""
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # a torn append never poisons the whole store
            if name is not None and payload.get("name") != name:
                continue
            entries.append(payload)
    return entries


def _metric_value(value: Any) -> Optional[float]:
    """Coerce one recorded metric to a float, or None if not gateable.

    Plain numbers pass through; the structured ``{"value": x, "unit":
    ...}`` form is unwrapped; booleans and everything else are facts,
    not gateable quantities.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    if isinstance(value, dict):
        return _metric_value(value.get("value"))
    return None


def metric_history(
    entries: Sequence[Dict[str, Any]], metric: str, last: int = 50
) -> List[float]:
    """The newest ``last`` recorded values of one metric, oldest first."""
    values = []
    for entry in entries:
        coerced = _metric_value(entry.get("metrics", {}).get(metric))
        if coerced is not None:
            values.append(coerced)
    return values[-last:]


# ----------------------------------------------------------------------
# the regression detector
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class MetricCheck:
    """The verdict for one metric."""

    metric: str
    fresh: float
    ok: bool
    kind: str  # "ratio" | "statistical" | "floor" | "ceiling"
    reference: Optional[float] = None
    bound: Optional[float] = None
    detail: str = ""

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"  [{status}] {self.metric}: {self.detail}"


@dataclass
class RegressionReport:
    """Everything :func:`check_regression` decided, printable."""

    name: str
    checks: List[MetricCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> List[MetricCheck]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        title = f"regression check: {self.name or '(unnamed)'}"
        if not self.checks:
            return f"{title}\n  (no gated metrics)"
        return "\n".join([title] + [check.render() for check in self.checks])

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def check_regression(
    fresh: Dict[str, float],
    baseline: Optional[Dict[str, float]] = None,
    *,
    name: str = "",
    tolerance: float = DEFAULT_TOLERANCE,
    floors: Optional[Dict[str, float]] = None,
    ceilings: Optional[Dict[str, float]] = None,
    lower_is_better: Iterable[str] = (),
    history: Optional[Sequence[Dict[str, Any]]] = None,
    min_history: int = DEFAULT_MIN_HISTORY,
    mad_k: float = DEFAULT_MAD_K,
    min_rel_band: float = DEFAULT_MIN_REL_BAND,
) -> RegressionReport:
    """Gate ``fresh`` metrics against floors, ceilings and a reference.

    - ``floors``/``ceilings`` are absolute hard requirements, checked
      first and always (``fresh < floor`` / ``fresh > ceiling`` fails).
    - For each metric present in ``baseline``: with fewer than
      ``min_history`` history points the legacy ratio gate applies
      (fail when ``fresh < baseline * (1 - tolerance)``, direction
      flipped for ``lower_is_better`` metrics).  With enough history
      the reference becomes the median of the recorded points and the
      band ``max(mad_k * 1.4826 * MAD, min_rel_band * |median|)``.
    - ``history`` entries are schema dicts (see :func:`load_history`);
      only entries carrying the metric count toward ``min_history``.
    """
    lower = set(lower_is_better)
    report = RegressionReport(name=name)

    for metric, floor in sorted((floors or {}).items()):
        if metric not in fresh:
            continue
        value = fresh[metric]
        report.checks.append(
            MetricCheck(
                metric=metric,
                fresh=value,
                ok=value >= floor,
                kind="floor",
                bound=floor,
                detail=f"{value:.3f} vs hard floor {floor:.3f}",
            )
        )
    for metric, ceiling in sorted((ceilings or {}).items()):
        if metric not in fresh:
            continue
        value = fresh[metric]
        report.checks.append(
            MetricCheck(
                metric=metric,
                fresh=value,
                ok=value <= ceiling,
                kind="ceiling",
                bound=ceiling,
                detail=f"{value:.3f} vs hard ceiling {ceiling:.3f}",
            )
        )

    for metric in sorted(baseline or {}):
        if metric not in fresh:
            continue
        value = fresh[metric]
        base = float((baseline or {})[metric])
        points = (
            metric_history(history, metric) if history is not None else []
        )
        if len(points) >= max(2, min_history):
            center = _median(points)
            mad = _median([abs(p - center) for p in points])
            band = max(
                mad_k * MAD_SIGMA * mad, min_rel_band * abs(center)
            )
            if metric in lower:
                bound = center + band
                ok = value <= bound
                detail = (
                    f"{value:.3f} vs median {center:.3f} of "
                    f"{len(points)} runs (ceiling {bound:.3f}, "
                    f"MAD band {band:.3f})"
                )
            else:
                bound = center - band
                ok = value >= bound
                detail = (
                    f"{value:.3f} vs median {center:.3f} of "
                    f"{len(points)} runs (floor {bound:.3f}, "
                    f"MAD band {band:.3f})"
                )
            report.checks.append(
                MetricCheck(
                    metric=metric,
                    fresh=value,
                    ok=ok,
                    kind="statistical",
                    reference=center,
                    bound=bound,
                    detail=detail,
                )
            )
        else:
            # the legacy gate, arithmetic preserved exactly: strict
            # comparison against base * (1 -/+ tolerance)
            if metric in lower:
                bound = base * (1.0 + tolerance)
                ok = not (value > bound)
                detail = (
                    f"{value:.3f} vs baseline {base:.3f} "
                    f"(ceiling {bound:.3f})"
                )
            else:
                bound = base * (1.0 - tolerance)
                ok = not (value < bound)
                detail = (
                    f"{value:.3f} vs baseline {base:.3f} "
                    f"(floor {bound:.3f})"
                )
            report.checks.append(
                MetricCheck(
                    metric=metric,
                    fresh=value,
                    ok=ok,
                    kind="ratio",
                    reference=base,
                    bound=bound,
                    detail=detail,
                )
            )
    return report


def baseline_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """The gateable metrics of a committed baseline JSON.

    New-schema payloads carry them in ``metrics``; nothing is guessed
    from legacy layouts -- each benchmark maps its own legacy fields.
    """
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return {}
    gateable = {}
    for key, value in metrics.items():
        coerced = _metric_value(value)
        if coerced is not None:
            gateable[key] = coerced
    return gateable


# ----------------------------------------------------------------------
# the ``repro bench`` CLI verb
# ----------------------------------------------------------------------
def _sparkline_svg(values: Sequence[float], width: int = 160, height: int = 36) -> str:
    """Inline SVG polyline of one metric's history for the trend report."""
    if not values:
        return "<svg/>"
    low = min(values)
    high = max(values)
    span = (high - low) or 1.0
    step = width / max(1, len(values) - 1) if len(values) > 1 else width
    points = " ".join(
        f"{round(i * step, 1)},{round(height - 4 - (v - low) / span * (height - 8), 1)}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#4a90d9" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def trend_report_html(
    entries: Sequence[Dict[str, Any]], title: str = "benchmark history"
) -> str:
    """Per-(benchmark, metric) trend table with inline-SVG sparklines."""
    by_bench: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        by_bench.setdefault(entry.get("name", "?"), []).append(entry)
    rows: List[str] = []
    for bench_name in sorted(by_bench):
        bench_entries = by_bench[bench_name]
        metric_names = sorted(
            {m for e in bench_entries for m in e.get("metrics", {})}
        )
        for metric in metric_names:
            values = metric_history(bench_entries, metric)
            if not values:
                continue
            latest = values[-1]
            median = _median(values)
            last_meta = bench_entries[-1].get("meta", {})
            rows.append(
                "<tr>"
                f"<td>{html.escape(bench_name)}</td>"
                f"<td>{html.escape(metric)}</td>"
                f"<td class='num'>{latest:.3f}</td>"
                f"<td class='num'>{median:.3f}</td>"
                f"<td class='num'>{len(values)}</td>"
                f"<td>{_sparkline_svg(values)}</td>"
                f"<td>{html.escape(str(last_meta.get('git_rev') or '-'))}</td>"
                "</tr>"
            )
    body = "".join(rows) or (
        "<tr><td colspan='7'>(empty history -- run "
        "<code>repro bench record</code> first)</td></tr>"
    )
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{html.escape(title)}</title>
<style>
body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; }}
th, td {{ border: 1px solid #ccc; padding: 4px 10px; text-align: left; }}
td.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
th {{ background: #f0f0f0; }}
</style></head><body>
<h1>{html.escape(title)}</h1>
<table>
<tr><th>benchmark</th><th>metric</th><th>latest</th><th>median</th>
<th>points</th><th>trend</th><th>git</th></tr>
{body}
</table></body></html>
"""


def _load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "record, compare and report unified benchmark results"
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    record = sub.add_parser(
        "record", help="append a BENCH_*.json to the history store"
    )
    record.add_argument("result", help="benchmark result JSON (new schema)")
    record.add_argument("--history", default=DEFAULT_HISTORY)

    compare = sub.add_parser(
        "compare",
        help="gate a fresh result against a baseline (and history)",
    )
    compare.add_argument("result", help="fresh benchmark result JSON")
    compare.add_argument(
        "--baseline", help="committed baseline JSON (defaults to history-only)"
    )
    compare.add_argument("--history", default=DEFAULT_HISTORY)
    compare.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    compare.add_argument(
        "--min-history", type=int, default=DEFAULT_MIN_HISTORY
    )
    compare.add_argument(
        "--lower-is-better",
        default="",
        help="comma-separated metrics where smaller is better",
    )

    report = sub.add_parser(
        "report", help="render the history as an HTML trend report"
    )
    report.add_argument("--history", default=DEFAULT_HISTORY)
    report.add_argument("--name", help="restrict to one benchmark")
    report.add_argument("--out", help="write HTML here (default stdout)")
    return parser


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_bench_parser().parse_args(argv)

    if args.verb == "record":
        payload = _load_json(args.result)
        if "metrics" not in payload:
            print(
                f"error: {args.result} has no 'metrics' block "
                "(not a repro-bench/v1 result)",
                file=sys.stderr,
            )
            return 1
        append_history(payload, args.history)
        print(
            f"recorded {payload.get('name', '?')} "
            f"({len(payload['metrics'])} metric(s)) -> {args.history}"
        )
        return 0

    if args.verb == "compare":
        payload = _load_json(args.result)
        fresh = baseline_metrics(payload)
        if not fresh:
            print(
                f"error: {args.result} has no gateable metrics",
                file=sys.stderr,
            )
            return 1
        base = (
            baseline_metrics(_load_json(args.baseline))
            if args.baseline
            else {m: v for m, v in fresh.items()}
        )
        history = load_history(args.history, payload.get("name"))
        lower = {
            m.strip()
            for m in args.lower_is_better.split(",")
            if m.strip()
        }
        report = check_regression(
            fresh,
            base,
            name=payload.get("name", args.result),
            tolerance=args.tolerance,
            lower_is_better=lower,
            history=history or None,
            min_history=args.min_history,
        )
        print(report.render())
        return report.exit_code()

    if args.verb == "report":
        entries = load_history(args.history, args.name)
        document = trend_report_html(entries)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(document)
            print(f"wrote {args.out} ({len(entries)} history point(s))")
        else:
            print(document)
        return 0

    return 1  # pragma: no cover - argparse enforces the verbs
