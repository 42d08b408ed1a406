"""Benchmark-result schema and the regression check the perf gates share.

Every ``benchmarks/bench_*.py`` gate stamps its result with
:func:`stamp`: the ``repro-bench/v1`` schema tag, a ``metrics`` block
of gated scalars, and :func:`machine_metadata` -- platform, Python
version, CPU count, git revision and a UTC timestamp -- so a result
file says which runner and revision produced it.

:func:`check_regression` is the single gate every benchmark and the
CI ``perf-gate`` job go through.  It checks two things:

- **floors and ceilings**: absolute hard requirements (the MC
  kernel's 8x, the incremental flow's 20x, the service warm hit's 5x,
  per-job tracing's 5% overhead, the scaling slopes);
- **the baseline ratio**: each metric of a committed baseline fails
  when the fresh value drops strictly below ``baseline * (1 - 0.25)``.

Metrics are **ratios, not seconds**, by contract: both sides of every
ratio run on the same machine in the same process, so runner speed
largely cancels out (see DESIGN.md).
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: schema tag stamped into every result so readers can dispatch
SCHEMA = "repro-bench/v1"

#: a metric fails when it drops more than this fraction below baseline
TOLERANCE = 0.25


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


def stamp(
    payload: Dict[str, Any],
    name: str,
    metrics: Dict[str, float],
    cwd: Optional[str] = None,
) -> Dict[str, Any]:
    """Add the ``repro-bench/v1`` keys to a benchmark payload in place.

    Adds ``schema``/``name``/``metrics``/``meta`` while leaving the
    benchmark's own fields where its readers expect them.
    """
    payload["schema"] = SCHEMA
    payload["name"] = name
    payload["metrics"] = {k: metrics[k] for k in sorted(metrics)}
    payload["meta"] = machine_metadata(cwd)
    return payload


@dataclass
class MetricCheck:
    """The verdict for one metric."""

    metric: str
    fresh: float
    ok: bool
    kind: str  # "ratio" | "floor" | "ceiling"
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
    floors: Optional[Dict[str, float]] = None,
    ceilings: Optional[Dict[str, float]] = None,
) -> RegressionReport:
    """Gate ``fresh`` metrics against floors, ceilings and a baseline.

    - ``floors``/``ceilings`` are absolute hard requirements
      (``fresh < floor`` / ``fresh > ceiling`` fails); a bound on a
      metric the fresh result lacks is skipped.
    - Each metric present in both ``baseline`` and ``fresh`` fails when
      ``fresh < baseline * (1 - TOLERANCE)``; landing exactly on the
      bound passes.
    """
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
                detail=f"{value:.3f} vs hard ceiling {ceiling:.3f}",
            )
        )
    for metric in sorted(baseline or {}):
        if metric not in fresh:
            continue
        value = fresh[metric]
        base = float((baseline or {})[metric])
        bound = base * (1.0 - TOLERANCE)
        report.checks.append(
            MetricCheck(
                metric=metric,
                fresh=value,
                ok=not (value < bound),
                kind="ratio",
                detail=f"{value:.3f} vs baseline {base:.3f} "
                f"(floor {bound:.3f})",
            )
        )
    return report


def baseline_metrics(payload: Dict[str, Any]) -> Dict[str, float]:
    """The numeric entries of a committed baseline's ``metrics`` block.

    Raises ``ValueError`` when the block is missing, so a gate pointed
    at a file that is not a ``repro-bench/v1`` result fails instead of
    passing against nothing.
    """
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(
            f"baseline {payload.get('name', '?')!r} has no 'metrics' block"
        )
    return {
        key: float(value)
        for key, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
