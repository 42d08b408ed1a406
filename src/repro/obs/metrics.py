"""Metrics registry: counters, gauges and fixed-bucket histograms.

The flow records the quantities the paper's evaluation tables are made
of -- region counts and sizes, DDG fan-in, latches per region, delay
ladder selection error, C-element tree depth, cache hits -- as named
instruments in a :class:`MetricsRegistry`::

    from repro.obs import metrics

    metrics.counter("desync.ffsub.replaced").inc(42)
    metrics.histogram("desync.region.size", buckets=(1, 10, 100)).observe(37)

The module-level helpers record into the registry of the current
:class:`repro.obs.context.Context`.  Like tracing, metrics collection
is **disabled by default**: the helpers then return shared no-op
instruments, so instrumented code pays one thread-local read and one
``if``.  A registry snapshot serialises to plain JSON
(:meth:`MetricsRegistry.snapshot`, exported by
:func:`repro.obs.export.write_metrics`).

Instruments may carry **labels** -- ``registry.gauge("repro.jobs",
labels={"state": "queued"})`` -- which keep one logical metric per
dimension value the way Prometheus expects (``repro_jobs{state=
"queued"}``); the snapshot keys labelled instruments as
``name{k="v",...}`` with labels sorted.  :meth:`MetricsRegistry.
describe` attaches a ``# HELP`` string the Prometheus exposition
emits.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (generic count-like data)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)

#: nanosecond-scale preset for simulation latencies -- handshake cycle
#: times, stall durations, delay-element margins -- where sub-ns
#: resolution matters at the bottom and multi-us stalls at the top
NS_BUCKETS: Tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)


def render_name(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Instrument key: ``name`` or ``name{k="v",...}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_name(rendered: str) -> Tuple[str, Optional[str]]:
    """The inverse of :func:`render_name`: ``(base, label_body_or_None)``."""
    if rendered.endswith("}") and "{" in rendered:
        base, _, body = rendered.partition("{")
        return base, body[:-1]
    return rendered, None


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> Optional[float]:
        return self._value

    def snapshot(self) -> Optional[float]:
        return self._value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are inclusive upper bounds: an observation lands in the
    first bucket whose bound is >= the value; anything above the last
    bound lands in the overflow bucket.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "overflow",
                 "count", "total", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Dict[str, str]] = None,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs sorted bucket bounds")
        self.name = name
        self.labels = dict(labels or {})
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            index = bisect.bisect_left(self.bounds, value)
            if index == len(self.bounds):
                self.overflow += 1
            else:
                self.counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            buckets = {
                f"<={bound:g}": count
                for bound, count in zip(self.bounds, self.counts)
            }
            buckets[f">{self.bounds[-1]:g}"] = self.overflow
            return {
                "buckets": buckets,
                "count": self.count,
                "sum": round(self.total, 6),
                "mean": round(self.total / self.count, 6) if self.count else 0.0,
                "min": self.min,
                "max": self.max,
            }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    name = "<null>"
    value = None

    def inc(self, _amount: int = 1) -> None:
        return None

    def set(self, _value: float) -> None:
        return None

    def observe(self, _value: float) -> None:
        return None


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, get-or-create, thread-safe."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}
        self._help: Dict[str, str] = {}

    def _get(self, key: str, factory):
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            return instrument

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = render_name(name, labels)
        instrument = self._get(key, lambda: Counter(name, labels))
        if not isinstance(instrument, Counter):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}")
        return instrument

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = render_name(name, labels)
        instrument = self._get(key, lambda: Gauge(name, labels))
        if not isinstance(instrument, Gauge):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}")
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        key = render_name(name, labels)
        instrument = self._get(key, lambda: Histogram(name, buckets, labels))
        if not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} is a {type(instrument).__name__}")
        return instrument

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` string to a (base, unlabelled) metric name."""
        with self._lock:
            self._help[name] = help_text

    def help_texts(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._help)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one JSON-serialisable document."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.snapshot()
            elif isinstance(instrument, Histogram):
                out["histograms"][name] = instrument.snapshot()
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


def counter(name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
    return _context.current().registry.counter(name, labels)


def gauge(name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
    return _context.current().registry.gauge(name, labels)


def histogram(
    name: str,
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    labels: Optional[Dict[str, str]] = None,
) -> Histogram:
    return _context.current().registry.histogram(name, buckets, labels)


def enabled() -> bool:
    return _context.current().registry.enabled


# imported last: the context module builds its defaults from the
# classes above
from . import context as _context  # noqa: E402
