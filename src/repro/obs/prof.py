"""Opt-in deterministic per-stage profiler for the flow engine.

Where :mod:`repro.obs.trace` answers *when* each stage ran and for how
long, this module answers *where the time and memory went inside it*.
A :class:`Profiler` wraps each stage callable the engine executes:

- **cProfile** captures a deterministic (not sampled) call-graph of
  the stage body.  The raw ``pstats``-shaped table is kept per stage
  so :mod:`repro.obs.export` can fold it into speedscope JSON and
  collapsed-stack text, and a pre-digested *hot-function table* (top-N
  by self time) is available without post-processing.
- **tracemalloc** records the allocation delta and peak across the
  stage (started lazily and refcounted, so nothing is traced unless a
  profiled stage is actually in flight).
- **introspection counters** let kernels report domain numbers into
  the profile of whichever stage is running on the current thread --
  the simulator reports events processed and queue-depth high-water,
  the Monte-Carlo batch kernel reports lane occupancy -- via the
  module-level :func:`add_counters` / :func:`peak_counters` hooks.

The profiler of a run is the ``profiler`` of its
:class:`repro.obs.context.Context`, disabled unless the run opts in
(the CLI's ``--profile``, a service job's ``profile``).  The engine
runs every stage on the calling thread, so each stage attributes to
the profile of the run that called it.

The disabled fast path is one thread-local read and one ``if`` per
stage (and per kernel counter flush) -- the ``bench_obs.py`` A/B gate
holds the measured disabled-path overhead on the warm DLX flow under
2%.

cProfile is per-thread (``sys.setprofile`` has thread-local effect),
so the stages of concurrently profiled service jobs, each on its own
worker thread, do not fight over one global profiler.  tracemalloc
*is* process-global: while profiled jobs overlap, each stage's
peak/delta also counts the other jobs' allocations; one run at a time
(a CLI run, or a daemon with one worker) keeps them exact.
"""

from __future__ import annotations

import contextlib
import cProfile
import threading
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

#: how many hot functions each stage keeps in its digest table
DEFAULT_TOP_N = 15

#: refcount of in-flight memory-profiled stages (tracemalloc is global)
_mem_lock = threading.Lock()
_mem_users = 0
_mem_started_here = False


def _mem_acquire() -> None:
    global _mem_users, _mem_started_here
    with _mem_lock:
        if _mem_users == 0 and not tracemalloc.is_tracing():
            tracemalloc.start()
            _mem_started_here = True
        _mem_users += 1


def _mem_release() -> None:
    global _mem_users, _mem_started_here
    with _mem_lock:
        _mem_users = max(0, _mem_users - 1)
        if _mem_users == 0 and _mem_started_here:
            tracemalloc.stop()
            _mem_started_here = False


def _func_label(func: Tuple[str, int, str]) -> str:
    """``(file, line, name)`` -> a stable human-readable frame label."""
    filename, lineno, name = func
    if filename == "~":  # builtins in pstats convention
        return name
    short = filename
    for marker in ("/site-packages/", "/src/"):
        idx = filename.rfind(marker)
        if idx >= 0:
            short = filename[idx + len(marker):]
            break
    else:
        parts = filename.rsplit("/", 2)
        if len(parts) > 2:
            short = "/".join(parts[-2:])
    return f"{short}:{lineno}:{name}"


class StageProfile:
    """Everything captured for one profiled stage execution."""

    __slots__ = (
        "name",
        "graph",
        "thread_name",
        "wall_s",
        "cpu_s",
        "calls",
        "primitive_calls",
        "mem_peak_kb",
        "mem_delta_kb",
        "counters",
        "hot",
        "overhead_s",
        "raw_stats",
        "attrs",
    )

    def __init__(self, name: str, graph: str = "", **attrs: Any):
        self.name = name
        self.graph = graph
        self.thread_name = ""
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.calls = 0
        self.primitive_calls = 0
        self.mem_peak_kb: Optional[float] = None
        self.mem_delta_kb: Optional[float] = None
        self.counters: Dict[str, float] = {}
        #: top-N functions by self time: dicts with func/calls/self_s/cum_s
        self.hot: List[Dict[str, Any]] = []
        #: profiler machinery time around (not inside) the stage body
        self.overhead_s = 0.0
        #: pstats-shaped dict: func -> (cc, nc, tt, ct, callers)
        self.raw_stats: Dict[Tuple[str, int, str], Any] = {}
        self.attrs = attrs

    # counters ----------------------------------------------------------
    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak_counter(self, name: str, value: float) -> None:
        current = self.counters.get(name)
        if current is None or value > current:
            self.counters[name] = value

    # digestion ---------------------------------------------------------
    def digest(self, profile: cProfile.Profile, top_n: int) -> None:
        """Fold a finished cProfile into the hot table + raw stats."""
        import pstats

        stats = pstats.Stats(profile)
        self.raw_stats = stats.stats  # type: ignore[attr-defined]
        total_tt = 0.0
        calls = 0
        primitive = 0
        rows = []
        for func, (cc, nc, tt, ct, _callers) in self.raw_stats.items():
            total_tt += tt
            calls += nc
            primitive += cc
            rows.append((tt, ct, nc, func))
        rows.sort(key=lambda row: (-row[0], -row[1], row[3]))
        self.cpu_s = total_tt
        self.calls = calls
        self.primitive_calls = primitive
        self.hot = [
            {
                "func": _func_label(func),
                "calls": nc,
                "self_s": round(tt, 6),
                "cum_s": round(ct, 6),
            }
            for tt, ct, nc, func in rows[:top_n]
        ]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "stage": self.name,
            "graph": self.graph,
            "thread": self.thread_name,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "calls": self.calls,
            "primitive_calls": self.primitive_calls,
            "overhead_s": round(self.overhead_s, 6),
            "hot": self.hot,
        }
        if self.mem_peak_kb is not None:
            out["mem_peak_kb"] = round(self.mem_peak_kb, 1)
        if self.mem_delta_kb is not None:
            out["mem_delta_kb"] = round(self.mem_delta_kb, 1)
        if self.counters:
            out["counters"] = {
                k: self.counters[k] for k in sorted(self.counters)
            }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class Profiler:
    """Thread-safe collector of per-stage profiles.

    ``memory=False`` skips tracemalloc (cheaper, CPU-only profiles).
    ``max_profiles`` bounds retention the same way ``Tracer(max_spans)``
    does: beyond it the oldest stage profiles are dropped and counted
    in :attr:`dropped`, so a long-lived daemon stays flat in memory.
    ``profile_id`` tags the profiler with the identity of the work it
    belongs to (the service daemon uses the job's trace ID).
    """

    def __init__(
        self,
        enabled: bool = True,
        top_n: int = DEFAULT_TOP_N,
        memory: bool = True,
        max_profiles: Optional[int] = None,
        profile_id: Optional[str] = None,
    ):
        self.enabled = enabled
        self.top_n = max(1, int(top_n))
        self.memory = memory
        self.max_profiles = max_profiles
        self.profile_id = profile_id
        self.dropped = 0
        #: total profiler machinery seconds across all stages
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._profiles: List[StageProfile] = []
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def stage(self, name: str, graph: str = "", **attrs: Any):
        """Profile one stage body (context manager).

        Yields the :class:`StageProfile` being captured (or ``None``
        when the profiler is disabled).  Exceptions propagate; the
        partial profile is still recorded with an ``error`` attribute.
        """
        if not self.enabled:
            yield None
            return
        t_setup = time.perf_counter()
        record = StageProfile(name, graph, **attrs)
        record.thread_name = threading.current_thread().name
        stack = self._thread_stack()
        nested = bool(stack)
        stack.append(record)
        mem_before = None
        if self.memory:
            _mem_acquire()
            tracemalloc.reset_peak()
            mem_before = tracemalloc.get_traced_memory()[0]
        profile: Optional[cProfile.Profile] = None
        if not nested:
            # cProfile is exclusive per thread; a stage nested inside an
            # already-profiled stage (a sub-flow) is timed, not re-profiled
            profile = cProfile.Profile()
        error: Optional[BaseException] = None
        start = time.perf_counter()
        record.overhead_s += start - t_setup
        if profile is not None:
            try:
                profile.enable()
            except ValueError:  # another tool already profiling this thread
                profile = None
                record.attrs["cprofile"] = "unavailable"
        try:
            yield record
        except BaseException as exc:
            error = exc
            raise
        finally:
            if profile is not None:
                profile.disable()
            end = time.perf_counter()
            record.wall_s = end - start
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if mem_before is not None:
                    record.mem_delta_kb = (current - mem_before) / 1024.0
                record.mem_peak_kb = peak / 1024.0
                _mem_release()
            if error is not None:
                record.attrs["error"] = (
                    f"{type(error).__name__}: {error}"
                )
            if profile is not None:
                record.digest(profile, self.top_n)
            if stack and stack[-1] is record:
                stack.pop()
            teardown = time.perf_counter() - end
            record.overhead_s += teardown
            with self._lock:
                self.overhead_s += record.overhead_s
                self._profiles.append(record)
                if (
                    self.max_profiles is not None
                    and len(self._profiles) > self.max_profiles
                ):
                    drop = len(self._profiles) - self.max_profiles
                    del self._profiles[:drop]
                    self.dropped += drop

    def _thread_stack(self) -> List[StageProfile]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_stage(self) -> Optional[StageProfile]:
        """The stage profile being captured on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return None

    # -- counters ---------------------------------------------------------
    def add_counters(self, **counters: float) -> None:
        record = self.current_stage()
        if record is not None:
            for name, value in counters.items():
                record.add_counter(name, value)

    def peak_counters(self, **counters: float) -> None:
        record = self.current_stage()
        if record is not None:
            for name, value in counters.items():
                record.peak_counter(name, value)

    # -- inspection -------------------------------------------------------
    def profiles(self) -> List[StageProfile]:
        """Snapshot of finished stage profiles, in completion order."""
        with self._lock:
            return list(self._profiles)

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def overhead_estimate(self) -> Dict[str, float]:
        """Profiler self-cost summary: machinery seconds vs profiled wall.

        ``machinery_s`` is the time spent *around* stage bodies
        (enable/disable, stats digestion, tracemalloc bookkeeping);
        ``fraction`` relates it to the profiled wall time.  The
        deterministic cProfile tax *inside* the body (every call
        dispatched through the profiler) is not separable from the
        workload and is not included -- profiles report where time
        goes, not absolute seconds; ratio metrics stay the perf
        contract (see DESIGN).
        """
        profiles = self.profiles()
        wall = sum(p.wall_s for p in profiles)
        machinery = self.overhead_s
        return {
            "machinery_s": round(machinery, 6),
            "profiled_wall_s": round(wall, 6),
            "fraction": round(machinery / wall, 6) if wall > 0 else 0.0,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped profile document (sans raw call graphs)."""
        profiles = self.profiles()
        return {
            "profile_id": self.profile_id,
            "stages": [p.to_dict() for p in profiles],
            "stage_count": len(profiles),
            "dropped": self.dropped,
            "overhead": self.overhead_estimate(),
        }


def enabled() -> bool:
    """Disabled fast path: one thread-local read plus one ``if``."""
    return _context.current().profiler.enabled


def add_counters(**counters: float) -> None:
    """Sum kernel counters into the current thread's active stage.

    No-op (one lookup, one ``if``) when profiling is disabled or no
    stage is being captured on this thread.
    """
    profiler = _context.current().profiler
    if not profiler.enabled:
        return
    profiler.add_counters(**counters)


def peak_counters(**counters: float) -> None:
    """High-water kernel counters (max-merge) for the active stage."""
    profiler = _context.current().profiler
    if not profiler.enabled:
        return
    profiler.peak_counters(**counters)


# imported last: the context module builds its defaults from the
# classes above
from . import context as _context  # noqa: E402
