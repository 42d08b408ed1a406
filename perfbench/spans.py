"""Span recording for the traced benchmark run.

Every span wraps one public function of a ``repro`` layer at the place
its caller looks that function up: the global of the importing module
(``repro.engine.stages.group_regions``) or the class attribute for a
method (``FlowEngine.run``).  The program carries no benchmark code and
its own ``repro.obs`` tracer and profiler stay off.

A span records its name, start, end, parent span and the id of the
benchmark op it belongs to.  Spans are kept in memory and written out
once, when the process ends.  A layer's self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def _netlist_in(args, kwargs, netlist) -> Dict[str, float]:
    return {"netlist.cells_in": len(netlist.top.instances)}


def _netlist_out(args, kwargs, _text) -> Dict[str, float]:
    module = args[0]
    return {
        "netlist.cells_out": len(module.instances),
        "netlist.nets_out": len(module.nets),
    }


def _cache_lookup(args, kwargs, found) -> Dict[str, float]:
    return {
        "engine.cache.lookups": 1,
        "engine.cache.hits": int(found is not None),
    }


def _regions(args, kwargs, region_map) -> Dict[str, float]:
    return {"desync.regions": len(region_map)}


def _ffsub(args, kwargs, substitution) -> Dict[str, float]:
    return {"desync.ffs_replaced": substitution.replaced}


def _ddg(args, kwargs, ddg) -> Dict[str, float]:
    return {"desync.ddg_edges": ddg.number_of_edges()}


def _network(args, kwargs, network) -> Dict[str, float]:
    return {
        "desync.controllers": len(network.controllers),
        "desync.delay_elements": len(network.delay_elements),
    }


Counter = Callable[[tuple, dict, Any], Dict[str, float]]

#: (module, attribute, span name, counter): the layer boundaries the
#: traced run wraps.  ``Stage.call`` is wrapped so that stage-body work
#: outside the wrapped desync and STA functions (import hygiene,
#: clock-domain analysis) is charged to ``desync.other`` and not to the
#: engine that calls it.
LAYERS: Tuple[Tuple[str, str, str, Optional[Counter]], ...] = (
    ("repro.cli", "core9_hs", "liberty.build", None),
    ("repro.cli", "core9_ll", "liberty.build", None),
    ("repro.desync.tool", "Drdesync.__init__", "liberty.gatefile", None),
    ("repro.cli", "read_verilog", "netlist.parse", _netlist_in),
    ("repro.desync.tool", "write_module", "netlist.write", _netlist_out),
    ("repro.engine.executor", "FlowEngine.run", "engine.overhead", None),
    ("repro.engine.graph", "Stage.call", "desync.other", None),
    ("repro.engine.cache", "ArtifactCache.put", "engine.cache.put", None),
    ("repro.engine.cache", "ArtifactCache.get_lazy", "engine.cache.load",
     _cache_lookup),
    ("repro.engine.cache", "LazyArtifact.load", "engine.cache.load", None),
    ("repro.sta.analysis", "min_clock_period", "sta.min_clock_period", None),
    ("repro.flow.incremental", "min_clock_period", "sta.min_clock_period",
     None),
    ("repro.desync.network", "region_delays", "sta.region_delays", None),
    ("repro.flow.incremental", "region_delays", "sta.region_delays", None),
    ("repro.flow.incremental", "swap_cell", "sta.eco_retime", None),
    ("repro.flow.incremental", "annotate_wires", "sta.eco_retime", None),
    ("repro.engine.stages", "clean_logic", "desync.clean_logic", None),
    ("repro.engine.stages", "group_regions", "desync.group_regions",
     _regions),
    ("repro.engine.stages", "single_region", "desync.group_regions",
     _regions),
    ("repro.engine.stages", "validate_independence",
     "desync.validate_independence", None),
    ("repro.engine.stages", "substitute_flip_flops", "desync.ffsub", _ffsub),
    ("repro.engine.stages", "build_ddg", "desync.ddg", _ddg),
    ("repro.engine.stages", "characterize_ladder", "desync.ladder", None),
    ("repro.engine.stages", "insert_control_network", "desync.network",
     _network),
    ("repro.flow.incremental", "insert_control_network", "desync.network",
     _network),
    ("repro.engine.stages", "generate_constraints", "desync.constraints",
     None),
    ("repro.flow.incremental", "generate_constraints", "desync.constraints",
     None),
    ("repro.flow.incremental", "IncrementalSession.start",
     "flow.incremental.start", None),
    ("repro.flow.incremental", "IncrementalSession.apply",
     "flow.incremental.apply", None),
    ("repro.flow.incremental", "regroup_incremental",
     "flow.incremental.regroup", None),
    ("repro.flow.incremental", "validate_independence_for",
     "flow.incremental.regroup", None),
    ("repro.flow.incremental", "patch_ddg", "flow.incremental.patch_ddg",
     None),
    ("repro.flow.incremental", "IncrementalSession.oracle",
     "flow.incremental.oracle", None),
)


class Recorder:
    """In-memory span and count store for one process."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        #: [name, value, op id]
        self.counts: List[list] = []
        #: id of the op that new spans belong to
        self.op = "setup"
        #: off: wrappers call straight through and record nothing
        self.enabled = True
        self._stack: List[int] = []

    def wrap(
        self, name: str, func: Callable, counter: Optional[Counter] = None
    ):
        """``func`` with a span named ``name`` around every call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(
                [name, time.perf_counter(), None, parent, self.op]
            )
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts.append([key, value, self.op])
            return result

        return traced

    def span(self, name: str, func: Callable, *args, **kwargs):
        """Call ``func`` under a span (for calls made by benchmark code)."""
        return self.wrap(name, func)(*args, **kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary whose module is already imported.

    Modules the process has not imported are skipped, so tracing never
    adds imports a plain run would not make.
    """
    for module_name, attribute, name, counter in LAYERS:
        if module_name not in sys.modules:
            continue
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        setattr(owner, leaf, recorder.wrap(name, original, counter))


def load(path: str) -> Tuple[List[list], List[list]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["spans"], payload["counts"]


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: Iterable[list]) -> Dict[Tuple[str, str], float]:
    """(op id, span name) -> summed self time, for one process's spans."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for index, (name, start, end, _parent, op) in enumerate(spans):
        totals[(op, name)] += (end - start) - _covered(children[index])
    return totals


def layer_medians(
    processes: Iterable[Tuple[List[list], List[list]]]
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Per-layer medians.

    ``processes`` holds one (spans, counts) pair per traced process.
    Returns (self seconds by span name, count medians by count name,
    count totals by count name).  A layer's time is the median, over
    the ops that entered the layer, of the op's summed self time in it;
    a count's median is taken over the calls that recorded it.
    """
    per_op_time: Dict[str, Dict[str, float]] = defaultdict(dict)
    per_call: Dict[str, List[float]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    for spans, counts in processes:
        for (op, name), seconds in self_times(spans).items():
            per_op_time[name][op] = per_op_time[name].get(op, 0.0) + seconds
        for name, value, _op in counts:
            per_call[name].append(value)
            totals[name] += value
    times = {
        name: statistics.median(ops.values())
        for name, ops in per_op_time.items()
    }
    count_medians = {
        name: statistics.median(values) for name, values in per_call.items()
    }
    return times, count_medians, dict(totals)
