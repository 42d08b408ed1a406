"""Static timing analysis: timing graph, propagation, SDC constraints.

The module-level entry points (``analyze``, ``region_critical_path``,
``ssta_analyze``, ...) run on one of two backends: ``"compiled"``
(default) flat integer-id arrays with corner rescaling, incremental ECO
re-timing and per-module caching (:mod:`repro.sta.compiled`), or
``"reference"``, the dict-based walk of :func:`propagate` and
:func:`ssta_propagate`, kept as a bit-identical parity oracle.
"""

from .graph import (
    Disable,
    Node,
    TimingEdge,
    TimingGraph,
    build_timing_graph,
    compute_net_loads,
    node_sort_key,
)
from .analysis import (
    BACKENDS,
    PathPoint,
    StaReport,
    TimingLoopError,
    analyze,
    min_clock_period,
    path_to_text,
    propagate,
    region_critical_path,
)
from .compiled import (
    CompiledTimingGraph,
    annotate_wires,
    compiled_graph,
    invalidate_module,
)
from .ssta import (
    MatchingRow,
    SstaReport,
    StatArrival,
    delay_element_matching,
    ssta_analyze,
    ssta_propagate,
    statistical_max,
)
from .sdc import (
    CreateClock,
    PathDelay,
    SdcFile,
    SetDisableTiming,
    SetDontTouch,
    SetSizeOnly,
)

__all__ = [
    "BACKENDS",
    "CompiledTimingGraph",
    "CreateClock",
    "MatchingRow",
    "SstaReport",
    "StatArrival",
    "annotate_wires",
    "compiled_graph",
    "delay_element_matching",
    "invalidate_module",
    "node_sort_key",
    "ssta_analyze",
    "ssta_propagate",
    "statistical_max",
    "Disable",
    "Node",
    "PathDelay",
    "PathPoint",
    "SdcFile",
    "SetDisableTiming",
    "SetDontTouch",
    "SetSizeOnly",
    "StaReport",
    "TimingEdge",
    "TimingGraph",
    "TimingLoopError",
    "analyze",
    "build_timing_graph",
    "compute_net_loads",
    "min_clock_period",
    "path_to_text",
    "propagate",
    "region_critical_path",
]
