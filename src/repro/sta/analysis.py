"""Static timing analysis over a :class:`TimingGraph`.

Longest-path (max-delay) analysis by topological propagation, with
critical-path backtrace, endpoint slack against a clock period, and the
two derived quantities the flow consumes: per-region combinational
critical-path delay (delay-element sizing, section 3.2.5) and minimum
clock period for the synchronous baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from ..liberty.model import Library
from ..netlist.core import Module
from ..obs import metrics, trace
from .graph import Disable, Node, TimingGraph, build_timing_graph, node_sort_key

#: backends of the module-level entry points: "compiled" (flat-array
#: engine, corner-rescaled, cached) and "reference" (the dict walk of
#: :func:`propagate`, kept as the oracle)
BACKENDS = ("compiled", "reference")


def check_backend(backend: str) -> None:
    """Raise ``ValueError`` unless ``backend`` is one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown STA backend {backend!r}; expected one of {BACKENDS}"
        )


@dataclass
class PathPoint:
    node: Node
    arrival: float


@dataclass
class StaReport:
    """Result of one max-delay propagation.

    ``arrivals`` maps every reached node to its arrival: a dict from the
    reference walk, a read-only view over the arrival vector from the
    compiled engine.  Both compare equal when their contents do.
    """

    arrivals: Mapping[Node, float]
    critical_endpoint: Optional[Node]
    critical_delay: float
    path: List[PathPoint] = field(default_factory=list)
    #: per capture-endpoint required data arrival = period - setup
    endpoint_slacks: Dict[Node, float] = field(default_factory=dict)
    broken_edge_count: int = 0

    @property
    def wns(self) -> float:
        """Worst negative slack (positive when everything meets timing)."""
        if not self.endpoint_slacks:
            return 0.0
        return min(self.endpoint_slacks.values())


class TimingLoopError(Exception):
    """Raised if propagation cannot order the graph (unbroken cycle)."""


def _topological_order(graph: TimingGraph) -> List[Node]:
    indegree: Dict[Node, int] = {}
    for node in graph.nodes():
        indegree.setdefault(node, 0)
    for edges in graph.adjacency.values():
        for edge in edges:
            indegree[edge.dst] = indegree.get(edge.dst, 0) + 1
    queue = deque(node for node, deg in indegree.items() if deg == 0)
    order: List[Node] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for edge in graph.adjacency.get(node, ()):
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                queue.append(edge.dst)
    if len(order) != len(indegree):
        raise TimingLoopError(
            f"timing graph has {len(indegree) - len(order)} nodes in cycles"
        )
    return order


def propagate(
    graph: TimingGraph,
    input_arrival: float = 0.0,
    clock_period: Optional[float] = None,
) -> StaReport:
    """Run max-delay propagation and backtrace the critical path.

    The reference dict walk: the oracle the compiled engine is checked
    against.  For ``graph = build_timing_graph(module, library, corner)``,
    ``CompiledTimingGraph(module, library).propagate(derate, ...)`` at the
    corner's derate gives the bit-identical report from flat arrays.
    """
    with trace.span("sta.propagate") as span:
        report = _propagate(graph, input_arrival, clock_period)
        span.set("nodes", len(report.arrivals))
        span.set("critical_delay", round(report.critical_delay, 6))
    metrics.counter("sta.propagations").inc()
    return report


def _propagate(
    graph: TimingGraph,
    input_arrival: float,
    clock_period: Optional[float],
) -> StaReport:
    arrivals: Dict[Node, float] = {}
    parent: Dict[Node, Node] = {}
    for node, clk_to_q in graph.launch_nodes.items():
        arrivals[node] = max(arrivals.get(node, float("-inf")), clk_to_q)
    for node in graph.input_nodes:
        arrivals[node] = max(arrivals.get(node, float("-inf")), input_arrival)

    order = _topological_order(graph)
    for node in order:
        arrival = arrivals.get(node)
        if arrival is None:
            continue
        for edge in graph.adjacency.get(node, ()):
            candidate = arrival + edge.delay
            if candidate > arrivals.get(edge.dst, float("-inf")):
                arrivals[edge.dst] = candidate
                parent[edge.dst] = node

    worst_node: Optional[Node] = None
    worst_delay = 0.0
    endpoint_slacks: Dict[Node, float] = {}
    endpoints: Set[Node] = set(graph.capture_nodes) | graph.output_nodes
    # deterministic order: ties on the worst endpoint must not depend on
    # hash randomisation, and both backends must break them identically
    for node in sorted(endpoints, key=node_sort_key):
        arrival = arrivals.get(node)
        if arrival is None:
            continue
        setup = graph.capture_nodes.get(node, 0.0)
        total = arrival + setup
        if total > worst_delay:
            worst_delay = total
            worst_node = node
        if clock_period is not None:
            endpoint_slacks[node] = clock_period - total

    path: List[PathPoint] = []
    node = worst_node
    while node is not None:
        path.append(PathPoint(node, arrivals.get(node, 0.0)))
        node = parent.get(node)
    path.reverse()

    return StaReport(
        arrivals=arrivals,
        critical_endpoint=worst_node,
        critical_delay=worst_delay,
        path=path,
        endpoint_slacks=endpoint_slacks,
        broken_edge_count=len(graph.broken_edges),
    )


def analyze(
    module: Module,
    library: Library,
    corner: str = "worst",
    clock_period: Optional[float] = None,
    disables: Optional[Iterable[Disable]] = None,
    backend: str = "compiled",
) -> StaReport:
    """One-call STA: build the graph for a corner and propagate.

    With the compiled backend the graph is flattened once per module
    mutation stamp and every corner is derived by derate rescaling, so
    multi-corner analysis pays a single build.
    """
    check_backend(backend)
    with trace.span("sta.analyze", module=module.name, corner=corner):
        if backend == "compiled":
            from .compiled import compiled_graph

            compiled = compiled_graph(module, library, disables=disables)
            report = compiled.propagate(
                library.corner(corner).derate, clock_period=clock_period
            )
            metrics.counter("sta.propagations").inc()
            return report
        graph = build_timing_graph(module, library, corner, disables)
        return propagate(graph, clock_period=clock_period)


def min_clock_period(
    module: Module,
    library: Library,
    corner: str = "worst",
    disables: Optional[Iterable[Disable]] = None,
    margin: float = 0.0,
    backend: str = "compiled",
) -> float:
    """Smallest period meeting setup on every register-to-register path."""
    report = analyze(module, library, corner, disables=disables,
                     backend=backend)
    return report.critical_delay + margin


def region_critical_path(
    module: Module,
    library: Library,
    instances: Set[str],
    corner: str = "worst",
    backend: str = "compiled",
) -> float:
    """Critical-path delay of one region's combinational cloud.

    The launch points are the region's sequential outputs and ports, the
    capture points its sequential data inputs: precisely the delay a
    matched delay element must cover (section 2.4.4).  Compiled-backend
    region views are cached per instance set, and the net-load pass they
    share is cached per module -- querying every region of a design no
    longer re-walks the whole module per region.
    """
    check_backend(backend)
    with trace.span("sta.region_critical_path", instances=len(instances)):
        if backend == "compiled":
            from .compiled import compiled_graph

            compiled = compiled_graph(
                module, library, instance_filter=frozenset(instances)
            )
            report = compiled.propagate(library.corner(corner).derate)
            metrics.counter("sta.propagations").inc()
            return report.critical_delay
        graph = build_timing_graph(
            module, library, corner, instance_filter=instances
        )
        return propagate(graph).critical_delay


def path_to_text(report: StaReport) -> str:
    """Human-readable critical path, PrimeTime-report flavoured."""
    lines = [f"critical delay: {report.critical_delay:.4f} ns"]
    for point in report.path:
        instance = point.node[0] or "<port>"
        lines.append(f"  {instance}/{point.node[1]:<12} {point.arrival:8.4f}")
    if report.broken_edge_count:
        lines.append(f"  ({report.broken_edge_count} loop-breaking cuts applied)")
    return "\n".join(lines)
