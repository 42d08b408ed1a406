"""Asynchronous performance analysis: effective period of the handshake.

Desynchronized circuits have no external period; throughput emerges
from the controller network (section 2.5).  Two complementary views:

- :func:`effective_period_model` -- the paper's analytic view: each
  region's stage latency is its delay-element rise delay plus the
  controller overhead (three complex gates, section 5.2.2) plus the
  latch propagation; the effective period is the worst stage over the
  data-dependency graph's critical cycle (maximum cycle ratio, one
  data token per region).
- :func:`measure_effective_period` -- a direct measurement from the
  event-driven simulation: the asymptotic interval between successive
  captures of a probe latch.

Cycles are enumerated by :func:`simple_cycles` (Johnson's algorithm)
over a :class:`~repro.desync.ddg.DiGraph`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Set

from ..desync.controllers import CONTROL_OVERHEAD_GATES, C_RESET_CELL
from ..desync.ddg import ENV, DiGraph
from ..liberty.model import Library


@dataclass
class PeriodReport:
    """Effective-period analysis result."""

    effective_period: float
    per_region: Dict[str, float] = field(default_factory=dict)
    critical_region: Optional[str] = None
    critical_cycle: List[str] = field(default_factory=list)
    control_overhead: float = 0.0


def control_overhead_delay(library: Library, corner: str = "worst") -> float:
    """Delay of the three controller complex gates at a corner."""
    derate = library.corner(corner).derate
    cell = library.cells.get(C_RESET_CELL)
    if cell is None:
        from ..desync.controllers import ensure_controller_cells

        ensure_controller_cells(library)
        cell = library.cell(C_RESET_CELL)
    arc = cell.delay_arcs()[0]
    per_gate = arc.worst_delay(0.01)
    return CONTROL_OVERHEAD_GATES * per_gate * derate


def latch_overhead_delay(library: Library, corner: str = "worst") -> float:
    """Latch G->Q propagation included in each stage latency."""
    derate = library.corner(corner).derate
    for cell in library.cells.values():
        if cell.kind.value == "latch" and cell.name.startswith("LDH"):
            arcs = [a for a in cell.delay_arcs() if a.related_pin == "G"]
            if arcs:
                return arcs[0].worst_delay(0.01) * derate
    return 0.0


def effective_period_model(
    desync_result,
    library: Library,
    corner: str = "worst",
    delay_overrides: Optional[Dict[str, float]] = None,
) -> PeriodReport:
    """Analytic effective period of a :class:`DesyncResult`.

    ``delay_overrides`` substitutes per-region delay-element delays
    (used by the delay-selection sweep of Figure 5.3).
    """
    derate = library.corner(corner).derate
    # both 4-phase excursions traverse the controller gates; the latch
    # and the C-join/delem return add roughly one more controller's worth
    overhead = 2.5 * control_overhead_delay(library, corner) + (
        latch_overhead_delay(library, corner)
    )
    ladder = desync_result.ladder
    # the ladder was characterised at its own corner; rescale
    ladder_derate = library.corner(ladder.corner).derate
    overrides = delay_overrides or {}

    ack_delays = getattr(desync_result.network, "ack_delays", {})
    per_region: Dict[str, float] = {}
    for region, element in desync_result.network.delay_elements.items():
        if region in overrides:
            delem = overrides[region] * derate
        else:
            delem = ladder.delay_of(element.length) / ladder_derate * derate
        ack = ack_delays.get(region)
        ack_delay = (
            ladder.delay_of(ack.length) / ladder_derate * derate
            if ack is not None
            else 0.0
        )
        # one full handshake cycle: working phase (delay element) plus
        # the return-to-zero phase through the controllers and the
        # acknowledge-matching delay
        per_region[region] = delem + ack_delay + overhead

    report = PeriodReport(
        effective_period=0.0,
        per_region=per_region,
        control_overhead=overhead,
    )
    if not per_region:
        return report

    # maximum cycle ratio over the DDG: each region holds one data token,
    # so a cycle's period is its worst member stage (slack passing lets
    # faster members wait); the global period is the worst stage overall
    worst_region = max(per_region, key=per_region.get)
    report.effective_period = per_region[worst_region]
    report.critical_region = worst_region

    cycle = _critical_cycle(desync_result.ddg, per_region)
    report.critical_cycle = cycle
    return report


def simple_cycles(graph: DiGraph) -> Iterator[List[Hashable]]:
    """Every elementary cycle of ``graph``, each exactly once.

    Johnson's algorithm (SIAM J. Comput. 4(1), 1975): self-loops first,
    then, for each node ``s`` in node order, the cycles whose first
    node in that order is ``s``, searched inside the strongly connected
    component of ``s`` among ``s`` and the nodes after it.  A cycle is
    listed from its first node; the order is deterministic.
    """
    nodes = list(graph)
    successors = {
        node: [w for w in graph.successors(node) if w != node]
        for node in nodes
    }
    predecessors: Dict[Hashable, List[Hashable]] = defaultdict(list)
    for node, targets in successors.items():
        for w in targets:
            predecessors[w].append(node)
    for node in nodes:
        if graph.has_edge(node, node):
            yield [node]
    for index, start in enumerate(nodes):
        allowed = set(nodes[index:])
        component = _reach(start, successors, allowed) & _reach(
            start, predecessors, allowed
        )
        if len(component) > 1:
            yield from _circuits(start, successors, component)


def _reach(
    start: Hashable,
    edges: Dict[Hashable, List[Hashable]],
    allowed: Set[Hashable],
) -> Set[Hashable]:
    """The nodes of ``allowed`` reachable from ``start`` along ``edges``;
    reachable both ways, they are ``start``'s strongly connected
    component."""
    seen = {start}
    frontier = [start]
    while frontier:
        for w in edges.get(frontier.pop(), ()):
            if w in allowed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def _circuits(
    start: Hashable,
    successors: Dict[Hashable, List[Hashable]],
    component: Set[Hashable],
) -> Iterator[List[Hashable]]:
    """Johnson's circuit search: the cycles through ``start`` inside
    ``component``."""

    def inside(node: Hashable) -> Iterator[Hashable]:
        return iter([w for w in successors[node] if w in component])

    path = [start]
    blocked = {start}
    # nodes to unblock once a node on a dead-end branch is unblocked
    waiting: Dict[Hashable, Set[Hashable]] = defaultdict(set)
    stack = [inside(start)]
    closed = [False]
    while stack:
        for w in stack[-1]:
            if w == start:
                yield path[:]
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(inside(w))
                blocked.add(w)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                release = {v}
                while release:
                    u = release.pop()
                    if u in blocked:
                        blocked.remove(u)
                        release.update(waiting[u])
                        waiting[u].clear()
            else:
                for w in successors[v]:
                    if w in component:
                        waiting[w].add(v)


def _critical_cycle(ddg: DiGraph, per_region: Dict[str, float]) -> List[str]:
    """The DDG cycle containing the slowest region (if any)."""
    graph = ddg.subgraph([n for n in ddg if n != ENV and n in per_region])
    worst = max(per_region, key=per_region.get) if per_region else None
    for cycle in simple_cycles(graph):
        if worst in cycle:
            return cycle
    return [worst] if worst else []


def max_cycle_ratio(
    graph: DiGraph,
    weight: str = "weight",
    tokens: str = "tokens",
) -> float:
    """Maximum cycle ratio sum(weight)/sum(tokens) over directed cycles.

    General asynchronous performance bound [Hulgaard et al.]; used by
    the ablation benchmarks.  Exact enumeration -- DDGs are small.
    """
    best = 0.0
    for cycle in simple_cycles(graph):
        total_weight = 0.0
        total_tokens = 0.0
        nodes = list(cycle)
        for index, node in enumerate(nodes):
            succ = nodes[(index + 1) % len(nodes)]
            data = graph.get_edge_data(node, succ) or {}
            total_weight += data.get(weight, 0.0)
            total_tokens += data.get(tokens, 1.0)
        if total_tokens > 0:
            best = max(best, total_weight / total_tokens)
    return best


def measure_effective_period(
    simulator,
    probe_instance: str,
    warmup_captures: int = 3,
) -> Optional[float]:
    """Measured steady-state interval between captures of one latch."""
    times = [
        event.time
        for event in simulator.captures
        if event.instance == probe_instance
    ]
    if len(times) < warmup_captures + 2:
        return None
    steady = times[warmup_captures:]
    return (steady[-1] - steady[0]) / (len(steady) - 1)
