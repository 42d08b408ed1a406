"""Timing graph construction for static timing analysis.

The graph nodes are pins -- ``(instance, pin)`` tuples, or ``(None, bit)``
for top-level port bits.  Edges are either *cell arcs* (delay computed
from the liberty linear model and the load on the output net) or *net
edges* (wire delay annotated by the backend, zero pre-layout).

Combinational-mode graphs (the default) stop at sequential elements:
sequential cell outputs are launch points, sequential data inputs are
capture points, and no edge passes *through* a flip-flop or latch.  This
is exactly the view needed to size delay elements per region and to
compute the minimum clock period.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple

from ..liberty.model import CellKind, Library
from ..netlist.core import Module, PortDirection, bus_base

#: a timing node: (instance name or None for ports, pin/bit name)
Node = Tuple[Optional[str], str]

#: pseudo-instance name of shared fanout nodes on high-fanout nets
NET_NODE = "__net__"


def node_sort_key(node: Node) -> Tuple[bool, str, str]:
    """Total order over nodes (port nodes have ``None`` instances)."""
    return (node[0] is not None, node[0] or "", node[1])


@dataclass
class TimingEdge:
    src: Node
    dst: Node
    delay: float
    kind: str  # "arc" | "net"
    #: net whose load/annotation determines ``delay`` (``None`` for the
    #: zero-delay fanout legs of a shared net node)
    net: Optional[str] = None
    #: liberty arc behind an "arc" edge
    arc: Optional[object] = None


@dataclass
class TimingGraph:
    module: Module
    adjacency: Dict[Node, List[TimingEdge]] = field(default_factory=dict)
    reverse: Dict[Node, List[TimingEdge]] = field(default_factory=dict)
    #: sequential output pins: node -> clock-to-output delay
    launch_nodes: Dict[Node, float] = field(default_factory=dict)
    #: sequential data pins: node -> setup time
    capture_nodes: Dict[Node, float] = field(default_factory=dict)
    #: input/output port-bit nodes
    input_nodes: Set[Node] = field(default_factory=set)
    output_nodes: Set[Node] = field(default_factory=set)
    #: edges removed to break combinational cycles (back edges)
    broken_edges: List[TimingEdge] = field(default_factory=list)

    def add_edge(self, edge: TimingEdge) -> None:
        self.adjacency.setdefault(edge.src, []).append(edge)
        self.reverse.setdefault(edge.dst, []).append(edge)

    def nodes(self) -> List[Node]:
        """Every node, in deterministic insertion order.

        The order seeds the topological sort, so it must not depend on
        hash randomisation: dict-backed collections keep insertion
        order and the port-node sets are sorted explicitly.
        """
        out: Dict[Node, None] = dict.fromkeys(self.adjacency)
        out.update(dict.fromkeys(self.reverse))
        out.update(dict.fromkeys(self.launch_nodes))
        out.update(dict.fromkeys(self.capture_nodes))
        out.update(dict.fromkeys(sorted(self.input_nodes, key=node_sort_key)))
        out.update(dict.fromkeys(sorted(self.output_nodes, key=node_sort_key)))
        return list(out)


#: per-module load cache: module -> (library, fingerprint, loads)
_LOADS_CACHE: "weakref.WeakKeyDictionary[Module, Tuple]" = (
    weakref.WeakKeyDictionary()
)


def wire_attr_fingerprint(module: Module, attr: str):
    """Cheap change-detection fingerprint of a wire-annotation dict.

    Wire caps/delays are annotated by replacing/merging plain dicts in
    ``module.attributes``, which does *not* bump the mutation stamp --
    so caches that depend on them hash the dict contents instead.
    """
    annotation = module.attributes.get(attr)
    if not annotation:
        return None
    return (len(annotation), hash(frozenset(annotation.items())))


def _loads_fingerprint(module: Module):
    return (
        module.mutation_count,
        wire_attr_fingerprint(module, "net_wire_cap"),
    )


def compute_net_loads(module: Module, library: Library) -> Dict[str, float]:
    """Capacitive load per net: sink pin caps + estimated/annotated wire cap.

    Cached per (module mutation stamp, wire-cap annotation): regional
    analyses (``region_critical_path`` with an ``instance_filter``) and
    per-element ECO measurements no longer re-walk the whole module.
    Loads are corner-independent (derates scale delays, not caps).  The
    returned mapping is owned by the cache -- treat it as read-only.
    """
    fingerprint = _loads_fingerprint(module)
    entry = _LOADS_CACHE.get(module)
    if (
        entry is not None
        and entry[0] is library
        and entry[1] == fingerprint
    ):
        return entry[2]
    loads = _compute_net_loads(module, library)
    _LOADS_CACHE[module] = (library, fingerprint, loads)
    return loads


def refresh_net_loads(
    module: Module, library: Library, nets: Iterable[str]
) -> bool:
    """Patch the cached load map in place after a cell swap.

    A cell swap changes the input-pin capacitances hanging on the
    swapped instance's nets without touching connectivity; recomputing
    just those nets (in :func:`compute_net_pin_load` order, so the
    floats stay bit-identical to a cold pass) and restamping the cache
    keeps the whole-module load map warm.  Returns ``False`` when there
    is no live cache for this (module, library) to patch.
    """
    entry = _LOADS_CACHE.get(module)
    if entry is None or entry[0] is not library:
        return False
    wire_caps: Dict[str, float] = module.attributes.get("net_wire_cap", {})
    default_cap = library.default_wire_cap
    loads = entry[2]
    for net in nets:
        if net in module.nets:
            loads[net] = compute_net_pin_load(
                module, library, net, wire_caps.get(net, default_cap)
            )
        else:
            loads.pop(net, None)
    _LOADS_CACHE[module] = (library, _loads_fingerprint(module), loads)
    return True


def compute_net_pin_load(module: Module, library: Library, net_name: str,
                         wire_cap: float) -> float:
    """Load of one net, recomputed in ``compute_net_loads`` order.

    Used by the compiled engine's incremental wire update so a single
    annotated net does not force a full-module load pass; the addition
    order matches the full pass exactly (bit-identical floats).
    """
    net = module.nets[net_name]
    load = wire_cap
    for ref in net.connections:
        if ref.instance is None:
            continue
        inst = module.instances[ref.instance]
        cell = library.cells.get(inst.cell)
        if cell is None:
            continue
        pin = cell.pins.get(ref.pin)
        if pin is not None and pin.direction == PortDirection.INPUT:
            load += pin.capacitance
    return load


def _compute_net_loads(module: Module, library: Library) -> Dict[str, float]:
    wire_caps: Dict[str, float] = module.attributes.get("net_wire_cap", {})
    loads: Dict[str, float] = {}
    default_cap = library.default_wire_cap
    for net_name in module.nets:
        loads[net_name] = compute_net_pin_load(
            module, library, net_name, wire_caps.get(net_name, default_cap)
        )
    return loads


#: a timing disable: (instance, from_pin, to_pin); from/to may be None=any
Disable = Tuple[str, Optional[str], Optional[str]]


def _is_disabled(
    disables: Set[Disable], instance: str, from_pin: str, to_pin: str
) -> bool:
    return (
        (instance, from_pin, to_pin) in disables
        or (instance, None, to_pin) in disables
        or (instance, from_pin, None) in disables
        or (instance, None, None) in disables
    )


#: one walked edge: (src, dst, delay, net, arc); ``arc`` is ``None``
#: exactly for net edges
EdgeTuple = Tuple[Node, Node, float, Optional[str], Optional[object]]


@dataclass
class TimingEdges:
    """What the netlist walk finds: the edges in the order
    :meth:`TimingGraph.add_edge` receives them, plus the launch/capture
    maps and port-node sets."""

    edges: List[EdgeTuple] = field(default_factory=list)
    launch_nodes: Dict[Node, float] = field(default_factory=dict)
    #: launch node -> [(arc, out_net)] contributions, for incremental
    #: recompute of clock-to-output delays after load annotation
    launch_arcs: Dict[Node, List[Tuple[object, str]]] = field(
        default_factory=dict
    )
    capture_nodes: Dict[Node, float] = field(default_factory=dict)
    input_nodes: Set[Node] = field(default_factory=set)
    output_nodes: Set[Node] = field(default_factory=set)


def walk_timing_edges(
    module: Module,
    library: Library,
    disables: Optional[Iterable[Disable]] = None,
    instance_filter: Optional[AbstractSet[str]] = None,
    through_sequential: bool = False,
    derate: float = 1.0,
) -> TimingEdges:
    """Walk the netlist once and list the timing graph's edges.

    The one netlist walk behind both backends:
    :func:`build_timing_graph` wraps the edges into :class:`TimingEdge`
    objects and :class:`repro.sta.compiled.CompiledTimingGraph` interns
    them into flat arrays.  Loops are not cut here.
    """
    disable_set: Set[Disable] = set(disables or ())
    loads = compute_net_loads(module, library)
    wire_delays: Dict[str, float] = module.attributes.get("net_wire_delay", {})
    walk = TimingEdges()
    add = walk.edges.append
    launch_nodes = walk.launch_nodes
    launch_arcs = walk.launch_arcs
    capture_nodes = walk.capture_nodes
    cells = library.cells
    combinational = CellKind.COMBINATIONAL

    for inst in module.instances.values():
        name = inst.name
        if instance_filter is not None and name not in instance_filter:
            continue
        cell = cells.get(inst.cell)
        if cell is None:
            continue
        pins = inst.pins
        sequential = cell.kind != combinational
        for arc in cell.arcs:
            if arc.timing_type.startswith(("setup", "hold")):
                if arc.timing_type.startswith("setup"):
                    node = (name, arc.pin)
                    setup = arc.intrinsic_rise * derate
                    existing = capture_nodes.get(node, 0.0)
                    capture_nodes[node] = max(existing, setup)
                continue
            out_net = pins.get(arc.pin)
            if out_net is None:
                continue
            load = loads.get(out_net, 0.0)
            delay = arc.worst_delay(load) * derate
            if sequential:
                is_clock_related = cell.pins[arc.related_pin].is_clock
                if is_clock_related or not through_sequential:
                    # clock->Q: a launch point rather than a through edge
                    node = (name, arc.pin)
                    existing = launch_nodes.get(node, 0.0)
                    launch_nodes[node] = max(existing, delay)
                    launch_arcs.setdefault(node, []).append((arc, out_net))
                    continue
                # transparent latch D->Q arc, kept in effective-view mode
            if pins.get(arc.related_pin) is None:
                continue
            if disable_set and _is_disabled(
                disable_set, name, arc.related_pin, arc.pin
            ):
                continue
            add((
                (name, arc.related_pin), (name, arc.pin), delay, out_net, arc
            ))
        if sequential and not through_sequential:
            # data inputs without an explicit setup arc still capture
            for pin in cell.pins.values():
                if pin.direction != PortDirection.INPUT or pin.is_clock:
                    continue
                capture_nodes.setdefault((name, pin.name), 0.0)

    # net edges: driver output pin -> sink input pins
    ports = module.ports
    instances = module.instances
    output = PortDirection.OUTPUT
    for net_name, net in module.nets.items():
        if net.is_constant:
            continue
        wire_delay = wire_delays.get(net_name, 0.0) * derate
        drivers: List[Node] = []
        sinks: List[Node] = []
        for ref in net.connections:
            if ref.instance is None:
                port = ports.get(_port_base(ref.pin))
                if port is None:
                    continue
                node = (None, ref.pin)
                if port.direction == PortDirection.INPUT:
                    drivers.append(node)
                    walk.input_nodes.add(node)
                else:
                    sinks.append(node)
                    walk.output_nodes.add(node)
                continue
            if instance_filter is not None and ref.instance not in instance_filter:
                continue
            cell = cells.get(instances[ref.instance].cell)
            if cell is None:
                continue
            pin = cell.pins.get(ref.pin)
            if pin is None:
                continue
            if pin.direction == output:
                drivers.append((ref.instance, ref.pin))
            elif not (pin.is_clock and not through_sequential):
                sinks.append((ref.instance, ref.pin))
        if len(drivers) * len(sinks) > len(drivers) + len(sinks):
            # multi-driver high-fanout net: one shared net node instead
            # of the O(drivers x sinks) edge product.  The wire delay
            # rides the driver legs; fanout legs are zero-delay, so
            # every driver->sink arrival is unchanged.
            shared = (NET_NODE, net_name)
            for driver in drivers:
                add((driver, shared, wire_delay, net_name, None))
            for sink in sinks:
                add((shared, sink, 0.0, None, None))
        else:
            for driver in drivers:
                for sink in sinks:
                    add((driver, sink, wire_delay, net_name, None))
    return walk


def build_timing_graph(
    module: Module,
    library: Library,
    corner: str = "worst",
    disables: Optional[Iterable[Disable]] = None,
    instance_filter: Optional[Set[str]] = None,
    through_sequential: bool = False,
    derate: Optional[float] = None,
) -> TimingGraph:
    """Build the (combinational-mode) timing graph of a module.

    ``disables`` are ``set_disable_timing`` style cuts.  When
    ``instance_filter`` is given, only those instances (and the nets
    between them) participate -- used for per-region analysis.  With
    ``through_sequential`` latch D->Q transparency arcs are kept, which
    models the effective datapath view of Figure 4.3.  ``derate``
    overrides the corner's factor.
    """
    if derate is None:
        derate = library.corner(corner).derate
    walk = walk_timing_edges(
        module, library, disables, instance_filter, through_sequential, derate
    )
    graph = TimingGraph(
        module,
        launch_nodes=walk.launch_nodes,
        capture_nodes=walk.capture_nodes,
        input_nodes=walk.input_nodes,
        output_nodes=walk.output_nodes,
    )
    for src, dst, delay, net, arc in walk.edges:
        graph.add_edge(
            TimingEdge(
                src,
                dst,
                delay,
                "arc" if arc is not None else "net",
                net=net,
                arc=arc,
            )
        )
    _break_cycles(graph)
    return graph


def _port_base(bit: str) -> str:
    base = bus_base(bit)
    return base if base is not None else bit


def _break_cycles(graph: TimingGraph) -> None:
    """Cut back edges found by iterative DFS so the graph is a DAG.

    This mirrors what STA tools do when a combinational netlist contains
    cycles (section 4.6): the cut locations depend on traversal order and
    are arbitrary with respect to functionality, which is why the flow
    supplies explicit disables for the controller network instead of
    relying on this fallback.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Node, int] = {}
    to_remove: List[TimingEdge] = []

    for root in list(graph.adjacency):
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[Node, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, index = stack[-1]
            edges = graph.adjacency.get(node, [])
            if index >= len(edges):
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, index + 1)
            edge = edges[index]
            state = color.get(edge.dst, WHITE)
            if state == GRAY:
                to_remove.append(edge)
            elif state == WHITE:
                color[edge.dst] = GRAY
                stack.append((edge.dst, 0))

    for edge in to_remove:
        graph.adjacency[edge.src].remove(edge)
        graph.reverse[edge.dst].remove(edge)
        graph.broken_edges.append(edge)
