"""Data dependency graph construction (sections 2.4.1, 3.2.4).

Nodes are circuit regions; a directed edge ``p -> q`` exists when a
path leaves a sequential output of region ``p`` and reaches an input of
region ``q`` -- i.e. some net driven by ``p``'s latches/flip-flops (or
by ``p``'s combinational cells) is consumed inside ``q``.  Because
regions are combinationally independent, it suffices to look at nets
whose driver and reader belong to different regions, plus self-edges
for regions feeding themselves (state machines, counters).

Primary inputs are attributed to the special environment node ``ENV``
so the controller network knows which regions need an external request.

The graph is a :class:`DiGraph`: a few dozen nodes at most, so plain
adjacency dicts serve, and a cached DDG unpickles without importing a
graph library.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..liberty.gatefile import Gatefile
from ..netlist.core import Module, PortDirection
from ..obs import metrics, trace
from .regions import RegionMap

#: pseudo-node for the environment (primary inputs / outputs)
ENV = "ENV"

#: histogram buckets for region fan-in / fan-out degrees
FANIN_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class DiGraph:
    """A small directed graph with optional per-edge attributes.

    Nodes and each node's successors keep insertion order, so iteration
    is deterministic.  Attribute dicts are only kept for edges added
    with attributes (``max_cycle_ratio``'s weights); the DDG's edges
    carry none.
    """

    def __init__(self) -> None:
        #: node -> {successor: attribute dict or None}
        self._succ: Dict[Hashable, Dict[Hashable, Optional[dict]]] = {}

    def add_node(self, node: Hashable) -> None:
        self._succ.setdefault(node, {})

    def add_edge(
        self, source: Hashable, target: Hashable, **attributes
    ) -> None:
        successors = self._succ.setdefault(source, {})
        self._succ.setdefault(target, {})
        if attributes:
            data = successors.get(target) or {}
            data.update(attributes)
            successors[target] = data
        elif target not in successors:
            successors[target] = None

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        successors = self._succ.get(source)
        return successors is not None and target in successors

    def get_edge_data(
        self, source: Hashable, target: Hashable, default=None
    ) -> Optional[Dict[str, Any]]:
        """The edge's attributes (``{}`` when it has none), else
        ``default``."""
        if not self.has_edge(source, target):
            return default
        return self._succ[source][target] or {}

    def successors(self, node: Hashable) -> List[Hashable]:
        return list(self._succ[node])

    def predecessors(self, node: Hashable) -> List[Hashable]:
        if node not in self._succ:
            raise KeyError(node)
        return [u for u, succ in self._succ.items() if node in succ]

    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def number_of_edges(self) -> int:
        return sum(len(successors) for successors in self._succ.values())

    def subgraph(self, nodes: Iterable[Hashable]) -> "DiGraph":
        """A copy induced on ``nodes``, in this graph's node order."""
        keep = set(nodes)
        graph = DiGraph()
        for u, successors in self._succ.items():
            if u in keep:
                graph._succ[u] = {
                    v: data for v, data in successors.items() if v in keep
                }
        return graph

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._succ)

    def __repr__(self) -> str:
        return (
            f"DiGraph({self.number_of_nodes()} nodes, "
            f"{self.number_of_edges()} edges)"
        )


def build_ddg(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    false_path_nets: Tuple[str, ...] = (),
    env_instances: Optional[Set[str]] = None,
) -> DiGraph:
    """Build the region data-dependency graph.

    ``env_instances`` are sequential elements whose outputs count as
    environment data (foreign clock domains in a partial conversion).
    """
    with trace.span("ddg", regions=len(region_map)) as span:
        graph = _build_ddg(
            module, gatefile, region_map, false_path_nets, env_instances
        )
        span.set("nodes", graph.number_of_nodes())
        span.set("edges", graph.number_of_edges())
    if metrics.enabled():
        fanin = metrics.histogram("desync.ddg.fanin", buckets=FANIN_BUCKETS)
        fanout = metrics.histogram("desync.ddg.fanout", buckets=FANIN_BUCKETS)
        for node in graph:
            if node == ENV:
                continue
            fanin.observe(len(predecessors_of(graph, node)))
            fanout.observe(len(successors_of(graph, node)))
    return graph


def _build_ddg(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    false_path_nets: Tuple[str, ...],
    env_instances: Optional[Set[str]],
) -> DiGraph:
    env_instances = env_instances or set()
    graph = DiGraph()
    for name in region_map.regions:
        graph.add_node(name)
    graph.add_node(ENV)
    ignored = set(false_path_nets)

    port_bits_in = set(module.port_bits(PortDirection.INPUT))
    port_bits_out = set(module.port_bits(PortDirection.OUTPUT))

    for net_name, net in module.nets.items():
        if net.is_constant or net_name in ignored:
            continue
        for source, target in _net_edges(
            module,
            gatefile,
            region_map,
            net,
            env_instances,
            port_bits_in,
            port_bits_out,
        ):
            graph.add_edge(source, target)
    return graph


def _net_edges(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    net,
    env_instances: Set[str],
    port_bits_in: Set[str],
    port_bits_out: Set[str],
) -> List[Tuple[str, str]]:
    """The DDG edges contributed by one net (shared by build and patch)."""
    driver_regions: Set[str] = set()
    reader_regions: Set[str] = set()
    sequential_driver = False
    for ref in net.connections:
        if ref.instance is None:
            if ref.pin in port_bits_in:
                driver_regions.add(ENV)
            elif ref.pin in port_bits_out:
                reader_regions.add(ENV)
            continue
        inst = module.instances[ref.instance]
        info = gatefile.cells.get(inst.cell)
        if info is None:
            continue
        pin = info.pins.get(ref.pin)
        if pin is None or pin.is_clock:
            continue
        if (
            ref.instance in env_instances
            and pin.direction == PortDirection.OUTPUT
        ):
            driver_regions.add(ENV)
            continue
        region = region_map.region_of(ref.instance)
        if region is None:
            continue
        if pin.direction == PortDirection.OUTPUT:
            if inst.attributes.get("role") == "latch_master":
                # master->slave plumbing inside one flip-flop is not
                # a data dependency between regions
                continue
            driver_regions.add(region)
            if info.is_sequential:
                sequential_driver = True
        elif pin.direction == PortDirection.INPUT:
            reader_regions.add(region)
    edges: List[Tuple[str, str]] = []
    for source in driver_regions:
        for target in reader_regions:
            if source == target and source == ENV:
                continue
            if source == target and not sequential_driver:
                # intra-region combinational net: not a dependency
                continue
            if source != target or sequential_driver:
                edges.append((source, target))
    return edges


def patch_ddg(
    graph: DiGraph,
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    dirty_nets: Set[str],
    false_path_nets: Tuple[str, ...] = (),
    env_instances: Optional[Set[str]] = None,
) -> bool:
    """Confirm a cached DDG against the re-derived dirty-net edges.

    Recomputes the edge contributions of exactly ``dirty_nets`` and
    checks each against the cached graph.  Returns ``True`` when every
    contribution is already present -- for a connectivity-preserving
    edit that means the cached graph equals a full rebuild, because no
    other net's contribution can have moved.  Returns ``False`` when a
    dirty net now contributes an edge the graph lacks (or a dirty net's
    region attribution is unknowable); edge *loss* cannot be decided
    locally either way, so the caller must rebuild with
    :func:`build_ddg`.  The graph itself is never mutated.
    """
    env_instances = env_instances or set()
    ignored = set(false_path_nets)
    port_bits_in = set(module.port_bits(PortDirection.INPUT))
    port_bits_out = set(module.port_bits(PortDirection.OUTPUT))
    for net_name in sorted(dirty_nets):
        net = module.nets.get(net_name)
        if net is None or net.is_constant or net_name in ignored:
            continue
        for source, target in _net_edges(
            module,
            gatefile,
            region_map,
            net,
            env_instances,
            port_bits_in,
            port_bits_out,
        ):
            if not graph.has_edge(source, target):
                metrics.counter("desync.ddg.patch_misses").inc()
                return False
    metrics.counter("desync.ddg.patch_hits").inc()
    return True


def predecessors_of(graph: DiGraph, region: str) -> List[str]:
    """Region predecessors (sorted, ENV last for determinism)."""
    preds = sorted(p for p in graph.predecessors(region) if p != ENV)
    if graph.has_edge(ENV, region):
        preds.append(ENV)
    return preds


def successors_of(graph: DiGraph, region: str) -> List[str]:
    succs = sorted(s for s in graph.successors(region) if s != ENV)
    if graph.has_edge(region, ENV):
        succs.append(ENV)
    return succs


def fanin_fanout(graph: DiGraph, region: str) -> Tuple[int, int]:
    """Counts used to pick the controller flavour (section 3.2.6)."""
    return len(predecessors_of(graph, region)), len(successors_of(graph, region))
