"""Compiled STA engine: flat timing graphs with corner rescaling.

:class:`CompiledTimingGraph` interns the edge lists of the one netlist
walk (:func:`~repro.sta.graph.walk_timing_edges`) straight into
integer node ids and CSR-style edge arrays with a cached topological
order -- no :class:`~repro.sta.graph.TimingGraph` is built -- then
answers every propagation question from those arrays:

- **corner rescaling** -- corner derates are scalar factors on every
  arc/wire delay, so the graph compiles *base* delays (``derate=1.0``)
  once and derives any corner by scaling.  Multi-corner ``analyze``,
  SSTA and ladder characterisation stop rebuilding the graph per
  corner.  Scaling and propagation apply the exact float operations of
  the reference path (scale each delay, then add), so results are
  bit-identical, not merely close.
- **incremental re-timing** -- when the backend or ECO annotates wire
  caps/delays on a set of nets, :meth:`refresh_wires` recomputes only
  the affected edge delays (per-edge ``net``/``arc`` metadata recorded
  at build) and re-relaxes arrivals over the affected fanout cone of
  every cached propagation state, instead of rebuilding the graph.
- **propagation-state memoisation** -- arrival/parent vectors are kept
  per ``(derate, input_arrival)``, so repeat analyses of an unchanged
  module (ECO measurement loops, per-region queries) cost one report
  construction, not a relaxation.

The graphs are cached per module in a :class:`weakref` map keyed by
(library identity, disables, instance filter) and invalidated by
the module mutation stamp plus a fingerprint of the wire-annotation
dicts, which mutate without bumping the stamp.

The dict-based path in :mod:`repro.sta.analysis` (a ``TimingGraph``
built from the same walk) survives as the reference oracle; parity is
enforced by tests and by the
``bench_sta_engine`` workload, which asserts identical critical delays,
critical paths and region-delay maps between backends.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Mapping
from itertools import accumulate, repeat
from operator import itemgetter
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Tuple

from ..liberty.model import CellKind, Library
from ..netlist.core import Module, PortDirection
from ..obs import metrics
from .graph import (
    Disable,
    Node,
    compute_net_pin_load,
    node_sort_key,
    refresh_net_loads,
    walk_timing_edges,
    wire_attr_fingerprint,
)

_NEG_INF = float("-inf")

#: per-module cap on distinct cached (disables, filter) variants
_MAX_VARIANTS = 32


class _PropState:
    """Arrival/parent vectors of one (derate, input_arrival) relaxation."""

    __slots__ = ("arr", "parent")

    def __init__(self, arr: List[float], parent: List[int]):
        self.arr = arr
        self.parent = parent


def _csr(
    n: int, order: List[int], src_ids: List[int], dst_ids: List[int]
) -> Tuple[List[int], List[int]]:
    """``adj_start``/``adj_dst`` of the edges ``order`` lists, which
    must be grouped by source id in ascending order."""
    counts = Counter(map(src_ids.__getitem__, order))
    adj_start = list(accumulate(map(counts.get, range(n), repeat(0)),
                                initial=0))
    return adj_start, list(map(dst_ids.__getitem__, order))


def _kahn_order(n: int, adj_start: List[int], adj_dst: List[int]) -> List[int]:
    """Kahn's topological order with the reference walk's tie-breaking
    (zero in-degree nodes in id order, FIFO); short when there is a
    loop."""
    counts = Counter(adj_dst)
    indegree = list(map(counts.get, range(n), repeat(0)))
    # the order doubles as the FIFO queue: a list iterator sees appends
    topo = [nid for nid in range(n) if not indegree[nid]]
    for nid in topo:
        for dst in adj_dst[adj_start[nid]:adj_start[nid + 1]]:
            indegree[dst] -= 1
            if not indegree[dst]:
                topo.append(dst)
    return topo


def _back_edges(
    n_roots: int, adj_start: List[int], adj_dst: List[int]
) -> List[int]:
    """Edge ids the reference ``_break_cycles`` cuts.

    The same iterative depth-first search over integer ids: nodes
    ``0..n_roots-1`` (the sources, in first-seen order) are the roots,
    out-edges are followed in CSR order, and an edge into a node still
    on the stack is a back edge.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = bytearray(len(adj_start) - 1)
    cut: List[int] = []
    for root in range(n_roots):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, adj_start[root])]
        while stack:
            node, ei = stack[-1]
            if ei >= adj_start[node + 1]:
                color[node] = BLACK
                stack.pop()
                continue
            stack[-1] = (node, ei + 1)
            dst = adj_dst[ei]
            state = color[dst]
            if state == GRAY:
                cut.append(ei)
            elif state == WHITE:
                color[dst] = GRAY
                stack.append((dst, adj_start[dst]))
    return cut


class _Arrivals(Mapping):
    """Read-only ``node -> arrival`` view of one propagation.

    Holds its own copy of the arrival vector, so a later incremental
    update of the graph's state does not show through, and answers
    lookups by node id instead of building a dict of every node.
    Nodes no launch point or input reaches are absent.
    """

    __slots__ = ("_arr", "_nodes", "_node_id")

    def __init__(self, arr: List[float], nodes: List[Node],
                 node_id: Dict[Node, int]):
        self._arr = arr
        self._nodes = nodes
        self._node_id = node_id

    def __getitem__(self, node: Node) -> float:
        value = self._arr[self._node_id[node]]
        if value == _NEG_INF:
            raise KeyError(node)
        return value

    def __iter__(self):
        nodes = self._nodes
        return (
            nodes[nid]
            for nid, value in enumerate(self._arr)
            if value != _NEG_INF
        )

    def __len__(self) -> int:
        return len(self._arr) - self._arr.count(_NEG_INF)


class CompiledTimingGraph:
    """The timing graph of a module view as integer-id arrays.

    Built at derate 1.0 straight from :func:`walk_timing_edges`, with
    no :class:`TimingGraph` in between.  Node ids follow
    :meth:`TimingGraph.nodes` order and edges follow adjacency order, and
    loops are cut by the same depth-first search, so every relaxation
    visits values in exactly the reference sequence -- the basis of
    bit-identical parity.
    """

    def __init__(
        self,
        module: Module,
        library: Library,
        disables: Optional[Iterable[Disable]] = None,
        instance_filter: Optional[AbstractSet[str]] = None,
    ):
        # held weakly: _MODULE_CACHE keys on the module, so a strong
        # reference from its value would keep every timed module alive
        self._module_ref = weakref.ref(module)
        self.library = library
        walk = walk_timing_edges(module, library, disables, instance_filter)
        edges = walk.edges

        # ---- nodes: first seen as a source, then only as a destination,
        # then launch, capture, sorted inputs, sorted outputs ----------
        index: Dict[Node, Any] = dict.fromkeys(map(itemgetter(0), edges))
        n_sources = len(index)
        index.update(dict.fromkeys(map(itemgetter(1), edges)))
        index.update(dict.fromkeys(walk.launch_nodes))
        index.update(dict.fromkeys(walk.capture_nodes))
        index.update(
            dict.fromkeys(sorted(walk.input_nodes, key=node_sort_key))
        )
        index.update(
            dict.fromkeys(sorted(walk.output_nodes, key=node_sort_key))
        )
        nodes = list(index)
        self.nodes: List[Node] = nodes
        node_id: Dict[Node, int] = dict(zip(nodes, range(len(nodes))))
        self.node_id = node_id
        n = len(nodes)

        # ---- CSR forward edges: by source id, walk order within one --
        src_ids = list(map(node_id.__getitem__, map(itemgetter(0), edges)))
        dst_ids = list(map(node_id.__getitem__, map(itemgetter(1), edges)))
        order = sorted(range(len(edges)), key=src_ids.__getitem__)
        adj_start, adj_dst = _csr(n, order, src_ids, dst_ids)
        topo = _kahn_order(n, adj_start, adj_dst)
        cut: List[int] = []
        if len(topo) != n:
            # Kahn's order is short exactly when there is a loop: cut
            # the back edges the reference search cuts, then order again
            cut = _back_edges(n_sources, adj_start, adj_dst)
            cut_set = set(cut)
            order = [ei for pos, ei in enumerate(order) if pos not in cut_set]
            adj_start, adj_dst = _csr(n, order, src_ids, dst_ids)
            topo = _kahn_order(n, adj_start, adj_dst)
        self.broken_edge_count = len(cut)
        self._adj_start = adj_start
        self._adj_dst = adj_dst
        self._topo = topo
        #: built by the first incremental update; a cold query never
        #: reads them
        self._topo_pos: Optional[List[int]] = None
        self._rin: Optional[List[List[Tuple[int, int]]]] = None
        ordered = list(map(edges.__getitem__, order))
        self._delay = list(map(itemgetter(2), ordered))
        edge_nets = list(map(itemgetter(3), ordered))
        edge_arcs = list(map(itemgetter(4), ordered))
        self._edge_arc = edge_arcs

        # ---- net -> edge-id maps for incremental wire updates --------
        arc_edges: Dict[str, List[int]] = {}
        net_edges: Dict[str, List[int]] = {}
        for ei, net in enumerate(edge_nets):
            if net is None:
                continue
            if edge_arcs[ei] is not None:
                arc_edges.setdefault(net, []).append(ei)
            else:
                net_edges.setdefault(net, []).append(ei)
        self._arc_edges_by_net = arc_edges
        self._net_edges_by_net = net_edges

        # ---- launch / capture / port nodes ---------------------------
        self._launch_items: List[Tuple[int, float]] = [
            (node_id[node], delay)
            for node, delay in walk.launch_nodes.items()
        ]
        self._launch_base: Dict[int, float] = dict(self._launch_items)
        self._launch_arcs: Dict[int, List[Tuple[object, str]]] = {
            node_id[node]: arcs for node, arcs in walk.launch_arcs.items()
        }
        launch_by_net: Dict[str, List[int]] = {}
        for nid, arcs in self._launch_arcs.items():
            for _arc, net in arcs:
                launch_by_net.setdefault(net, []).append(nid)
        self._launch_by_net = launch_by_net

        self._capture_items: List[Tuple[int, float]] = [
            (node_id[node], setup)
            for node, setup in walk.capture_nodes.items()
        ]
        self._input_ids: List[int] = sorted(
            node_id[node] for node in walk.input_nodes
        )
        self._input_id_set = frozenset(self._input_ids)

        # endpoints in deterministic node order, with their base setups
        setup_of = walk.capture_nodes
        endpoint_nodes = set(setup_of) | walk.output_nodes
        self._endpoints: List[Tuple[int, float]] = [
            (node_id[node], setup_of.get(node, 0.0))
            for node in sorted(endpoint_nodes, key=node_sort_key)
        ]

        # ---- wire-annotation snapshots for diffing -------------------
        attrs = module.attributes
        self._wire_caps: Dict[str, float] = dict(
            attrs.get("net_wire_cap", {})
        )
        self._wire_delays: Dict[str, float] = dict(
            attrs.get("net_wire_delay", {})
        )

        # ---- memoised per-corner products ----------------------------
        self._scaled: Dict[float, List[float]] = {}
        self._states: Dict[Tuple[float, float], _PropState] = {}
        self._reports: Dict[Tuple[float, float, Optional[float]], Any] = {}
        self._ssta_reports: Dict[Tuple[float, float, float], Any] = {}
        metrics.counter("sta.compiled.builds").inc()

    # ------------------------------------------------------------------
    @property
    def module(self) -> Module:
        """The module the graph was built from (read-only)."""
        module = self._module_ref()
        if module is None:
            raise ReferenceError("the compiled graph's module was freed")
        return module

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self._adj_dst)

    def capture_items(self, derate: float) -> List[Tuple[Node, float]]:
        """``(node, setup)`` pairs at a corner, in build order."""
        nodes = self.nodes
        return [
            (nodes[nid], setup * derate)
            for nid, setup in self._capture_items
        ]

    def _scaled_delays(self, derate: float) -> List[float]:
        if derate == 1.0:
            return self._delay
        scaled = self._scaled.get(derate)
        if scaled is None:
            scaled = [delay * derate for delay in self._delay]
            self._scaled[derate] = scaled
        return scaled

    # ------------------------------------------------------------------
    # max-delay propagation
    # ------------------------------------------------------------------
    def _relax_full(self, derate: float, input_arrival: float) -> _PropState:
        n = len(self.nodes)
        arr = [_NEG_INF] * n
        parent = [-1] * n
        for nid, base in self._launch_items:
            value = base * derate
            if value > arr[nid]:
                arr[nid] = value
        for nid in self._input_ids:
            if input_arrival > arr[nid]:
                arr[nid] = input_arrival
        scaled = self._scaled_delays(derate)
        adj_start = self._adj_start
        adj_dst = self._adj_dst
        for nid in self._topo:
            arrival = arr[nid]
            if arrival == _NEG_INF:
                continue
            for ei in range(adj_start[nid], adj_start[nid + 1]):
                candidate = arrival + scaled[ei]
                dst = adj_dst[ei]
                if candidate > arr[dst]:
                    arr[dst] = candidate
                    parent[dst] = nid
        return _PropState(arr, parent)

    def _state(self, derate: float, input_arrival: float) -> _PropState:
        key = (derate, input_arrival)
        state = self._states.get(key)
        if state is None:
            state = self._relax_full(derate, input_arrival)
            self._states[key] = state
        return state

    def propagate(
        self,
        derate: float = 1.0,
        input_arrival: float = 0.0,
        clock_period: Optional[float] = None,
    ):
        """Max-delay propagation at a corner derate.

        Returns a :class:`repro.sta.analysis.StaReport` identical to the
        reference backend's.  Reports are memoised per query and shared
        between callers -- treat them as read-only.
        """
        from .analysis import PathPoint, StaReport

        report_key = (derate, input_arrival, clock_period)
        report = self._reports.get(report_key)
        if report is not None:
            metrics.counter("sta.compiled.report_hits").inc()
            return report
        state = self._state(derate, input_arrival)
        arr = state.arr
        parent = state.parent
        nodes = self.nodes

        arrivals = _Arrivals(list(arr), nodes, self.node_id)
        worst_id = -1
        worst_delay = 0.0
        endpoint_slacks: Dict[Node, float] = {}
        for nid, base_setup in self._endpoints:
            arrival = arr[nid]
            if arrival == _NEG_INF:
                continue
            total = arrival + base_setup * derate
            if total > worst_delay:
                worst_delay = total
                worst_id = nid
            if clock_period is not None:
                endpoint_slacks[nodes[nid]] = clock_period - total

        path: List[PathPoint] = []
        nid = worst_id
        while nid >= 0:
            path.append(PathPoint(nodes[nid], arr[nid]))
            nid = parent[nid]
        path.reverse()

        report = StaReport(
            arrivals=arrivals,
            critical_endpoint=nodes[worst_id] if worst_id >= 0 else None,
            critical_delay=worst_delay,
            path=path,
            endpoint_slacks=endpoint_slacks,
            broken_edge_count=self.broken_edge_count,
        )
        self._reports[report_key] = report
        metrics.counter("sta.compiled.propagations").inc()
        return report

    # ------------------------------------------------------------------
    # statistical propagation
    # ------------------------------------------------------------------
    def ssta(
        self,
        derate: float = 1.0,
        sigma_global: float = 0.08,
        sigma_local: float = 0.04,
    ):
        """First-order canonical SSTA over the flat arrays.

        Bit-identical to :func:`repro.sta.ssta.ssta_propagate` on the
        equivalent graph: same seed order, same relaxation order, same
        Clark-max call sequence.
        """
        from .ssta import SstaReport, StatArrival, statistical_max

        key = (derate, sigma_global, sigma_local)
        report = self._ssta_reports.get(key)
        if report is not None:
            metrics.counter("sta.compiled.report_hits").inc()
            return report

        n = len(self.nodes)
        arr: List[Optional[StatArrival]] = [None] * n
        for nid, base in self._launch_items:
            value = base * derate
            arr[nid] = StatArrival(
                value, value * sigma_global, (value * sigma_local) ** 2
            )
        for nid in self._input_ids:
            if arr[nid] is None:
                arr[nid] = StatArrival()
        scaled = self._scaled_delays(derate)
        adj_start = self._adj_start
        adj_dst = self._adj_dst
        for nid in self._topo:
            arrival = arr[nid]
            if arrival is None:
                continue
            for ei in range(adj_start[nid], adj_start[nid + 1]):
                candidate = arrival.plus(
                    scaled[ei], sigma_global, sigma_local
                )
                dst = adj_dst[ei]
                existing = arr[dst]
                arr[dst] = (
                    candidate
                    if existing is None
                    else statistical_max(existing, candidate)
                )

        report = SstaReport()
        nodes = self.nodes
        for nid, base_setup in self._endpoints:
            arrival = arr[nid]
            if arrival is None:
                continue
            total = StatArrival(
                arrival.mean + base_setup * derate,
                arrival.global_sens,
                arrival.local_var,
            )
            if total.mean > report.worst.mean:
                report.worst = total
                report.worst_endpoint = nodes[nid]
        report.arrivals = {
            nodes[nid]: arrival
            for nid, arrival in enumerate(arr)
            if arrival is not None
        }
        self._ssta_reports[key] = report
        metrics.counter("sta.compiled.ssta_propagations").inc()
        return report

    # ------------------------------------------------------------------
    # incremental re-timing
    # ------------------------------------------------------------------
    def refresh_wires(self) -> int:
        """Diff the module's wire annotations against the build snapshot
        and re-time only the affected fanout cones.

        Returns the number of edges whose delay changed.  Requires the
        module structure to be unchanged since the build (the module
        cache checks the mutation stamp before calling this).
        """
        module = self.module
        attrs = module.attributes
        new_caps: Dict[str, float] = attrs.get("net_wire_cap", {})
        new_delays: Dict[str, float] = attrs.get("net_wire_delay", {})
        default_cap = self.library.default_wire_cap

        changed_cap_nets = [
            net
            for net in set(self._wire_caps) | set(new_caps)
            if self._wire_caps.get(net, default_cap)
            != new_caps.get(net, default_cap)
        ]
        changed_delay_nets = [
            net
            for net in set(self._wire_delays) | set(new_delays)
            if self._wire_delays.get(net, 0.0) != new_delays.get(net, 0.0)
        ]

        delays = self._delay
        dirty_nodes: set = set()
        changed_edges = 0

        for net in changed_cap_nets:
            touched = net in self._arc_edges_by_net or net in self._launch_by_net
            if not touched:
                continue
            load = compute_net_pin_load(
                module,
                self.library,
                net,
                new_caps.get(net, default_cap),
            )
            for ei in self._arc_edges_by_net.get(net, ()):
                base = self._edge_arc[ei].worst_delay(load)
                if base != delays[ei]:
                    delays[ei] = base
                    dirty_nodes.add(self._adj_dst[ei])
                    changed_edges += 1
            for nid in self._launch_by_net.get(net, ()):
                # the builder maxes against a 0.0 default -- reproduce it
                base = 0.0
                for arc, arc_net in self._launch_arcs[nid]:
                    arc_load = (
                        load
                        if arc_net == net
                        else compute_net_pin_load(
                            module,
                            self.library,
                            arc_net,
                            new_caps.get(arc_net, default_cap),
                        )
                    )
                    value = arc.worst_delay(arc_load)
                    if value > base:
                        base = value
                if base != self._launch_base[nid]:
                    self._launch_base[nid] = base
                    dirty_nodes.add(nid)

        for net in changed_delay_nets:
            new_base = new_delays.get(net, 0.0)
            for ei in self._net_edges_by_net.get(net, ()):
                if delays[ei] != new_base:
                    delays[ei] = new_base
                    dirty_nodes.add(self._adj_dst[ei])
                    changed_edges += 1

        self._wire_caps = dict(new_caps)
        self._wire_delays = dict(new_delays)
        if not dirty_nodes and not changed_edges:
            return 0

        # refresh per-corner scaled copies of the changed entries
        for derate, scaled in self._scaled.items():
            for net in changed_cap_nets:
                for ei in self._arc_edges_by_net.get(net, ()):
                    scaled[ei] = delays[ei] * derate
            for net in changed_delay_nets:
                for ei in self._net_edges_by_net.get(net, ()):
                    scaled[ei] = delays[ei] * derate

        self._launch_items = [
            (nid, self._launch_base[nid]) for nid, _ in self._launch_items
        ]
        for key, state in self._states.items():
            self._update_state(key, state, dirty_nodes)
        self._reports.clear()
        # Clark-max recomputation is not locally invertible; statistical
        # reports are recomputed lazily from the updated delays instead
        self._ssta_reports.clear()
        metrics.counter("sta.compiled.incremental_updates").inc()
        metrics.counter("sta.compiled.incremental_edges").inc(
            changed_edges
        )
        return changed_edges

    def retime_cell_swap(self, instance: str, old_cell_name: str) -> bool:
        """Re-time the graph in place after ``instance`` changed cell.

        The module already holds the new cell binding; ``old_cell_name``
        is the binding the graph was built against.  Patching succeeds
        when the swap is *structure-preserving* -- same pin names,
        directions, clock flags, cell kind and arc shape -- in which
        case only the instance's own arc/launch/capture entries and the
        loads on its input nets are recomputed (in builder order, so the
        floats are bit-identical to a cold rebuild) and every cached
        propagation state is re-relaxed over the dirty cone.

        Returns ``False`` when the swap changes graph structure; the
        graph may then be partially patched and must be discarded (the
        module cache handles this by not restamping the entry, so the
        next :func:`compiled_graph` call rebuilds).
        """
        module = self.module
        inst = module.instances.get(instance)
        if inst is None:
            return False
        lib = self.library
        old_cell = lib.cells.get(old_cell_name)
        new_cell = lib.cells.get(inst.cell)
        if (old_cell is None) != (new_cell is None):
            # cell entered or left the library view: edges appear/vanish
            return False
        if old_cell is None:
            return True  # unknown cell both before and after: no-op

        if new_cell.kind != old_cell.kind:
            return False
        if set(new_cell.pins) != set(old_cell.pins):
            return False
        for name, old_pin in old_cell.pins.items():
            new_pin = new_cell.pins[name]
            if (
                new_pin.direction != old_pin.direction
                or new_pin.is_clock != old_pin.is_clock
            ):
                return False
        if len(old_cell.arcs) != len(new_cell.arcs):
            return False
        arc_map: Dict[int, object] = {}
        for old_arc, new_arc in zip(old_cell.arcs, new_cell.arcs):
            if (old_arc.pin, old_arc.related_pin, old_arc.timing_type) != (
                new_arc.pin,
                new_arc.related_pin,
                new_arc.timing_type,
            ):
                return False
            arc_map[id(old_arc)] = new_arc

        delays = self._delay
        adj_dst = self._adj_dst
        nodes = self.nodes
        default_cap = lib.default_wire_cap
        wire_caps = self._wire_caps
        dirty_nodes: set = set()
        changed_eids: set = set()
        load_memo: Dict[str, float] = {}

        def load_of(net: str) -> float:
            value = load_memo.get(net)
            if value is None:
                value = compute_net_pin_load(
                    module, lib, net, wire_caps.get(net, default_cap)
                )
                load_memo[net] = value
            return value

        # nets whose load moved: input pins whose capacitance differs
        changed_load = set()
        for pin_name, net in inst.pins.items():
            old_pin = old_cell.pins[pin_name]
            if old_pin.direction != PortDirection.INPUT:
                continue
            if new_cell.pins[pin_name].capacitance != old_pin.capacitance:
                changed_load.add(net)

        # (1) the instance's own combinational arc edges: swap the arc
        # objects and re-time against the (possibly unchanged) load
        for _pin, net in inst.pins.items():
            for ei in self._arc_edges_by_net.get(net, ()):
                dst = adj_dst[ei]
                if nodes[dst][0] != instance:
                    continue
                new_arc = arc_map.get(id(self._edge_arc[ei]))
                if new_arc is None:
                    return False
                self._edge_arc[ei] = new_arc
                base = new_arc.worst_delay(load_of(net))
                if base != delays[ei]:
                    delays[ei] = base
                    dirty_nodes.add(dst)
                    changed_eids.add(ei)

        # (2) the instance's launch arcs (sequential clock->Q)
        my_launch: List[Tuple[int, List[Tuple[object, str]]]] = []
        for nid, arcs in self._launch_arcs.items():
            if nodes[nid][0] != instance:
                continue
            swapped = []
            for arc, arc_net in arcs:
                new_arc = arc_map.get(id(arc))
                if new_arc is None:
                    return False
                swapped.append((new_arc, arc_net))
            my_launch.append((nid, swapped))
        for nid, swapped in my_launch:
            self._launch_arcs[nid] = swapped

        # (3) edges and launch bases of *other* instances on nets whose
        # load moved, plus this instance's own launch bases
        recompute_launch = {nid for nid, _ in my_launch}
        for net in sorted(changed_load):
            load = load_of(net)
            for ei in self._arc_edges_by_net.get(net, ()):
                base = self._edge_arc[ei].worst_delay(load)
                if base != delays[ei]:
                    delays[ei] = base
                    dirty_nodes.add(adj_dst[ei])
                    changed_eids.add(ei)
            recompute_launch.update(self._launch_by_net.get(net, ()))
        for nid in sorted(recompute_launch):
            # the builder maxes against a 0.0 default -- reproduce it
            base = 0.0
            for arc, arc_net in self._launch_arcs[nid]:
                value = arc.worst_delay(load_of(arc_net))
                if value > base:
                    base = value
            if base != self._launch_base[nid]:
                self._launch_base[nid] = base
                dirty_nodes.add(nid)

        # (4) capture setups of a sequential instance
        endpoints_changed = False
        if old_cell.kind != CellKind.COMBINATIONAL:
            setups: Dict[str, float] = {}
            for arc in new_cell.arcs:
                if arc.timing_type.startswith("setup"):
                    value = arc.intrinsic_rise
                    if value > setups.get(arc.pin, 0.0):
                        setups[arc.pin] = value
            for i, (nid, setup) in enumerate(self._capture_items):
                node = nodes[nid]
                if node[0] != instance:
                    continue
                new_setup = setups.get(node[1], 0.0)
                if new_setup != setup:
                    self._capture_items[i] = (nid, new_setup)
                    endpoints_changed = True
        if endpoints_changed:
            setup_of = dict(self._capture_items)
            self._endpoints = [
                (nid, setup_of.get(nid, 0.0)) for nid, _ in self._endpoints
            ]

        if not (dirty_nodes or changed_eids or endpoints_changed):
            metrics.counter("sta.compiled.cell_swaps").inc()
            return True

        for derate, scaled in self._scaled.items():
            for ei in changed_eids:
                scaled[ei] = delays[ei] * derate
        self._launch_items = [
            (nid, self._launch_base[nid]) for nid, _ in self._launch_items
        ]
        if dirty_nodes:
            for key, state in self._states.items():
                self._update_state(key, state, dirty_nodes)
        self._reports.clear()
        self._ssta_reports.clear()
        metrics.counter("sta.compiled.cell_swaps").inc()
        metrics.counter("sta.compiled.incremental_edges").inc(
            len(changed_eids)
        )
        return True

    def _index_in_edges(self) -> None:
        """Topological positions, and every node's in-edges sorted by
        forward encounter order (source topo position, then edge id) so
        recompute-by-in-edges resolves ties exactly like forward
        relaxation."""
        topo_pos = [0] * len(self.nodes)
        for pos, nid in enumerate(self._topo):
            topo_pos[nid] = pos
        adj_start = self._adj_start
        adj_dst = self._adj_dst
        rin: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for src in range(len(self.nodes)):
            for ei in range(adj_start[src], adj_start[src + 1]):
                rin[adj_dst[ei]].append((src, ei))
        for entries in rin:
            entries.sort(key=lambda se: (topo_pos[se[0]], se[1]))
        self._topo_pos = topo_pos
        self._rin = rin

    def _update_state(
        self,
        key: Tuple[float, float],
        state: _PropState,
        dirty_init: Iterable[int],
    ) -> None:
        """Re-relax one cached state over the dirty fanout cone."""
        derate, input_arrival = key
        scaled = self._scaled_delays(derate)
        arr = state.arr
        parent = state.parent
        adj_start = self._adj_start
        adj_dst = self._adj_dst
        topo = self._topo
        if self._rin is None:
            self._index_in_edges()
        topo_pos = self._topo_pos
        launch_base = self._launch_base
        input_ids = self._input_id_set
        rin = self._rin

        dirty = set(dirty_init)
        start = min(topo_pos[nid] for nid in dirty)
        for pos in range(start, len(topo)):
            nid = topo[pos]
            if nid not in dirty:
                continue
            value = _NEG_INF
            par = -1
            base = launch_base.get(nid)
            if base is not None:
                seeded = base * derate
                if seeded > value:
                    value = seeded
            if nid in input_ids and input_arrival > value:
                value = input_arrival
            for src, ei in rin[nid]:
                src_arrival = arr[src]
                if src_arrival == _NEG_INF:
                    continue
                candidate = src_arrival + scaled[ei]
                if candidate > value:
                    value = candidate
                    par = src
            if value != arr[nid]:
                arr[nid] = value
                parent[nid] = par
                for ei in range(adj_start[nid], adj_start[nid + 1]):
                    dirty.add(adj_dst[ei])
            elif par != parent[nid]:
                parent[nid] = par


# ----------------------------------------------------------------------
# per-module compiled-graph cache
# ----------------------------------------------------------------------

class _CacheEntry:
    __slots__ = ("graph", "library", "fingerprint")

    def __init__(self, graph: CompiledTimingGraph, library: Library,
                 fingerprint: Tuple):
        self.graph = graph
        self.library = library
        self.fingerprint = fingerprint


_MODULE_CACHE: "weakref.WeakKeyDictionary[Module, Dict]" = (
    weakref.WeakKeyDictionary()
)


def _module_fingerprint(module: Module) -> Tuple:
    return (
        module.mutation_count,
        wire_attr_fingerprint(module, "net_wire_cap"),
        wire_attr_fingerprint(module, "net_wire_delay"),
    )


def compiled_graph(
    module: Module,
    library: Library,
    disables: Optional[Iterable[Disable]] = None,
    instance_filter=None,
) -> CompiledTimingGraph:
    """The cached compiled graph of a module view (built at derate 1.0).

    Rebuilt only when the module's mutation stamp or wire-annotation
    fingerprint moves; every corner of every analysis shares the one
    build.  Distinct disables/filter combinations cache as separate
    variants (bounded per module).
    """
    variants = _MODULE_CACHE.get(module)
    if variants is None:
        variants = {}
        _MODULE_CACHE[module] = variants
    disables = frozenset(disables or ())
    if instance_filter is not None:
        instance_filter = frozenset(instance_filter)
    key = (id(library), disables, instance_filter)
    fingerprint = _module_fingerprint(module)
    entry = variants.get(key)
    if (
        entry is not None
        and entry.library is library
        and entry.fingerprint == fingerprint
    ):
        metrics.counter("sta.compiled.cache_hits").inc()
        return entry.graph
    compiled = CompiledTimingGraph(module, library, disables, instance_filter)
    if entry is None and len(variants) >= _MAX_VARIANTS:
        variants.pop(next(iter(variants)))
    variants[key] = _CacheEntry(compiled, library, fingerprint)
    return compiled


def invalidate_module(module: Module) -> None:
    """Drop every cached compiled graph of ``module``."""
    _MODULE_CACHE.pop(module, None)


def _changed_load_nets(
    module: Module, library: Library, instance: str, old_cell_name: str
) -> List[str]:
    """Nets whose capacitive load moved when ``instance`` swapped cell."""
    inst = module.instances[instance]
    old_cell = library.cells.get(old_cell_name)
    new_cell = library.cells.get(inst.cell)
    changed = set()
    for pin_name, net in inst.pins.items():
        old_pin = old_cell.pins.get(pin_name) if old_cell else None
        new_pin = new_cell.pins.get(pin_name) if new_cell else None
        old_cap = (
            old_pin.capacitance
            if old_pin is not None and old_pin.direction == PortDirection.INPUT
            else None
        )
        new_cap = (
            new_pin.capacitance
            if new_pin is not None and new_pin.direction == PortDirection.INPUT
            else None
        )
        if old_cap != new_cap:
            changed.add(net)
    return sorted(changed)


def swap_cell(
    module: Module, library: Library, instance: str, new_cell: str
) -> bool:
    """Re-bind ``instance`` to ``new_cell`` and re-time caches in place.

    The supported way to apply an ECO cell swap: performs the edit
    (binding + dirty-log record via ``Module.note_cell_change``),
    patches the per-module net-load cache, and incrementally re-times
    every live compiled graph whose structure the swap preserves --
    bit-identical to a cold rebuild, at dirty-cone cost.

    Returns ``True`` when every live graph stayed warm; ``False`` when
    at least one could not be patched and will rebuild lazily.  The
    module edit itself always happens, so correctness never depends on
    the return value.
    """
    inst = module.instances[instance]
    old_cell = inst.cell
    if old_cell == new_cell:
        return True
    old_stamp = module.mutation_count
    inst.cell = new_cell
    module.note_cell_change(instance)

    changed_nets = _changed_load_nets(module, library, instance, old_cell)
    refresh_net_loads(module, library, changed_nets)

    ok = True
    variants = _MODULE_CACHE.get(module)
    if variants:
        fingerprint = _module_fingerprint(module)
        for entry in variants.values():
            if entry.fingerprint[0] != old_stamp:
                continue  # already stale; rebuilds on demand
            if entry.graph.retime_cell_swap(instance, old_cell):
                entry.fingerprint = fingerprint
            else:
                ok = False
    return ok


def annotate_wires(
    module: Module,
    wire_caps: Optional[Dict[str, float]] = None,
    wire_delays: Optional[Dict[str, float]] = None,
    replace: bool = False,
) -> None:
    """Annotate wire parasitics and re-time cached graphs incrementally.

    The supported way to change ``net_wire_cap`` / ``net_wire_delay``:
    merges (or, with ``replace``, substitutes) the annotation dicts and
    walks every live compiled graph of the module, re-propagating only
    the fanout cones of the touched nets.  Writing the attributes
    directly stays correct -- the fingerprint check forces a rebuild --
    but forfeits the incremental path.
    """
    touched: set = set()
    for attr, annotation in (
        ("net_wire_cap", wire_caps),
        ("net_wire_delay", wire_delays),
    ):
        if annotation is None:
            continue
        touched.update(annotation)
        if replace or attr not in module.attributes:
            if replace:
                touched.update(module.attributes.get(attr, ()))
            module.attributes[attr] = dict(annotation)
        else:
            module.attributes[attr].update(annotation)
    if touched:
        # dirty-log the re-annotation (no mutation_count bump: the
        # fingerprints below hash annotation content separately)
        module.note_wire_annotation(sorted(touched))

    variants = _MODULE_CACHE.get(module)
    if not variants:
        return
    fingerprint = _module_fingerprint(module)
    stamp = module.mutation_count
    for entry in variants.values():
        if entry.fingerprint[0] == stamp:
            entry.graph.refresh_wires()
            entry.fingerprint = fingerprint
        # stale-stamp entries rebuild on next access via the fingerprint
