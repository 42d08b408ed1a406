"""Driver/sink connectivity index with mutation-tracked invalidation.

:func:`repro.netlist.core.driver_of` and :func:`~repro.netlist.core.sinks_of`
scan a net's connection list and classify every pin on each call.  Passes
that look up the same nets repeatedly -- clock-root tracing, reactive
output-region tracing, the grouping pass -- pay that classification cost
over and over.  :class:`ConnectivityIndex` memoizes the per-net
classification so repeated lookups are O(1) dict hits.

Consistency is dirty-log-tracked: every logged
:class:`~repro.netlist.core.Module` edit (``connect``, ``disconnect``,
``remove_instance``, ``merge_nets``, ``rename_net``, cell swaps via
``note_cell_change``, wire re-annotation via ``note_wire_annotation``,
...) advances the module's ``dirty_token``; the index compares tokens
on each query and asks ``Module.dirty_since`` for the per-net dirty
sets, dropping only the stale entries.  When the answer is unknowable
(log overflow, ``copy_from``, ``invalidate_indexes``) it falls back to
a full clear.  Code that rewrites ``Net.connections`` directly (e.g.
the name-cleaning pass) must call ``Module.invalidate_indexes()``.

Passes get their index from :func:`connectivity_index`, which keeps one
per (module, cell-info provider) pair for as long as the module lives,
so logic cleaning, grouping, the independence check, clock-domain
tracing, flip-flop substitution, the ECO and the simulators share one
classification instead of each paying for its own.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..obs import metrics
from .core import CellInfoProvider, Module, PinRef, PortDirection


class ConnectivityIndex:
    """Per-net driver/sink cache over a :class:`Module`.

    The classification matches :func:`~repro.netlist.core.driver_of` /
    :func:`~repro.netlist.core.sinks_of` exactly: drivers are output
    pins and input-port bits, sinks are input pins and output-port
    bits, both in net connection order; inout pins are neither.
    """

    __slots__ = ("_module_ref", "cell_info", "_token", "_nets", "hits", "misses")

    def __init__(self, module: Module, cell_info: CellInfoProvider):
        # held weakly: the memo of connectivity_index keys on the module,
        # so a strong reference from its value would keep it alive
        self._module_ref = weakref.ref(module)
        self.cell_info = cell_info
        self._token = module.dirty_token
        #: net -> (drivers, sinks), both in connection order
        self._nets: Dict[str, Tuple[List[PinRef], List[PinRef]]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def module(self) -> Module:
        return self._module_ref()

    # ------------------------------------------------------------------
    def _refresh(self, module: Module) -> None:
        """Drop entries invalidated since the last query.

        Selective when the module's dirty log covers the gap (only the
        edited nets -- including wire re-annotations, which change
        timing classification without touching pin lists -- are
        evicted); a full clear otherwise.
        """
        token = module.dirty_token
        if token == self._token:
            return
        dirty = module.dirty_since(self._token)
        self._token = token
        if dirty is None:
            if self._nets:
                self._nets.clear()
                metrics.counter("netlist.index.invalidations").inc()
            return
        dropped = 0
        for net in dirty.nets:
            if self._nets.pop(net, None) is not None:
                dropped += 1
        for net in dirty.wires:
            if self._nets.pop(net, None) is not None:
                dropped += 1
        if dropped:
            metrics.counter("netlist.index.partial_invalidations").inc()

    def connections_of(self, net_name: str) -> Tuple[List[PinRef], List[PinRef]]:
        """``(drivers, sinks)`` of a net; the lists are owned by the index."""
        module = self._module_ref()
        self._refresh(module)
        entry = self._nets.get(net_name)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        metrics.counter("netlist.index.misses").inc()
        entry = self._classify(module, net_name)
        self._nets[net_name] = entry
        return entry

    def _classify(
        self, module: Module, net_name: str
    ) -> Tuple[List[PinRef], List[PinRef]]:
        from .core import _port_of_bit

        net = module.nets.get(net_name)
        drivers: List[PinRef] = []
        sinks: List[PinRef] = []
        if net is None:
            return drivers, sinks
        pin_direction = self.cell_info.pin_direction
        ports = module.ports
        instances = module.instances
        for ref in net.connections:
            if ref.instance is None:
                port = ports.get(_port_of_bit(ref.pin))
                if port is None:
                    continue
                if port.direction == PortDirection.INPUT:
                    drivers.append(ref)
                elif port.direction == PortDirection.OUTPUT:
                    sinks.append(ref)
                continue
            direction = pin_direction(instances[ref.instance].cell, ref.pin)
            if direction == PortDirection.OUTPUT:
                drivers.append(ref)
            elif direction == PortDirection.INPUT:
                sinks.append(ref)
        return drivers, sinks

    # ------------------------------------------------------------------
    def driver_of(self, net_name: str) -> Optional[PinRef]:
        """First driving pin of ``net_name`` (``driver_of`` semantics)."""
        drivers, _ = self.connections_of(net_name)
        return drivers[0] if drivers else None

    def sinks_of(self, net_name: str) -> List[PinRef]:
        """Every reading pin of ``net_name`` (``sinks_of`` semantics)."""
        _, sinks = self.connections_of(net_name)
        return list(sinks)

    # ------------------------------------------------------------------
    def topo_order(self, sources: Iterable[str] = ()) -> List[str]:
        """Instances in combinational topological order (Kahn's algorithm).

        ``sources`` names instances whose outputs are treated as primary
        inputs -- sequential elements, handshake controllers -- so they
        are excluded from the order and contribute no dependency edges.
        The batch simulator levelizes its combinational cloud this way
        once, then evaluates a whole cycle as a single ordered sweep.

        Deterministic: ties break by module insertion order.  Raises
        ``ValueError`` on a combinational cycle, naming sample members
        (a self-loop counts as a cycle).
        """
        source_set = set(sources)
        module = self.module
        pin_direction = self.cell_info.pin_direction
        order = [name for name in module.instances if name not in source_set]
        in_cloud = set(order)
        preds: Dict[str, Set[str]] = {}
        succs: Dict[str, List[str]] = {name: [] for name in order}
        for name in order:
            instance = module.instances[name]
            pred_set: Set[str] = set()
            for pin, net in instance.pins.items():
                if pin_direction(instance.cell, pin) != PortDirection.INPUT:
                    continue
                for ref in self.connections_of(net)[0]:
                    if ref.instance in in_cloud:
                        pred_set.add(ref.instance)
            preds[name] = pred_set
        for name in order:
            for pred in preds[name]:
                succs[pred].append(name)
        indegree = {name: len(preds[name]) for name in order}
        ready = deque(name for name in order if not indegree[name])
        result: List[str] = []
        while ready:
            name = ready.popleft()
            result.append(name)
            for succ in succs[name]:
                indegree[succ] -= 1
                if not indegree[succ]:
                    ready.append(succ)
        if len(result) != len(order):
            stuck = [name for name in order if indegree[name]]
            sample = ", ".join(stuck[:5]) + (" ..." if len(stuck) > 5 else "")
            raise ValueError(f"combinational cycle through {sample}")
        metrics.counter("netlist.index.topo_orders").inc()
        return result


#: module -> {cell-info provider: the module's index under it}
_INDEXES: "weakref.WeakKeyDictionary[Module, Dict]" = (
    weakref.WeakKeyDictionary()
)


def connectivity_index(
    module: Module, cell_info: CellInfoProvider
) -> ConnectivityIndex:
    """The one :class:`ConnectivityIndex` of ``module`` under ``cell_info``.

    Every call for the same pair returns the same index until the
    module is freed (the memo holds it weakly); the dirty log keeps the
    index fresh across the edits made between passes.  Providers are
    dict keys, so one built afresh per call shares an entry only if it
    compares equal to the last.  A clone is a new module with an index
    of its own.
    """
    indexes = _INDEXES.get(module)
    if indexes is None:
        indexes = _INDEXES[module] = {}
    index = indexes.get(cell_info)
    if index is None:
        index = indexes[cell_info] = ConnectivityIndex(module, cell_info)
    return index
