"""Clock / latch-enable tree synthesis.

The backend inserts low-skew buffer trees on the clock net of the
synchronous design and on every master/slave enable net of the
desynchronized one (section 4.5.1: the CTS algorithm matches the buffer
tree depths of the enable signals).  The model clusters sinks by
placement proximity, inserts CKBUF levels bounded by a maximum fanout,
and reports insertion delay and skew per tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..liberty.model import Library
from ..netlist.core import Module, PinRef, PortDirection
from .placement import Placement


@dataclass
class ClockTree:
    root_net: str
    buffers: List[str] = field(default_factory=list)
    levels: int = 0
    sink_count: int = 0


@dataclass
class CtsResult:
    trees: Dict[str, ClockTree] = field(default_factory=dict)

    @property
    def total_buffers(self) -> int:
        return sum(len(t.buffers) for t in self.trees.values())


def _clock_sink_pins(
    module: Module, library: Library, net_name: str
) -> List[PinRef]:
    net = module.nets.get(net_name)
    if net is None:
        return []
    sinks = []
    for ref in net.connections:
        if ref.instance is None:
            continue
        cell = library.cells.get(module.instances[ref.instance].cell)
        if cell is None:
            continue
        pin = cell.pins.get(ref.pin)
        if pin is not None and pin.direction == PortDirection.INPUT:
            sinks.append(ref)
    return sinks


def synthesize_tree(
    module: Module,
    library: Library,
    net_name: str,
    placement: Optional[Placement] = None,
    max_fanout: int = 12,
    buffer_cell: str = "CKBUFX4",
) -> ClockTree:
    """Insert a buffer tree on ``net_name``; rewires sink pins in place."""
    tree = ClockTree(net_name)
    sinks = _clock_sink_pins(module, library, net_name)
    tree.sink_count = len(sinks)
    if len(sinks) <= max_fanout:
        return tree

    def position(ref: PinRef) -> Tuple[float, float]:
        if placement is None or ref.instance not in placement.locations:
            return (0.0, 0.0)
        return placement.locations[ref.instance]

    current: List[Tuple[PinRef, Tuple[float, float]]] = [
        (ref, position(ref)) for ref in sinks
    ]
    # each pass: sort by position, chop into clusters, buffer each cluster
    level = 0
    while len(current) > max_fanout:
        level += 1
        current.sort(key=lambda item: (item[1][1], item[1][0]))
        next_level: List[Tuple[PinRef, Tuple[float, float]]] = []
        for start in range(0, len(current), max_fanout):
            cluster = current[start : start + max_fanout]
            buf_name = module.new_name(f"ctsbuf_{net_name}")
            buf_out = module.new_name(f"ctsnet_{net_name}")
            module.ensure_net(buf_out)
            inst = module.add_instance(
                buf_name, buffer_cell, {"A": net_name, "Z": buf_out}
            )
            inst.attributes["role"] = "cts_buffer"
            tree.buffers.append(buf_name)
            xs = [p[0] for _, p in cluster]
            ys = [p[1] for _, p in cluster]
            centre = (sum(xs) / len(xs), sum(ys) / len(ys))
            for ref, _pos in cluster:
                module.connect(ref.instance, ref.pin, buf_out)
            next_level.append((PinRef(buf_name, "A"), centre))
        current = next_level
    tree.levels = level
    if placement is not None:
        for name in tree.buffers:
            if name not in placement.locations:
                placement.locations[name] = (
                    placement.core_width / 2.0,
                    placement.core_height / 2.0,
                )
    return tree


def enable_nets_of(module: Module, library: Library) -> List[str]:
    """Nets driving sequential clock/enable pins (candidates for trees)."""
    candidates = []
    for net_name, net in module.nets.items():
        clock_sinks = 0
        for ref in net.connections:
            if ref.instance is None:
                continue
            cell = library.cells.get(module.instances[ref.instance].cell)
            if cell is None:
                continue
            pin = cell.pins.get(ref.pin)
            if pin is not None and pin.is_clock:
                clock_sinks += 1
        if clock_sinks > 0:
            candidates.append(net_name)
    return candidates


def run_cts(
    module: Module,
    library: Library,
    placement: Optional[Placement] = None,
    max_fanout: int = 12,
) -> CtsResult:
    """Buffer every clock/enable distribution net."""
    result = CtsResult()
    for net_name in enable_nets_of(module, library):
        tree = synthesize_tree(
            module, library, net_name, placement, max_fanout
        )
        result.trees[net_name] = tree
    return result
