"""The backend stage: place, CTS, route, in-place optimize, report.

Mirrors the paper's P&R step (section 4.7): gates are placed, low-skew
buffer trees inserted, nets routed, and the timing/DRC-driven in-place
optimization resizes drivers and buffers heavy nets -- honouring the
desynchronization constraints (``size_only`` gates may be resized but
never restructured; ``dont_touch`` cells are left alone entirely).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..liberty.model import CellKind, Library
from ..netlist.core import Module, PortDirection
from ..sta.sdc import SdcFile
from .cts import CtsResult, run_cts
from .placement import Placement, improve_placement, place, total_wirelength
from .routing import RoutingResult, congestion_estimate, route

_DRIVE_RE = re.compile(r"^(?P<base>.+?)X(?P<drive>\d+)$")
_DRIVE_LADDER = [1, 2, 4]


@dataclass
class LayoutReport:
    """Post-layout numbers in the shape of Tables 5.1 / 5.2."""

    nets: int = 0
    cells: int = 0
    standard_cell_area: float = 0.0
    core_size: float = 0.0
    utilization: float = 0.0
    wirelength: float = 0.0
    congestion: float = 0.0
    cts_buffers: int = 0
    ipo_changes: int = 0


@dataclass
class BackendResult:
    placement: Placement
    routing: RoutingResult
    cts: CtsResult
    report: LayoutReport


def _upsize(cell_name: str, library: Library) -> Optional[str]:
    match = _DRIVE_RE.match(cell_name)
    if match is None:
        return None
    drive = int(match.group("drive"))
    try:
        next_drive = _DRIVE_LADDER[_DRIVE_LADDER.index(drive) + 1]
    except (ValueError, IndexError):
        return None
    candidate = f"{match.group('base')}X{next_drive}"
    if candidate not in library:
        return None
    return candidate


def in_place_optimize(
    module: Module,
    library: Library,
    routing: RoutingResult,
    dont_touch: Optional[Set[str]] = None,
    max_passes: int = 3,
) -> int:
    """Fix max-capacitance violations by resizing or buffering drivers.

    Cells marked ``dont_touch`` (delay elements) are skipped; cells with
    only ``size_only`` (controllers) may be resized, matching section
    4.6.2.  Returns the number of netlist changes.
    """
    from ..sta.graph import compute_net_loads

    dont_touch = dont_touch or set()
    changes = 0
    for _ in range(max_passes):
        loads = compute_net_loads(module, library)
        fixed_this_pass = 0
        for inst in list(module.instances.values()):
            if inst.name in dont_touch or inst.attributes.get("dont_touch"):
                continue
            cell = library.cells.get(inst.cell)
            if cell is None:
                continue
            for pin_name in cell.output_pins():
                net = inst.pins.get(pin_name)
                if net is None:
                    continue
                max_cap = cell.pins[pin_name].max_capacitance
                if max_cap is None or loads.get(net, 0.0) <= max_cap:
                    continue
                bigger = _upsize(inst.cell, library)
                if bigger is not None:
                    inst.cell = bigger
                    # logged, so the next pass's loads see the new pin caps
                    module.note_cell_change(inst.name)
                    fixed_this_pass += 1
                    break
                if inst.attributes.get("size_only"):
                    continue  # cannot restructure controller fanout
                # split the net with a buffer taking half the sinks
                fixed_this_pass += _insert_split_buffer(
                    module, library, net
                )
                break
        changes += fixed_this_pass
        if fixed_this_pass == 0:
            break
    return changes


def _insert_split_buffer(module: Module, library: Library, net: str) -> int:
    from ..netlist.core import PinRef

    if "BUFX4" not in library:
        return 0
    sinks = [
        ref
        for ref in module.nets[net].connections
        if ref.instance is not None
        and _is_input_pin(module, library, ref)
    ]
    if len(sinks) < 4:
        return 0
    moved = sinks[: len(sinks) // 2]
    buf_name = module.new_name("ipo_buf")
    buf_net = module.new_name("ipo_net")
    module.ensure_net(buf_net)
    inst = module.add_instance(buf_name, "BUFX4", {"A": net, "Z": buf_net})
    inst.attributes["role"] = "ipo_buffer"
    for ref in moved:
        module.connect(ref.instance, ref.pin, buf_net)
    return 1


def _is_input_pin(module, library, ref) -> bool:
    cell = library.cells.get(module.instances[ref.instance].cell)
    if cell is None:
        return False
    pin = cell.pins.get(ref.pin)
    return pin is not None and pin.direction == PortDirection.INPUT


def run_backend(
    module: Module,
    library: Library,
    sdc: Optional[SdcFile] = None,
    target_utilization: float = 0.90,
    improve: bool = False,
) -> BackendResult:
    """Full backend: CTS -> placement -> routing -> IPO -> report."""
    dont_touch: Set[str] = set()
    if sdc is not None:
        for constraint in sdc.constraints:
            kind = type(constraint).__name__
            if kind == "SetDontTouch":
                dont_touch.update(constraint.instances)

    placement = place(module, library, target_utilization)
    cts = run_cts(module, library, placement)
    # CTS added cells: re-place to account for them
    placement = place(module, library, target_utilization)
    if improve:
        improve_placement(module, placement)
    routing = route(module, placement)
    ipo_changes = in_place_optimize(module, library, routing, dont_touch)
    if ipo_changes:
        placement = place(module, library, target_utilization)
        routing = route(module, placement)

    report = LayoutReport(
        nets=len(module.nets),
        cells=len(module.instances),
        standard_cell_area=placement.cell_area,
        core_size=placement.core_area,
        utilization=placement.utilization,
        wirelength=routing.total_wirelength,
        congestion=congestion_estimate(module, placement, routing),
        cts_buffers=cts.total_buffers,
        ipo_changes=ipo_changes,
    )
    return BackendResult(placement, routing, cts, report)
