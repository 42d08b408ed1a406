"""Post-layout ECO calibration of delay elements (future work, ch. 6).

"After the final layout, Engineering Change Order (ECO) can be used to
calibrate the length of the delay elements taking into consideration
the final delays including full parasitics extraction."

After the backend has annotated wire parasitics, both sides of the
matching equation have moved: the region clouds got slower (wire RC)
and so did the delay elements themselves.  :func:`eco_calibrate`
re-measures both with the layout-aware STA and patches each element in
place -- extending the AND chain where the margin has eroded, trimming
it where the post-layout element is needlessly long.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..liberty.model import Library
from ..liberty.techmap import GateChooser
from ..netlist.core import Module, PinRef
from .delays import DelayElement
from .network import region_delays


@dataclass
class EcoChange:
    region: str
    cloud_delay: float
    element_delay: float
    old_length: int
    new_length: int

    @property
    def action(self) -> str:
        if self.new_length > self.old_length:
            return "extended"
        if self.new_length < self.old_length:
            return "trimmed"
        return "unchanged"


@dataclass
class EcoReport:
    changes: List[EcoChange] = field(default_factory=list)

    @property
    def extended(self) -> int:
        return sum(1 for c in self.changes if c.action == "extended")

    @property
    def trimmed(self) -> int:
        return sum(1 for c in self.changes if c.action == "trimmed")

    def to_text(self) -> str:
        lines = ["ECO delay-element calibration (post-layout)"]
        lines.append(
            f"{'region':>8s} {'cloud (ns)':>11s} {'element (ns)':>13s} "
            f"{'levels':>13s} {'action':>10s}"
        )
        for change in self.changes:
            lines.append(
                f"{change.region:>8s} {change.cloud_delay:>11.3f} "
                f"{change.element_delay:>13.3f} "
                f"{change.old_length:>5d} -> {change.new_length:<4d} "
                f"{change.action:>10s}"
            )
        return "\n".join(lines)


def measure_element_delay(
    module: Module,
    library: Library,
    element: DelayElement,
    corner: str = "worst",
) -> float:
    """Layout-aware rise delay of a placed delay element's chain.

    Sums the per-stage arc delays at the *annotated* loads (sink pin
    caps plus extracted wire caps) plus annotated wire delays -- the
    "final delays including full parasitics extraction" of chapter 6.
    """
    from ..sta.graph import compute_net_loads

    derate = library.corner(corner).derate
    loads = compute_net_loads(module, library)
    wire_delays = module.attributes.get("net_wire_delay", {})
    total = 0.0
    for name in element.instances:
        inst = module.instances.get(name)
        if inst is None or not inst.cell.startswith("AND"):
            continue
        cell = library.cells.get(inst.cell)
        if cell is None:
            continue
        out_net = inst.pins.get("Z")
        if out_net is None:
            continue
        arc = cell.delay_arcs()[0]
        total += arc.delay(loads.get(out_net, 0.0), rise=True) * derate
        total += wire_delays.get(out_net, 0.0) * derate
    return total


def _extend_element(
    module: Module,
    chooser: GateChooser,
    element: DelayElement,
    extra_levels: int,
    cell_info,
) -> None:
    """Splice ``extra_levels`` AND stages just before the element output.

    ECO style: the existing output net keeps its name (and its sink, the
    controller RI pin); the old final stage now feeds the spliced chain.
    """
    from ..netlist.index import connectivity_index

    and_cell, and_pins, and_out = chooser.gate("and2")
    out_net = element.output_net
    driver_ref = connectivity_index(module, cell_info).driver_of(out_net)
    if driver_ref is None or driver_ref.instance is None:
        raise ValueError(f"delay element output {out_net!r} has no driver")
    driver_inst, driver_pin = driver_ref.instance, driver_ref.pin
    previous = module.new_name(f"eco_{element.region}_n")
    module.ensure_net(previous)
    module.connect(driver_inst, driver_pin, previous)
    for level in range(extra_levels):
        is_last = level == extra_levels - 1
        stage_out = out_net if is_last else module.new_name(
            f"eco_{element.region}_n"
        )
        module.ensure_net(stage_out)
        inst_name = module.new_name(f"eco_{element.region}_u")
        inst = module.add_instance(
            inst_name,
            and_cell,
            {
                and_pins[0]: previous,
                and_pins[1]: element.input_net,
                and_out: stage_out,
            },
        )
        inst.attributes.update(
            {"role": "delay_element", "region": element.region,
             "dont_touch": True, "eco": True}
        )
        element.instances.append(inst_name)
        previous = stage_out
    element.length += extra_levels


def eco_calibrate(
    desync_result,
    library: Library,
    corner: str = "worst",
    margin: float = 0.10,
    chooser: Optional[GateChooser] = None,
    backend: str = "compiled",
) -> EcoReport:
    """Re-measure clouds and elements post-layout; extend short elements.

    Elements that are too *long* are reported (``trimmed`` would require
    re-routing the output tap; we record the opportunity but only
    lengthen, the conservative ECO).  Returns the change report.

    With the compiled backend the cloud measurement reuses the module's
    cached flat graph: when the backend annotated parasitics through
    :func:`repro.sta.annotate_wires`, only the touched fanout cones
    were re-propagated, not the whole design.
    """
    module = desync_result.module
    chooser = chooser or GateChooser(library)
    report = EcoReport()

    clouds = region_delays(
        module, library, desync_result.region_map, corner, backend=backend
    )
    per_level = (
        desync_result.ladder.rise_delays[0]
        if desync_result.ladder.rise_delays
        else 0.05
    )
    derate = library.corner(corner).derate
    ladder_derate = library.corner(desync_result.ladder.corner).derate

    for region, element in sorted(desync_result.network.delay_elements.items()):
        cloud = clouds.get(region, 0.0)
        if cloud <= 0:
            continue
        actual = measure_element_delay(module, library, element, corner)
        required = cloud * (1.0 + margin)
        old_length = element.length
        if actual < required:
            level_delay = max(
                per_level / ladder_derate * derate, 1e-6
            )
            missing = required - actual
            extra = max(1, int(missing / level_delay) + 1)
            _extend_element(
                module, chooser, element, extra, desync_result.gatefile
            )
        report.changes.append(
            EcoChange(
                region=region,
                cloud_delay=cloud,
                element_delay=actual,
                old_length=old_length,
                new_length=element.length,
            )
        )
    return report
