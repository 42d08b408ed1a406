"""Design-import hygiene and *logic cleaning* netlist rewrites.

Section 3.2.1 of the paper: during design import, escaped names are
substituted by simple ones and ``assign`` statements are replaced wherever
possible, producing a cleaner netlist without altering functionality.

Section 3.2.2: before the grouping algorithm runs, the netlist must
contain only "clean logic" -- free of buffers and inverter pairs inserted
by synthesis for signal strength -- so that those cells do not induce
*false* logic dependencies between combinational clouds (Figure 3.5).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..obs import metrics, trace
from .core import Module, PinRef, PortDirection


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def groups(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for item in list(self._parent):
            out.setdefault(self.find(item), []).append(item)
        return {root: members for root, members in out.items() if len(members) > 1}


def resolve_assigns(module: Module) -> int:
    """Collapse ``assign lhs = rhs`` aliases into single nets.

    Port nets keep their names; when two port bits are aliased to each
    other the assign is kept (a wire must remain between them).  Returns
    the number of assigns eliminated.
    """
    if not module.assigns:
        return 0
    from .core import bus_base

    port_bits = set(module.port_bits())
    input_bits = set(module.port_bits(PortDirection.INPUT))
    uf = _UnionFind()
    for lhs, rhs in module.assigns:
        uf.union(lhs, rhs)

    eliminated = 0
    kept: List[Tuple[str, str]] = []
    for _root, members in uf.groups().items():
        constants = [m for m in members if module.nets[m].is_constant]
        ports = sorted(
            (m for m in members if m in port_bits),
            key=lambda m: (m not in input_bits, m),
        )
        if constants:
            rep = constants[0]
        elif ports:
            rep = ports[0]  # prefer an input port as the driver
        else:
            rep = min(members, key=len)
        for member in members:
            if member == rep:
                continue
            if member in port_bits or (
                member in module.nets and module.nets[member].is_constant
            ):
                kept.append((member, rep))
                continue
            module.merge_nets(rep, member)
            eliminated += 1
    eliminated += len(module.assigns) - len(kept)
    module.assigns = kept
    return max(eliminated, 0)


_CLEAN_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\[\d+\])?$")


def simplify_names(module: Module) -> int:
    """Rename escaped/exotic net and instance names to simple ones.

    Returns the number of renames performed.  Port nets are never
    renamed (their names are part of the module interface).
    """
    port_bits = set(module.port_bits())
    renames = 0
    counter = 0
    for name in list(module.nets):
        if name in port_bits or _CLEAN_NAME_RE.match(name):
            continue
        while True:
            counter += 1
            fresh = f"n_clean_{counter}"
            if fresh not in module.nets:
                break
        module.rename_net(name, fresh)
        renames += 1
    renamed: Dict[str, str] = {}
    for name in list(module.instances):
        if _CLEAN_NAME_RE.match(name):
            continue
        while True:
            counter += 1
            fresh = f"u_clean_{counter}"
            if fresh not in module.instances:
                break
        inst = module.instances.pop(name)
        inst.name = fresh
        module.instances[fresh] = inst
        renamed[name] = fresh
    if renamed:
        # one rebuild per touched net, keeping every pin's position; a
        # rebuild per renamed pin is quadratic on a shared clock net
        touched = {
            net
            for fresh in renamed.values()
            for net in module.instances[fresh].pins.values()
        }
        for net_name in touched:
            net = module.nets[net_name]
            net.connections = {
                PinRef(renamed[c.instance], c.pin)
                if c.instance in renamed
                else c: None
                for c in net.connections
            }
        # connections were rewritten directly, bypassing the mutation
        # hooks: the module's connectivity index must drop its cache
        module.invalidate_indexes()
    return renames + len(renamed)


def _single_input_output(
    module: Module, inst_name: str, cell_pins: Tuple[str, str]
) -> Tuple[Optional[str], Optional[str]]:
    inst = module.instances[inst_name]
    in_pin, out_pin = cell_pins
    return inst.pins.get(in_pin), inst.pins.get(out_pin)


def remove_buffers(
    module: Module,
    buffer_cells: Dict[str, Tuple[str, str]],
    protected_nets: Optional[Set[str]] = None,
) -> int:
    """Remove buffer cells, short-circuiting input to output.

    ``buffer_cells`` maps cell name -> (input pin, output pin).  A buffer
    whose output is a port bit (or protected) keeps its output name: the
    sinks are moved and the buffer is dropped only when the output net can
    be merged away.  Returns the number of buffers removed.
    """
    port_bits = set(module.port_bits())
    protected = set(protected_nets or ())
    removed = 0
    for inst_name in list(module.instances):
        inst = module.instances.get(inst_name)
        if inst is None or inst.cell not in buffer_cells:
            continue
        in_net, out_net = _single_input_output(
            module, inst_name, buffer_cells[inst.cell]
        )
        if in_net is None or out_net is None or in_net == out_net:
            continue
        if out_net in port_bits or out_net in protected:
            continue
        module.remove_instance(inst_name)
        module.merge_nets(in_net, out_net)
        removed += 1
    return removed


def remove_inverter_pairs(
    module: Module,
    inverter_cells: Dict[str, Tuple[str, str]],
    cell_info,
    protected_nets: Optional[Set[str]] = None,
) -> int:
    """Remove back-to-back inverter pairs (a logical buffer).

    The intermediate net must have the second inverter as its *only*
    sink, and neither intermediate nor final net may be a port bit.
    ``cell_info`` provides pin directions for sink counting.
    """
    from .index import connectivity_index

    index = connectivity_index(module, cell_info)
    port_bits = set(module.port_bits())
    protected = set(protected_nets or ())
    removed = 0
    for first_name in list(module.instances):
        first = module.instances.get(first_name)
        if first is None or first.cell not in inverter_cells:
            continue
        in_net, mid_net = _single_input_output(
            module, first_name, inverter_cells[first.cell]
        )
        if in_net is None or mid_net is None:
            continue
        if mid_net in port_bits or mid_net in protected:
            continue
        sinks = index.sinks_of(mid_net)
        if len(sinks) != 1 or sinks[0].instance is None:
            continue
        second = module.instances.get(sinks[0].instance)
        if second is None or second.cell not in inverter_cells:
            continue
        second_in, out_net = _single_input_output(
            module, second.name, inverter_cells[second.cell]
        )
        if second_in != mid_net or out_net is None:
            continue
        if out_net in port_bits or out_net in protected:
            continue
        second_name = second.name
        module.remove_instance(first_name)
        module.remove_instance(second_name)
        module.merge_nets(in_net, out_net)
        module.remove_net(mid_net)
        removed += 2
    return removed


def clean_logic(module: Module, gatefile, protected_nets=None) -> Dict[str, int]:
    """Full logic cleaning pass driven by a gatefile.

    Removes buffers and double inverters so grouping sees only true data
    dependencies.  Returns counts of removed cells per category.
    """
    with trace.span("clean_logic", instances=len(module.instances)) as span:
        buffers = {
            name: (info.data_inputs[0], info.outputs[0])
            for name, info in gatefile.cells.items()
            if info.is_buffer
        }
        inverters = {
            name: (info.data_inputs[0], info.outputs[0])
            for name, info in gatefile.cells.items()
            if info.is_inverter
        }
        removed_buffers = remove_buffers(module, buffers, protected_nets)
        removed_inverters = remove_inverter_pairs(
            module, inverters, gatefile, protected_nets
        )
        span.set("buffers", removed_buffers)
        span.set("inverter_pairs", removed_inverters)
    metrics.counter("netlist.clean.buffers_removed").inc(removed_buffers)
    metrics.counter("netlist.clean.inverter_cells_removed").inc(
        removed_inverters
    )
    return {"buffers": removed_buffers, "inverter_pairs": removed_inverters}
