"""Reactive handshake environment: memories behind req/ack channels.

A design like the DLX closes combinational loops *through the
environment*: ``pc`` goes out, ``instr = imem[pc]`` comes back.  For
the synchronous testbench that is trivial (everything is in lockstep);
for the desynchronized circuit the environment must respect the
handshake discipline per channel, because internal regions may run
ahead of each other by their token capacity:

- every *output* region announces item ``k`` with its ``ro_<region>``;
  the environment snapshots that region's output ports **before**
  acknowledging, so late consumers still see item ``k``'s values;
- an *input* region is given item ``k`` (data computed by a user
  ``respond`` callback from the item-k snapshots) only once every
  output region has produced item ``k`` -- the memory cannot answer a
  fetch that has not happened yet.

This is the faithful version of the paper's remark that
desynchronized testbenches equal the synchronous ones with clock
references replaced by request/acknowledge signals (section 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..netlist.core import Module, PortDirection
from .simulator import SimulationError, Simulator, Value
from .testbench import initialize_registers

#: respond(k, snapshot) -> input port-bit values for item k;
#: snapshot maps output port bits to their item-k values
RespondFn = Callable[[int, Dict[str, Value]], Dict[str, Value]]


def _port_bit_regions(module: Module, region_map, gatefile) -> Dict[str, str]:
    """Map each output port bit to the *sequential* region sourcing it.

    Output ports are combinationally derived from latches; the handshake
    item that validates a port value is the one announced by the region
    owning those latches.  We trace backwards through combinational
    cells until a sequential element is reached.
    """
    from ..netlist.index import connectivity_index

    out: Dict[str, str] = {}
    # the traces from different port bits overlap heavily in the shared
    # combinational cone, so one index serves every bit
    index = connectivity_index(module, gatefile)
    for port in module.ports.values():
        if port.direction != PortDirection.OUTPUT:
            continue
        for bit in port.bit_names():
            region = _trace_sequential_region(
                module, region_map, gatefile, bit, index
            )
            if region is not None:
                out[bit] = region
    return out


def _trace_sequential_region(
    module: Module,
    region_map,
    gatefile,
    net_name: str,
    index,
    max_cells: int = 500,
) -> Optional[str]:
    seen = set()
    frontier = [net_name]
    while frontier and len(seen) < max_cells:
        net = frontier.pop()
        ref = index.driver_of(net)
        if ref is None or ref.instance is None or ref.instance in seen:
            continue
        seen.add(ref.instance)
        inst = module.instances[ref.instance]
        info = gatefile.cells.get(inst.cell)
        if info is None:
            continue
        if info.is_sequential:
            return region_map.region_of(ref.instance)
        for pin, in_net in inst.pins.items():
            gate_pin = info.pins.get(pin)
            if gate_pin is not None and gate_pin.direction == PortDirection.INPUT:
                frontier.append(in_net)
    return None


@dataclass
class ReactiveEnvironment:
    """Drives a desynchronized design whose inputs answer its outputs."""

    simulator: Simulator
    env_ports: Dict[str, Dict[str, str]]
    respond: RespondFn
    reset_port: str = "rst"
    timeout: float = 50000.0
    #: polling granularity (ns): the environment's reaction latency
    poll_step: float = 0.1
    #: settle time between applying data and raising the request
    data_setup: float = 0.1
    #: output port bit -> producing region (auto-built by ``attach``)
    port_regions: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._in_regions = [r for r, p in self.env_ports.items() if "ri" in p]
        self._out_regions = [r for r, p in self.env_ports.items() if "ao" in p]
        self._snapshots: Dict[str, List[Dict[str, Value]]] = {
            region: [] for region in self._out_regions
        }
        self._consumed = 0
        self._ri_high = False

    @classmethod
    def attach(cls, simulator: Simulator, desync_result, respond: RespondFn
               ) -> "ReactiveEnvironment":
        env = cls(
            simulator,
            desync_result.network.env_ports,
            respond,
            desync_result.network.reset_net,
        )
        env.port_regions = _port_bit_regions(
            desync_result.module,
            desync_result.region_map,
            desync_result.gatefile,
        )
        return env

    # ------------------------------------------------------------------
    def _region_outputs(self, region: str) -> List[str]:
        handshake = set()
        for ports in self.env_ports.values():
            handshake.update(ports.values())
        return [
            bit
            for bit, owner in self.port_regions.items()
            if owner == region and bit not in handshake
        ]

    def _snapshot(self, region: str) -> Dict[str, Value]:
        return {
            bit: self.simulator.value(bit)
            for bit in self._region_outputs(region)
        }

    def _item_snapshot(self, item: int) -> Dict[str, Value]:
        """Merged output values as of item ``item``."""
        merged: Dict[str, Value] = {}
        for region in self._out_regions:
            history = self._snapshots[region]
            if item == 0 or not history:
                merged.update(self._reset_snapshot.get(region, {}))
            else:
                merged.update(history[min(item, len(history)) - 1])
        return merged

    # ------------------------------------------------------------------
    def reset(self, registers_value: int = 0) -> None:
        sim = self.simulator
        sim.set_input(self.reset_port, 1)
        for region in self._in_regions:
            sim.set_input(self.env_ports[region]["ri"], 0)
        for region in self._out_regions:
            sim.set_input(self.env_ports[region]["ao"], 0)
        sim.run_for(2.0)
        initialize_registers(sim, registers_value)
        sim.run_for(2.0)
        self._reset_snapshot = {
            region: self._snapshot(region) for region in self._out_regions
        }
        # item 0: computed from the reset-state outputs
        for bit, value in self.respond(0, self._item_snapshot(0)).items():
            sim.set_input(bit, value)
        self._consumed = 1
        sim.run_for(2.0)
        sim.set_input(self.reset_port, 0)
        sim.run_for(2.0)

    # ------------------------------------------------------------------
    def _poll(self) -> None:
        sim = self.simulator
        # output side: snapshot + acknowledge
        for region in self._out_regions:
            ports = self.env_ports[region]
            request = sim.value(ports["ro"])
            ack = sim.value(ports["ao"])
            if request == 1 and ack != 1:
                self._snapshots[region].append(self._snapshot(region))
                sim.set_input(ports["ao"], 1)
            elif request == 0 and ack == 1:
                sim.set_input(ports["ao"], 0)

        # input side: common item pacing across all input channels
        if not self._in_regions:
            return
        ai_values = [
            sim.value(self.env_ports[r]["ai"]) for r in self._in_regions
        ]
        if self._ri_high:
            if all(v == 1 for v in ai_values):
                for region in self._in_regions:
                    sim.set_input(self.env_ports[region]["ri"], 0)
                self._ri_high = False
            return
        if any(v != 0 for v in ai_values):
            return
        produced = min(
            (len(self._snapshots[r]) for r in self._out_regions),
            default=self._consumed,
        )
        if self._consumed > produced or self._consumed > self._max_items - 1:
            return
        values = self.respond(self._consumed, self._item_snapshot(self._consumed))
        for bit, value in values.items():
            sim.set_input(bit, value)
        sim.run_for(self.data_setup)
        for region in self._in_regions:
            sim.set_input(self.env_ports[region]["ri"], 1)
        self._ri_high = True
        self._consumed += 1

    def run_items(self, n_items: int, settle: float = 50.0) -> int:
        """Feed items 1..n_items-1 (item 0 went in at reset)."""
        self._max_items = n_items
        sim = self.simulator
        start = sim.now
        while self._consumed < n_items:
            sim.run_for(self.poll_step)
            self._poll()
            if sim.now - start > self.timeout:
                raise SimulationError(
                    f"reactive environment stalled at item {self._consumed}"
                )
        end = sim.now + settle
        while sim.now < end:
            sim.run_for(self.poll_step)
            self._poll()
        return self._consumed
