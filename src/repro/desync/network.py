"""Controller network insertion (sections 2.4.2, 2.4.5, 3.2.6).

For every region the flow places a master/slave latch-controller pair
driving the region's ``gm_*`` / ``gs_*`` enable nets, joins multiple
request or acknowledge sources with C-Muller elements, and puts the
region's matched delay element on its incoming request (Figure 2.11).

Environment boundaries become ports: a region reading primary inputs
gets ``ri_<region>`` (request in) / ``ai_<region>`` (acknowledge out),
a region driving primary outputs gets ``ro_<region>`` / ``ao_<region>``
-- exactly the request/acknowledge signals the paper says replace the
clock references in testbenches (section 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..liberty.gatefile import Gatefile
from ..liberty.model import Library
from ..liberty.techmap import GateChooser
from ..netlist.core import Module, PortDirection
from ..obs import metrics, trace
from ..sta.analysis import propagate
from ..sta.graph import build_timing_graph
from .cmuller import build_cmuller
from .controllers import ControllerInstance, place_controller
from .ddg import ENV, DiGraph, predecessors_of, successors_of
from .delays import (
    DelayElement,
    DelayLadder,
    build_delay_element,
    choose_length,
    element_length_for,
)
from .ffsub import master_enable_net, slave_enable_net
from .regions import RegionMap


class NetworkError(Exception):
    """Raised when the controller network cannot be built."""


@dataclass
class ControlNetwork:
    """Everything the insertion pass created, for constraints/reports."""

    controllers: Dict[Tuple[str, str], ControllerInstance] = field(
        default_factory=dict
    )
    delay_elements: Dict[str, DelayElement] = field(default_factory=dict)
    #: ack-matching delay elements (cover enable-tree insertion delay)
    ack_delays: Dict[str, DelayElement] = field(default_factory=dict)
    cmuller_instances: List[str] = field(default_factory=list)
    env_ports: Dict[str, Dict[str, str]] = field(default_factory=dict)
    region_delays: Dict[str, float] = field(default_factory=dict)
    reset_net: str = "rst"

    def controller_instances(self) -> List[str]:
        """Names of every controller gate (3 complex gates per controller)."""
        out: List[str] = []
        for controller in self.controllers.values():
            out.extend(controller.gate_names)
        return out

    def handshake_nets(self) -> Dict[str, Dict[str, str]]:
        """Per-region handshake net names, post insertion/rerouting.

        The observability layer (``repro.sim.probes``) auto-discovers
        the nets to watch from this map instead of re-deriving the
        naming scheme.  Per active region:

        - ``req``      -- delayed request into the master (``req_<r>``)
        - ``req_src``  -- the joined request *before* the matched delay
          element (a predecessor's ``ys`` or the C-Muller join output)
        - ``xm``/``ym``/``gm`` -- master admission/request elements and
          enable pulse
        - ``xs``/``ys``/``gs`` -- the slave's counterparts
        - ``xma``      -- the ack-matching delayed acknowledge out
        - ``ack``      -- the acknowledge the slave actually sees
          (rerouted to the single source when no C-Muller was needed)
        """
        out: Dict[str, Dict[str, str]] = {}
        for (region, role), controller in self.controllers.items():
            if role != "master":
                continue
            slave = self.controllers[(region, "slave")]
            element = self.delay_elements.get(region)
            ack_element = self.ack_delays.get(region)
            nets = {
                "req": controller.ri_net,
                "req_src": element.input_net if element else controller.ri_net,
                "xm": controller.x_net,
                "ym": controller.y_net,
                "gm": controller.g_net,
                "xs": slave.x_net,
                "ys": slave.y_net,
                "gs": slave.g_net,
                "ack": slave.ao_net,
            }
            if ack_element is not None:
                nets["xma"] = ack_element.output_net
            out[region] = nets
        return out

    def delay_instances(self) -> List[str]:
        out: List[str] = []
        for element in self.delay_elements.values():
            out.extend(element.instances)
        for element in self.ack_delays.values():
            out.extend(element.instances)
        return out


def region_delays(
    module: Module,
    library: Library,
    region_map: RegionMap,
    corner: str = "worst",
    backend: str = "compiled",
) -> Dict[str, float]:
    """Critical-path delay of each region's cloud, one STA pass.

    Launch points are all sequential outputs; because regions are
    combinationally independent, the worst arrival at a region's
    sequential data inputs equals that region's cloud delay
    (section 3.2.5: "for each circuit region we compute the critical
    path delay of its combinational logic cloud").  The compiled
    backend reuses the module's cached flat graph (shared with
    ``analyze`` and the ECO loop) and rescales it to ``corner``.
    """
    if backend == "compiled":
        from ..sta.compiled import compiled_graph

        compiled = compiled_graph(module, library)
        derate = library.corner(corner).derate
        report = compiled.propagate(derate)
        capture_items = compiled.capture_items(derate)
    else:
        graph = build_timing_graph(module, library, corner)
        report = propagate(graph, backend=backend)
        capture_items = list(graph.capture_nodes.items())
    delays: Dict[str, float] = {name: 0.0 for name in region_map.regions}
    for node, setup in capture_items:
        instance = node[0]
        if instance is None:
            continue
        region = region_map.region_of(instance)
        if region is None:
            continue
        arrival = report.arrivals.get(node)
        if arrival is None:
            continue
        total = arrival + setup
        if total > delays.get(region, 0.0):
            delays[region] = total
    return delays


def insert_control_network(
    module: Module,
    library: Library,
    gatefile: Gatefile,
    region_map: RegionMap,
    ddg: DiGraph,
    ladder: DelayLadder,
    chooser: Optional[GateChooser] = None,
    delay_margin: float = 0.10,
    mux_taps: int = 0,
    mux_headroom: float = 2.2,
    reset_port: str = "rst",
    corner: str = "worst",
    precomputed_delays: Optional[Dict[str, float]] = None,
) -> ControlNetwork:
    """Replace the clock network by the handshake controller network.

    ``precomputed_delays`` short-circuits the per-region critical-path
    STA with delays the caller already knows (the incremental re-flow
    computes them through the warm compiled graph before deciding
    whether a full re-insertion is needed at all).
    """
    chooser = chooser or GateChooser(library)
    network = ControlNetwork(reset_net=reset_port)

    if reset_port not in module.ports:
        module.add_port(reset_port, PortDirection.INPUT)

    # regions that actually own latches participate in the handshake
    active = [
        name
        for name, region in sorted(region_map.regions.items())
        if region.sequential_instances(module, gatefile)
    ]
    if not active:
        raise NetworkError("no sequential regions: nothing to desynchronize")
    active_set = set(active)

    with trace.span("network.region_delays", regions=len(active)):
        network.region_delays = (
            dict(precomputed_delays)
            if precomputed_delays is not None
            else region_delays(module, library, region_map, corner)
        )

    # place the controller pairs first so every handshake net exists;
    # net names are deterministic (xm/ym/xs/ys per region) so that the
    # wiring loop below can reference neighbours before they are wired
    with trace.span("network.controllers", regions=len(active)):
        for region in active:
            gm = master_enable_net(region)
            gs = slave_enable_net(region)
            req_net = f"req_{region}"
            slave_ao = f"ack_{region}"
            module.ensure_net(req_net)
            module.ensure_net(slave_ao)
            master = place_controller(
                module, library, region, "master",
                ri_net=req_net, ao_net=f"ys_{region}", g_net=gm,
                rst_net=reset_port,
                x_net=f"xm_{region}", y_net=f"ym_{region}",
            )
            slave = place_controller(
                module, library, region, "slave",
                ri_net=f"ym_{region}", ao_net=slave_ao, g_net=gs,
                rst_net=reset_port,
                x_net=f"xs_{region}", y_net=f"ys_{region}",
            )
            network.controllers[(region, "master")] = master
            network.controllers[(region, "slave")] = slave

    # enable distribution: heavily loaded enable nets get a buffer tree
    # right away (the backend CTS would re-balance it, section 4.5.1);
    # then acknowledge-matching delays cover the remaining insertion
    # delay plus the capture pulse, so a predecessor can never overwrite
    # this region's input data before the (late) enable pulse captured it
    from ..physical.cts import synthesize_tree
    from ..sta.graph import compute_net_loads
    from .controllers import PULSE_GATE_CELL

    tree_levels: Dict[str, int] = {}
    with trace.span("network.enable_trees", regions=len(active)):
        for region in active:
            for net in (master_enable_net(region), slave_enable_net(region)):
                tree = synthesize_tree(module, library, net, max_fanout=12)
                tree_levels[net] = tree.levels

    loads = compute_net_loads(module, library)
    pulse_arc = library.cell(PULSE_GATE_CELL).delay_arcs()[0]
    buf_arc = library.cell("CKBUFX4").delay_arcs()[0]
    ladder_derate = library.corner(ladder.corner).derate
    # a tree level drives up to 12 buffer/latch pins
    level_delay = buf_arc.worst_delay(
        12 * library.cell("LDHX1").pins["G"].capacitance
    )
    pulse_width = 2 * library.cell("BUFX1").delay_arcs()[0].worst_delay(0.01)
    with trace.span("network.ack_delays", regions=len(active)):
        for region in active:
            gm = master_enable_net(region)
            insertion = (
                pulse_arc.worst_delay(loads.get(gm, 0.0))
                + tree_levels.get(gm, 0) * level_delay
            )
            # choose_length compares against the ladder at its own corner
            target = (insertion + pulse_width) * ladder_derate
            length = max(1, choose_length(ladder, target, margin=0.25))
            ack_element = build_delay_element(
                module,
                chooser,
                f"ack_{region}",
                f"xm_{region}",
                f"xma_{region}",
                length,
            )
            network.ack_delays[region] = ack_element

    def _through_inactive(start: str, forward: bool) -> List[str]:
        """Neighbours of ``start``, contracting latch-less regions.

        A region without sequential elements (an output-buffer cloud,
        for instance) has no controller; its data dependencies pass
        through to the next active region or the environment.
        """
        out: List[str] = []
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            neighbours = (
                successors_of(ddg, node)
                if forward
                else predecessors_of(ddg, node)
            )
            for neighbour in neighbours:
                if neighbour == start:
                    # a self-edge is a real dependency, keep it
                    if neighbour not in out:
                        out.append(neighbour)
                    continue
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                if neighbour == ENV or neighbour in active_set:
                    if neighbour not in out:
                        out.append(neighbour)
                else:
                    frontier.append(neighbour)
        return out

    with trace.span("network.wiring", regions=len(active)):
        for region in active:
            preds = _through_inactive(region, forward=False)
            succs = _through_inactive(region, forward=True)
            ports: Dict[str, str] = {}

            # ---- request side: preds' slave requests joined, then delayed
            request_sources: List[str] = []
            for pred in preds:
                if pred == ENV:
                    port = f"ri_{region}"
                    module.add_port(port, PortDirection.INPUT)
                    ports["ri"] = port
                    request_sources.append(port)
                else:
                    request_sources.append(f"ys_{pred}")
            if not request_sources:
                # source-less region: free-run from its own slave request
                request_sources = [f"ys_{region}"]

            if len(request_sources) == 1:
                joined = request_sources[0]
            else:
                joined = f"reqj_{region}"
                created = build_cmuller(
                    module,
                    request_sources,
                    joined,
                    chooser,
                    prefix=f"cm_req_{region}",
                    reset=reset_port,
                    attributes={"region": region, "role": "cmuller"},
                )
                network.cmuller_instances.extend(created)

            target_delay = network.region_delays.get(region, 0.0)
            # multiplexed elements are built with headroom so the post-layout
            # calibration can sweep the selection both below and above the
            # matched point (the DLX experiment, Figure 5.3)
            length = element_length_for(
                ladder, target_delay, delay_margin, mux_taps, mux_headroom
            )
            element = build_delay_element(
                module,
                chooser,
                region,
                joined,
                f"req_{region}",
                length,
                mux_taps=mux_taps,
            )
            network.delay_elements[region] = element

            if "ri" in ports:
                ai_port = f"ai_{region}"
                module.add_port(ai_port, PortDirection.OUTPUT)
                _buffer(module, chooser, f"xma_{region}", ai_port,
                        f"envai_{region}", network.cmuller_instances, region)
                ports["ai"] = ai_port

            # ---- acknowledge side: successors' master acknowledges joined
            ack_sources: List[str] = []
            for succ in succs:
                if succ == ENV:
                    ro_port = f"ro_{region}"
                    ao_port = f"ao_{region}"
                    module.add_port(ro_port, PortDirection.OUTPUT)
                    module.add_port(ao_port, PortDirection.INPUT)
                    _buffer(module, chooser, f"ys_{region}", ro_port,
                            f"envro_{region}", network.cmuller_instances, region)
                    ports["ro"] = ro_port
                    ports["ao"] = ao_port
                    ack_sources.append(ao_port)
                else:
                    ack_sources.append(f"xma_{succ}")
            if not ack_sources:
                # sink-less region: self-acknowledge through its own request
                ack_sources = [f"ys_{region}"]

            ack_net = f"ack_{region}"
            if len(ack_sources) == 1:
                # re-route the slave y-element's acknowledge input directly
                slave = network.controllers[(region, "slave")]
                module.connect(f"{slave.name}_y", "B", ack_sources[0])
                slave.ao_net = ack_sources[0]
                _drop_unused_net(module, ack_net)
            else:
                created = build_cmuller(
                    module,
                    ack_sources,
                    ack_net,
                    chooser,
                    prefix=f"cm_ack_{region}",
                    reset=reset_port,
                    attributes={"region": region, "role": "cmuller"},
                )
                network.cmuller_instances.extend(created)

            if ports:
                network.env_ports[region] = ports

    _remove_dead_clock_port(module, gatefile)
    return network


def _buffer(module, chooser, src, dst, prefix, created, region) -> None:
    cell, pins, out_pin = chooser.gate("buf")
    inst_name = module.new_name(prefix)
    inst = module.add_instance(inst_name, cell, {pins[0]: src, out_pin: dst})
    inst.attributes.update({"role": "env_buffer", "region": region})
    created.append(inst_name)


def _drop_unused_net(module: Module, net_name: str) -> None:
    net = module.nets.get(net_name)
    if net is not None and not net.connections:
        del module.nets[net_name]


def _remove_dead_clock_port(module: Module, gatefile: Gatefile) -> None:
    """Drop input ports whose nets feed no pins any more (the old clock)."""
    for port_name in list(module.ports):
        port = module.ports[port_name]
        if port.direction != PortDirection.INPUT:
            continue
        dead = True
        for bit in port.bit_names():
            net = module.nets.get(bit)
            if net is None:
                continue
            if any(ref.instance is not None for ref in net.connections):
                dead = False
                break
        if dead and _looks_like_clock(port_name):
            for bit in port.bit_names():
                net = module.nets.pop(bit, None)
            del module.ports[port_name]


def _looks_like_clock(name: str) -> bool:
    lowered = name.lower()
    return any(token in lowered for token in ("clk", "clock", "ck"))


def diff_networks(
    old: ControlNetwork, new: ControlNetwork
) -> Dict[str, str]:
    """Per-region structural comparison of two control networks.

    Classifies every region of ``new`` as ``"reused"`` (same controller
    gates, same request/ack element lengths and taps -- the incremental
    flow kept the cached structure) or ``"resized"`` (the edit moved a
    region's critical path across a ladder step, or changed its
    controller complement).  Regions absent from ``old`` are
    ``"new"``.  Drives the ``flow.incr.*`` counters served on ``/metrics``.
    """
    out: Dict[str, str] = {}
    old_regions = {region for region, _role in old.controllers}
    new_regions = {region for region, _role in new.controllers}
    for region in sorted(new_regions):
        if region not in old_regions:
            out[region] = "new"
            continue
        same = True
        for role in ("master", "slave"):
            old_ctl = old.controllers.get((region, role))
            new_ctl = new.controllers.get((region, role))
            if (old_ctl is None) != (new_ctl is None):
                same = False
            elif old_ctl is not None and (
                old_ctl.gate_names != new_ctl.gate_names
            ):
                same = False
        for mapping_old, mapping_new in (
            (old.delay_elements, new.delay_elements),
            (old.ack_delays, new.ack_delays),
        ):
            old_el = mapping_old.get(region)
            new_el = mapping_new.get(region)
            if (old_el is None) != (new_el is None):
                same = False
            elif old_el is not None and (
                old_el.length != new_el.length
                or old_el.taps != new_el.taps
            ):
                same = False
        out[region] = "reused" if same else "resized"
    return out
