"""Matched delay elements (sections 2.4.4, 3.1.4, 3.2.5).

A delay element mimics the critical-path delay of one region's
combinational cloud on the request line feeding that region's
controller.  Because the flow uses 4-phase controllers, the elements
are *asymmetric* (Figure 2.9): an AND-gate chain in which every stage
re-combines the chain with the raw input, so a rising edge ripples
through the whole chain (slow rise = matched delay) while a falling
edge collapses every stage in a single gate delay (fast fall = cheap
return-to-zero phase).

During library preparation the ladder of available lengths is
characterised once with STA (:func:`characterize_ladder`); during
circuit desynchronization :func:`choose_length` picks the shortest
length covering the region delay plus margin, and
:func:`build_delay_element` instantiates it -- optionally behind a
multiplexer tree so the effective length can be recalibrated after
layout (the DLX experiment uses 8-input multiplexed elements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..liberty.model import Library
from ..liberty.techmap import GateChooser
from ..netlist.core import Module, PortDirection
from ..obs import metrics, trace
from ..sta.analysis import check_backend, propagate
from ..sta.graph import build_timing_graph

#: histogram buckets for delay-element chain lengths (logic levels)
LENGTH_BUCKETS = (1, 2, 5, 10, 20, 40, 60, 80, 120, 160, 240)
#: histogram buckets for ladder selection error in ns (delay over target)
SELECTION_ERROR_BUCKETS = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)


class DelayElementError(Exception):
    """Raised for unsatisfiable delay requests."""


@dataclass
class DelayLadder:
    """Characterised rise delays per chain length, for one corner."""

    library_name: str
    corner: str
    #: rise delay in ns for chain length k (index 0 -> length 1)
    rise_delays: List[float] = field(default_factory=list)

    @property
    def max_length(self) -> int:
        return len(self.rise_delays)

    def delay_of(self, length: int) -> float:
        if not 1 <= length <= self.max_length:
            raise DelayElementError(
                f"length {length} outside characterised ladder "
                f"(1..{self.max_length})"
            )
        return self.rise_delays[length - 1]


def _chain_module(length: int, and_cell: str) -> Module:
    """Standalone AND-chain module used for characterisation."""
    module = Module(f"delem_{length}")
    module.add_port("a", PortDirection.INPUT)
    module.add_port("z", PortDirection.OUTPUT)
    previous = "a"
    for stage in range(length):
        out = "z" if stage == length - 1 else f"n{stage}"
        module.add_instance(
            f"u{stage}", and_cell, {"A": previous, "B": "a", "Z": out}
        )
        previous = out
    return module


#: characterised ladders per (library fingerprint, corner, length, cell)
_LADDER_MEMO: Dict[Tuple[str, str, int, str], DelayLadder] = {}
#: compiled chain graphs per (library fingerprint, length, cell) -- every
#: corner of one ladder family rescales the same base graph
_CHAIN_GRAPHS: Dict[Tuple[str, int, str], object] = {}


def _ladder_memo_key(
    library: Library, corner: str, max_length: int, and_cell: str
) -> Tuple[str, str, int, str]:
    from ..engine.cache import library_fingerprint

    return (library_fingerprint(library), corner, max_length, and_cell)


def characterize_ladder(
    library: Library,
    corner: str = "worst",
    max_length: int = 100,
    and_cell: str = "AND2X1",
    backend: str = "compiled",
    memoize: bool = True,
) -> DelayLadder:
    """Measure the rise delay of every chain length with STA.

    Mirrors section 3.1.4: "we implement delay elements of variable
    logic depth, e.g. from 1 to 100 logic levels, and perform STA to
    measure their delay values."

    Results are memoised in-process per (library content, corner,
    length, cell); across runs the engine's ``delays`` stage caches the
    ladder.  With the compiled backend every corner of a ladder family
    shares one base chain graph via derate rescaling.
    """
    check_backend(backend)
    key = _ladder_memo_key(library, corner, max_length, and_cell)
    if memoize:
        hit = _LADDER_MEMO.get(key)
        if hit is not None:
            metrics.counter("desync.delay.ladder_memo_hits").inc()
            return DelayLadder(hit.library_name, hit.corner,
                               list(hit.rise_delays))
    with trace.span(
        "delays.characterize", corner=corner, max_length=max_length
    ):
        ladder = DelayLadder(library.name, corner)
        # delays are additive per stage under the linear model; measure the
        # longest chain once and read arrivals at every stage output
        if backend == "compiled":
            from ..sta.compiled import CompiledTimingGraph

            chain_key = (key[0], max_length, and_cell)
            compiled = _CHAIN_GRAPHS.get(chain_key)
            if compiled is None:
                module = _chain_module(max_length, and_cell)
                compiled = CompiledTimingGraph(module, library)
                _CHAIN_GRAPHS[chain_key] = compiled
            report = compiled.propagate(library.corner(corner).derate)
        else:
            module = _chain_module(max_length, and_cell)
            graph = build_timing_graph(module, library, corner)
            report = propagate(graph)
        for stage in range(max_length):
            node = (f"u{stage}", "Z")
            arrival = report.arrivals.get(node)
            if arrival is None:
                raise DelayElementError(f"no arrival at chain stage {stage}")
            ladder.rise_delays.append(arrival)
    if memoize:
        _LADDER_MEMO[key] = ladder
        return DelayLadder(ladder.library_name, ladder.corner,
                           list(ladder.rise_delays))
    return ladder


def choose_length(
    ladder: DelayLadder, target_delay: float, margin: float = 0.10
) -> int:
    """Shortest chain covering ``target_delay * (1 + margin)``."""
    required = target_delay * (1.0 + margin)
    for length, delay in enumerate(ladder.rise_delays, start=1):
        if delay >= required:
            # the quantisation cost of the discrete ladder: how much
            # slower the chosen chain is than the matched point
            metrics.histogram(
                "desync.delay.selection_error_ns",
                buckets=SELECTION_ERROR_BUCKETS,
            ).observe(delay - required)
            return length
    raise DelayElementError(
        f"ladder too short: need {required:.3f} ns, max is "
        f"{ladder.rise_delays[-1]:.3f} ns"
    )


def element_length_for(
    ladder: DelayLadder,
    target_delay: float,
    delay_margin: float = 0.10,
    mux_taps: int = 0,
    mux_headroom: float = 2.2,
) -> int:
    """The request-path element length the network would build.

    The single source of the sizing rule shared by
    :func:`repro.desync.network.insert_control_network` and the
    incremental re-flow's ladder re-selection: multiplexed elements get
    ``mux_headroom`` so calibration can sweep both sides of the matched
    point, and a region with no combinational cloud still gets a
    one-stage element.
    """
    if target_delay <= 0:
        return 1
    sizing_delay = target_delay * (mux_headroom if mux_taps > 1 else 1.0)
    return choose_length(ladder, sizing_delay, delay_margin)


@dataclass
class DelayElement:
    """A placed delay element."""

    region: str
    input_net: str
    output_net: str
    length: int
    instances: List[str]
    #: tap output nets when multiplexed (selection 0 = longest)
    taps: List[str] = field(default_factory=list)
    select_nets: List[str] = field(default_factory=list)


def build_delay_element(
    module: Module,
    chooser: GateChooser,
    region: str,
    input_net: str,
    output_net: str,
    length: int,
    mux_taps: int = 0,
    and_role: str = "and2",
    mux_role: str = "mux2",
) -> DelayElement:
    """Instantiate an asymmetric delay element of ``length`` AND levels.

    With ``mux_taps`` > 0 the element exposes that many equally spaced
    taps behind a multiplexer tree; the selection inputs become module
    ports ``dsel_<region>[k]`` so the effective delay can be calibrated
    after layout.  The selection convention follows Figure 5.3: the
    highest selection picks the full chain and lower values
    progressively shorten it (selection 0 = shortest).
    """
    if length < 1:
        raise DelayElementError("delay element needs at least one level")
    metrics.counter("desync.delay.elements").inc()
    metrics.histogram("desync.delay.length", buckets=LENGTH_BUCKETS).observe(
        length
    )
    and_cell, and_pins, and_out = chooser.gate(and_role)
    attrs = {"role": "delay_element", "region": region, "dont_touch": True}
    instances: List[str] = []
    module.ensure_net(input_net)
    module.ensure_net(output_net)

    stage_nets: List[str] = []
    previous = input_net
    for stage in range(length):
        net = module.new_name(f"delem_{region}_n")
        module.ensure_net(net)
        inst_name = module.new_name(f"delem_{region}_u")
        inst = module.add_instance(
            inst_name,
            and_cell,
            {and_pins[0]: previous, and_pins[1]: input_net, and_out: net},
        )
        inst.attributes.update(attrs)
        instances.append(inst_name)
        stage_nets.append(net)
        previous = net

    element = DelayElement(region, input_net, output_net, length, instances)

    if mux_taps <= 1:
        _tie(module, stage_nets[-1], output_net, chooser, attrs, instances)
        return element

    mux_taps = min(mux_taps, length)
    # selection k picks (k+1)/taps of the chain: highest = full length
    spacing = max(1, length // mux_taps)
    taps = []
    for k in range(mux_taps):
        index = min((k + 1) * spacing, length) - 1
        if k == mux_taps - 1:
            index = length - 1
        taps.append(stage_nets[index])
    element.taps = taps

    select_bits = max(1, math.ceil(math.log2(mux_taps)))
    port = module.add_port(
        f"dsel_{region}", PortDirection.INPUT, msb=select_bits - 1, lsb=0
    )
    element.select_nets = [f"dsel_{region}[{b}]" for b in range(select_bits)]

    mux_cell, mux_pins, mux_out = chooser.gate(mux_role)
    level_nets = list(taps)
    # pad to a power of two by repeating the last tap
    size = 1 << select_bits
    while len(level_nets) < size:
        level_nets.append(level_nets[-1])
    for bit in range(select_bits):
        select = f"dsel_{region}[{bit}]"
        next_level: List[str] = []
        for pair_index in range(0, len(level_nets), 2):
            a, b = level_nets[pair_index], level_nets[pair_index + 1]
            is_root = len(level_nets) == 2
            out_net = output_net if is_root else module.new_name(
                f"delem_{region}_m"
            )
            module.ensure_net(out_net)
            inst_name = module.new_name(f"delem_{region}_mx")
            inst = module.add_instance(
                inst_name,
                mux_cell,
                {
                    mux_pins[0]: a,
                    mux_pins[1]: b,
                    mux_pins[2]: select,
                    mux_out: out_net,
                },
            )
            inst.attributes.update(attrs)
            instances.append(inst_name)
            next_level.append(out_net)
        level_nets = next_level
    return element


def _tie(module, src, dst, chooser, attrs, instances):
    """Connect src to dst through a buffer (keeps nets distinct)."""
    cell, pins, out_pin = chooser.gate("buf")
    inst_name = module.new_name("delem_tie")
    inst = module.add_instance(inst_name, cell, {pins[0]: src, out_pin: dst})
    inst.attributes.update(attrs)
    instances.append(inst_name)


def mux_selection_delay(
    ladder: DelayLadder, length: int, mux_taps: int, selection: int
) -> float:
    """Rise delay of a muxed element at a given selection (model).

    The highest selection picks the full chain; each decrement removes
    ``length // mux_taps`` levels (matching :func:`build_delay_element`).
    """
    taps = min(mux_taps, length)
    spacing = max(1, length // taps)
    if selection >= taps - 1:
        effective = length
    else:
        effective = min((selection + 1) * spacing, length)
    return ladder.delay_of(max(1, effective))
