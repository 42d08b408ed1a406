"""Flip-flop substitution (sections 2.3, 3.1.2, 3.2.3).

Every D flip-flop is split into its conceptual master/slave latch pair
driven by the per-region master and slave enable nets the controller
network will generate.  Complex flip-flops are handled per Figure 3.1:

- the ``next_state`` function of the liberty ff group (scan muxes,
  synchronous set/reset gating) becomes *front logic* mapped onto
  standard gates before the master latch -- one uniform mechanism for
  Figures 3.1(a) and 3.1(b);
- asynchronous clear/preset forces the data and opens both latches
  while asserted (Figure 3.1(c));
- clock gating turns into AND gates on both latch enables (Fig 3.1(d)).

All cells added here are tagged ``seq_overhead`` so the area reports
can attribute them to sequential logic the way the paper does for the
scan-heavy ARM ("the combinational logic overhead because of the scan
flip-flops substitution is included in the sequential logic overhead").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..liberty.functions import parse_function, expr_inputs
from ..liberty.gatefile import Gatefile, ReplacementRule
from ..liberty.model import Library
from ..liberty.techmap import ExpressionMapper, GateChooser
from ..netlist.core import Module, PortDirection
from ..obs import metrics, trace
from .regions import RegionMap

#: histogram buckets for flip-flops substituted per region
LATCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


class SubstitutionError(Exception):
    """Raised when a flip-flop cannot be substituted."""


@dataclass
class SubstitutionResult:
    """Bookkeeping of one flip-flop substitution pass."""

    replaced: int = 0
    added_instances: List[str] = field(default_factory=list)
    #: region -> (master enable net, slave enable net)
    enable_nets: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    removed_clock_gates: List[str] = field(default_factory=list)


def master_enable_net(region: str) -> str:
    return f"gm_{region}"


def slave_enable_net(region: str) -> str:
    return f"gs_{region}"


def _clock_gate_enable(
    module: Module, gatefile: Gatefile, clock_net: str
) -> Optional[Tuple[str, str]]:
    """If ``clock_net`` is driven by an integrated clock gate, return
    (gate instance name, enable net)."""
    net = module.nets.get(clock_net)
    if net is None:
        return None
    for ref in net.connections:
        if ref.instance is None:
            continue
        inst = module.instances[ref.instance]
        info = gatefile.cells.get(inst.cell)
        if info is None:
            continue
        pin = info.pins.get(ref.pin)
        if pin is not None and pin.direction == PortDirection.OUTPUT and (
            ref.pin == "GCK"
        ):
            return ref.instance, inst.pins.get("EN", "")
    return None


def substitute_flip_flops(
    module: Module,
    gatefile: Gatefile,
    library: Library,
    region_map: RegionMap,
    chooser: Optional[GateChooser] = None,
    exclude: Optional[Set[str]] = None,
) -> SubstitutionResult:
    """Replace every flip-flop with a master/slave latch pair.

    ``exclude`` lists flip-flops left untouched (foreign clock domains
    in a partial desynchronization).
    """
    chooser = chooser or GateChooser(library)
    result = SubstitutionResult()
    excluded = exclude or set()

    with trace.span("ffsub", instances=len(module.instances)) as span:
        flip_flops = [
            name
            for name, inst in module.instances.items()
            if name not in excluded
            and gatefile.cells.get(inst.cell) is not None
            and gatefile.is_flip_flop(inst.cell)
        ]
        per_region: Dict[str, int] = {}
        # clock net -> its clock-gate driver, looked up once per net: the
        # driver stays in place until _drop_orphan_clock_gates, while a
        # per-flip-flop scan of the clock net would be O(FFs x fanout)
        clock_gates: Dict[str, Optional[Tuple[str, str]]] = {}
        for ff_name in flip_flops:
            region = region_map.region_of(ff_name)
            if region is not None:
                per_region[region] = per_region.get(region, 0) + 1
            _substitute_one(
                module, gatefile, library, region_map, chooser, ff_name,
                result, clock_gates,
            )

        _drop_orphan_clock_gates(module, gatefile, result)
        for name in result.removed_clock_gates:
            region = region_map.instance_region.pop(name, None)
            if region is not None and region in region_map.regions:
                region_map.regions[region].instances.discard(name)
        span.set("replaced", result.replaced)

    metrics.counter("desync.ffsub.replaced").inc(result.replaced)
    # each flip-flop splits into a master/slave latch pair
    metrics.counter("desync.ffsub.latches").inc(2 * result.replaced)
    if metrics.enabled():
        histogram = metrics.histogram(
            "desync.ffsub.latches_per_region", buckets=LATCH_BUCKETS
        )
        for count in per_region.values():
            histogram.observe(2 * count)
    return result


def _substitute_one(
    module: Module,
    gatefile: Gatefile,
    library: Library,
    region_map: RegionMap,
    chooser: GateChooser,
    ff_name: str,
    result: SubstitutionResult,
    clock_gates: Dict[str, Optional[Tuple[str, str]]],
) -> None:
    inst = module.instances[ff_name]
    rule = gatefile.rule_for(inst.cell)
    if rule.latch_cell not in library:
        raise SubstitutionError(
            f"latch {rule.latch_cell!r} for {inst.cell!r} missing from the "
            "library; implement the extra latch first (section 3.1.2)"
        )
    region = region_map.region_of(ff_name) or "G0"
    gm = master_enable_net(region)
    gs = slave_enable_net(region)
    module.ensure_net(gm)
    module.ensure_net(gs)
    result.enable_nets.setdefault(region, (gm, gs))

    info = gatefile.info(inst.cell)
    # bind every rule input either to the connected net or to constant 0
    input_nets: Dict[str, str] = {}
    for pin_name in info.data_inputs:
        net = inst.pins.get(pin_name)
        input_nets[pin_name] = net if net is not None else (
            module.constant_net(0).name
        )

    # clock gating (Figure 3.1 d)
    clock_pins = info.clock_pins
    clock_net = inst.pins.get(clock_pins[0]) if clock_pins else None
    gate_enable: Optional[str] = None
    if clock_net is not None:
        if clock_net not in clock_gates:
            clock_gates[clock_net] = _clock_gate_enable(
                module, gatefile, clock_net
            )
        gated = clock_gates[clock_net]
        if gated is not None:
            gate_inst, gate_enable = gated
            if gate_inst not in result.removed_clock_gates:
                result.removed_clock_gates.append(gate_inst)

    output_nets = {
        pin: net
        for pin, net in inst.pins.items()
        if pin in info.pins
        and info.pins[pin].direction == PortDirection.OUTPUT
    }
    module.remove_instance(ff_name)

    mapper = ExpressionMapper(module, chooser, prefix=f"ffs_{ff_name}")

    # front logic: the ff next_state function (Figures 3.1 a/b)
    front_expr = parse_function(rule.front_logic)
    needed = expr_inputs(front_expr)
    missing = needed - set(input_nets)
    if missing:
        raise SubstitutionError(
            f"{inst.cell} next_state uses unknown pins {sorted(missing)}"
        )
    front_net = mapper.map_expr(front_expr, input_nets)

    # asynchronous clear / preset (Figure 3.1 c)
    assert_net: Optional[str] = None
    force_kind: Optional[str] = None
    if rule.async_clear:
        assert_net = mapper.map_text(rule.async_clear, input_nets)
        force_kind = "clear"
    elif rule.async_preset:
        assert_net = mapper.map_text(rule.async_preset, input_nets)
        force_kind = "preset"

    def gated_enable(base_net: str, tag: str) -> str:
        net = base_net
        if gate_enable:
            net = _binary(
                module, chooser, "and2", net, gate_enable,
                f"ffs_{ff_name}_{tag}_cg", mapper.added,
            )
        if assert_net is not None:
            net = _binary(
                module, chooser, "or2", net, assert_net,
                f"ffs_{ff_name}_{tag}_as", mapper.added,
            )
        return net

    def forced_data(data_net: str, tag: str) -> str:
        if assert_net is None:
            return data_net
        role = "andn2" if force_kind == "clear" else "or2"
        return _binary(
            module, chooser, role, data_net, assert_net,
            f"ffs_{ff_name}_{tag}_fd", mapper.added,
        )

    mid_net = module.new_name(f"ffs_{ff_name}_m")
    module.ensure_net(mid_net)

    seq = library.cell(rule.latch_cell).sequential
    assert seq is not None
    data_pin = seq.next_state or "D"
    enable_pin = (seq.clocked_on or "G").strip("!() ")
    q_pin = library.cell(rule.latch_cell).output_pins()[0]

    master_name = f"{ff_name}_lm"
    if master_name in module.instances:
        master_name = module.new_name(master_name)
    master = module.add_instance(
        master_name,
        rule.latch_cell,
        {
            data_pin: forced_data(front_net, "m"),
            enable_pin: gated_enable(gm, "m"),
            q_pin: mid_net,
        },
    )
    master.attributes.update({"role": "latch_master", "region": region})

    q_net = output_nets.get("Q")
    if q_net is None:
        q_net = module.new_name(f"ffs_{ff_name}_q")
        module.ensure_net(q_net)
    slave_name = f"{ff_name}_ls"
    if slave_name in module.instances:
        slave_name = module.new_name(slave_name)
    slave = module.add_instance(
        slave_name,
        rule.latch_cell,
        {
            data_pin: forced_data(mid_net, "s"),
            enable_pin: gated_enable(gs, "s"),
            q_pin: q_net,
        },
    )
    slave.attributes.update({"role": "latch_slave", "region": region})

    # inverted / secondary outputs
    for out_pin, net in output_nets.items():
        if out_pin == "Q":
            continue
        function = rule.output_pins.get(out_pin, "IQ")
        if function.replace(" ", "") in ("!IQ", "IQ'"):
            _binary_unary(
                module, chooser, "inv", q_net, net,
                f"ffs_{ff_name}_qn", mapper.added,
            )
        else:
            # an uncommon output function: re-map it over the slave Q
            sub_mapper = ExpressionMapper(
                module, chooser, prefix=f"ffs_{ff_name}_{out_pin}"
            )
            mapped = sub_mapper.map_text(function, {"IQ": q_net})
            module.assigns.append((net, mapped))
            mapper.added.extend(sub_mapper.added)

    added = list(mapper.added) + [master_name, slave_name]
    for name in mapper.added:
        instance = module.instances[name]
        instance.attributes.setdefault("seq_overhead", True)
        instance.attributes.setdefault("region", region)
    result.added_instances.extend(added)
    result.replaced += 1

    # keep the region map consistent for downstream per-region analysis
    region_obj = region_map.regions.get(region)
    if region_obj is not None:
        region_obj.instances.discard(ff_name)
        region_obj.instances.update(added)
        region_map.instance_region.pop(ff_name, None)
        for name in added:
            region_map.instance_region[name] = region


def _binary(module, chooser, role, a, b, prefix, added) -> str:
    cell, pins, out_pin = chooser.gate(role)
    out_net = module.new_name(f"{prefix}_n")
    module.ensure_net(out_net)
    inst_name = module.new_name(prefix)
    module.add_instance(
        inst_name, cell, {pins[0]: a, pins[1]: b, out_pin: out_net}
    )
    added.append(inst_name)
    return out_net


def _binary_unary(module, chooser, role, src, dst, prefix, added) -> None:
    cell, pins, out_pin = chooser.gate(role)
    inst_name = module.new_name(prefix)
    module.add_instance(inst_name, cell, {pins[0]: src, out_pin: dst})
    added.append(inst_name)


def _drop_orphan_clock_gates(
    module: Module, gatefile: Gatefile, result: SubstitutionResult
) -> None:
    """Remove integrated clock gates whose outputs no longer drive pins."""
    from ..netlist.index import connectivity_index

    index = connectivity_index(module, gatefile)
    for name in list(result.removed_clock_gates):
        inst = module.instances.get(name)
        if inst is None:
            continue
        gck = inst.pins.get("GCK")
        if gck is not None and index.sinks_of(gck):
            result.removed_clock_gates.remove(name)
            continue
        module.remove_instance(name)
