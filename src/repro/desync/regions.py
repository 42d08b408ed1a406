"""Automatic region creation -- the grouping algorithm (section 3.2.2).

A *region* is a combinational logic cloud together with the flip-flops
it drives (Figure 2.2).  Regions must be independent: no combinational
connection may cross a region boundary.  The algorithm of Figures
3.3/3.4 finds them as connected components of the gate-connection
graph:

1. every connected component of combinational gates becomes a group,
   pulling in the sequential elements it drives and the combinational
   sources feeding those elements;
2. ungrouped flip-flops directly driven by grouped flip-flops join the
   driver's group (shift-register heuristic);
3. everything still ungrouped (e.g. flip-flops registering primary
   inputs) lands in the extra Group 0.

Heuristics from the paper: connections through clock pins, constants
and designer-marked *false paths* are ignored, and cells driving bits
of one named bus are merged (Figure 3.6) -- which only works while the
synthesis tool has kept ``bus[n]`` names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..liberty.gatefile import Gatefile
from ..netlist.core import Module, PortDirection, bus_base
from ..netlist.index import connectivity_index
from ..obs import metrics, trace

#: histogram buckets for region sizes (instances per region)
REGION_SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


@dataclass
class Region:
    """One desynchronization region."""

    name: str
    instances: Set[str] = field(default_factory=set)

    def sequential_instances(self, module: Module, gatefile: Gatefile) -> List[str]:
        return [
            name
            for name in sorted(self.instances)
            if gatefile.info(module.instances[name].cell).is_sequential
        ]

    def combinational_instances(
        self, module: Module, gatefile: Gatefile
    ) -> List[str]:
        return [
            name
            for name in sorted(self.instances)
            if not gatefile.info(module.instances[name].cell).is_sequential
        ]


@dataclass
class RegionMap:
    """All regions of a module plus the instance index."""

    regions: Dict[str, Region] = field(default_factory=dict)
    instance_region: Dict[str, str] = field(default_factory=dict)

    def add(self, region: Region) -> None:
        self.regions[region.name] = region
        for instance in region.instances:
            self.instance_region[instance] = region.name

    def region_of(self, instance: str) -> Optional[str]:
        return self.instance_region.get(instance)

    def __len__(self) -> int:
        return len(self.regions)


class GroupingError(Exception):
    """Raised when regions are inconsistent with the netlist."""


class _Connectivity:
    """Data-connection queries of one pass, heuristics applied.

    A lazy view over the module's shared :class:`ConnectivityIndex`:
    drivers and readers of a net are derived on first use and kept for
    the pass, so a full grouping pays for every net once and an
    incremental cone check only for the nets it touches.  Sources,
    targets and bus partners come in the order an eager walk over
    ``module.nets`` would give them: step 2 of the grouping follows
    assignment order.  The module must not change during the pass.
    """

    def __init__(
        self,
        module: Module,
        gatefile: Gatefile,
        false_path_nets: Iterable[str] = (),
    ):
        self.module = module
        self.gatefile = gatefile
        self.index = connectivity_index(module, gatefile)
        self.ignored = set(false_path_nets)
        #: net -> (driving, reading) instances, data pins only
        self._nets: Dict[str, Tuple[List[str], List[str]]] = {}
        #: instance -> True when combinational
        self._comb: Dict[str, bool] = {}
        #: bus base -> its bit nets in module order, built in one pass
        self._bus_nets: Optional[Dict[str, List[str]]] = None
        #: bus base -> all driver instances of any bit
        self._bus_drivers: Dict[str, Set[str]] = {}

    def _net(self, net_name: str) -> Tuple[List[str], List[str]]:
        entry = self._nets.get(net_name)
        if entry is None:
            drivers: List[str] = []
            readers: List[str] = []
            net = self.module.nets.get(net_name)
            if net is not None and not net.is_constant and (
                net_name not in self.ignored
            ):
                driver_refs, sink_refs = self.index.connections_of(net_name)
                drivers = [
                    ref.instance for ref in driver_refs
                    if ref.instance is not None
                ]
                instances = self.module.instances
                for ref in sink_refs:
                    if ref.instance is None:
                        continue
                    info = self.gatefile.info(instances[ref.instance].cell)
                    pin = info.pins.get(ref.pin)
                    if pin is None or pin.is_clock:
                        continue
                    readers.append(ref.instance)
            entry = self._nets[net_name] = (drivers, readers)
        return entry

    def is_comb(self, instance: str) -> bool:
        comb = self._comb.get(instance)
        if comb is None:
            cell = self.module.instances[instance].cell
            comb = not self.gatefile.info(cell).is_sequential
            self._comb[instance] = comb
        return comb

    def input_nets(self, instance: str) -> List[str]:
        inst = self.module.instances[instance]
        info = self.gatefile.info(inst.cell)
        return [
            net
            for pin, net in inst.pins.items()
            if pin in info.pins
            and info.pins[pin].direction == PortDirection.INPUT
            and not info.pins[pin].is_clock
        ]

    def output_nets(self, instance: str) -> List[str]:
        inst = self.module.instances[instance]
        info = self.gatefile.info(inst.cell)
        return [
            net
            for pin, net in inst.pins.items()
            if pin in info.pins
            and info.pins[pin].direction == PortDirection.OUTPUT
        ]

    def comb_sources(self, instance: str) -> List[str]:
        out: List[str] = []
        for net in self.input_nets(instance):
            out.extend(d for d in self._net(net)[0] if self.is_comb(d))
        return out

    def targets(self, instance: str) -> List[str]:
        out: List[str] = []
        for net in self.output_nets(instance):
            out.extend(self._net(net)[1])
        return out

    def sequential_targets(self, instance: str) -> List[str]:
        return [t for t in self.targets(instance) if not self.is_comb(t)]

    def _bus_members(self, base: str) -> Set[str]:
        members = self._bus_drivers.get(base)
        if members is None:
            if self._bus_nets is None:
                self._bus_nets = {}
                for net_name in self.module.nets:
                    net_base = bus_base(net_name)
                    if net_base is not None:
                        self._bus_nets.setdefault(net_base, []).append(
                            net_name
                        )
            members = set()
            for net_name in self._bus_nets.get(base, ()):
                members.update(self._net(net_name)[0])
            self._bus_drivers[base] = members
        return members

    def target_bus_drivers(self, instance: str) -> Set[str]:
        out: Set[str] = set()
        for net in self.output_nets(instance):
            base = bus_base(net)
            if base is not None:
                out.update(self._bus_members(base))
        return out


def copy_region_map(region_map: RegionMap) -> RegionMap:
    """Deep copy of a region map (regions own fresh instance sets)."""
    out = RegionMap()
    for region in region_map.regions.values():
        out.regions[region.name] = Region(region.name, set(region.instances))
    out.instance_region = dict(region_map.instance_region)
    return out


def regroup_incremental(
    module: Module,
    gatefile: Gatefile,
    cached_map: RegionMap,
    dirty_cells: Iterable[str],
    false_path_nets: Iterable[str] = (),
    use_bus_heuristic: bool = True,
) -> Optional[RegionMap]:
    """Revalidate the cached partition around ``dirty_cells`` and splice.

    For edits that preserve connectivity and pin classification (cell
    swaps within a drive-strength family, wire re-annotation), region
    membership cannot change -- but rather than trusting the caller,
    this recomputes the grouping relations *incident to the dirty
    cells* through the lazy connectivity view and checks they are
    consistent with the cached partition:

    - a dirty combinational cell must share its region with every
      combinational source, every target and (with the bus heuristic)
      every bus-partner driver;
    - every sequential partner it pulls must already be grouped;
    - a dirty sequential cell's sequential targets must be grouped.

    On success returns a deep copy of the cached partition (the splice:
    membership provably unchanged around the edit).  Returns ``None``
    when any relation disagrees -- the caller must rerun the full
    grouping algorithm.  Only sound for connectivity-preserving edits;
    structural edits must go straight to :func:`group_regions`.
    """
    conn = _Connectivity(module, gatefile, false_path_nets)
    cells = sorted(set(dirty_cells))
    with trace.span("regroup_incremental", dirty=len(cells)) as span:
        for cell in cells:
            if cell not in module.instances:
                metrics.counter("desync.grouping.incremental_misses").inc()
                return None
            region = cached_map.region_of(cell)
            if region is None:
                metrics.counter("desync.grouping.incremental_misses").inc()
                return None
            if conn.is_comb(cell):
                partners: Set[str] = set(conn.comb_sources(cell))
                partners.update(conn.targets(cell))
                if use_bus_heuristic:
                    partners.update(conn.target_bus_drivers(cell))
                partners.discard(cell)
                for partner in partners:
                    partner_region = cached_map.region_of(partner)
                    if partner_region is None or (
                        conn.is_comb(partner) and partner_region != region
                    ):
                        metrics.counter(
                            "desync.grouping.incremental_misses"
                        ).inc()
                        return None
            else:
                for target in conn.sequential_targets(cell):
                    if cached_map.region_of(target) is None:
                        metrics.counter(
                            "desync.grouping.incremental_misses"
                        ).inc()
                        return None
        span.set("reused_regions", len(cached_map))
    metrics.counter("desync.grouping.incremental_hits").inc()
    return copy_region_map(cached_map)


def validate_independence_for(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    regions: Iterable[str],
    false_path_nets: Iterable[str] = (),
) -> List[str]:
    """:func:`validate_independence`, scoped to the given regions.

    Checks every combinational connection incident to a member of
    ``regions``, in both directions: a member driving out of its region
    and an outside cell driving in.  Used by the incremental flow to
    re-verify only the edit's membership cone.
    """
    wanted = set(regions)
    members = [
        (instance, name)
        for name in sorted(wanted)
        if name in region_map.regions
        for instance in sorted(region_map.regions[name].instances)
    ]
    with trace.span("validate_independence_for", regions=len(wanted)) as span:
        problems = _crossings(
            module, gatefile, region_map, members, wanted, false_path_nets
        )
        span.set("violations", len(problems))
    return problems


def _crossings(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    members: List[Tuple[str, Optional[str]]],
    scope: Optional[Set[str]],
    false_path_nets: Iterable[str],
) -> List[str]:
    """Combinational connections crossing a region boundary at ``members``.

    ``members`` are the walked ``(instance, region)`` pairs, in report
    order.  Each crossing is reported from its source; when only the
    regions in ``scope`` are walked, a crossing whose source lies
    outside them is reported from its target.  ``scope=None`` walks
    every instance, so every source is walked too.
    """
    conn = _Connectivity(module, gatefile, false_path_nets)
    problems: List[str] = []
    for instance, region in members:
        if not conn.is_comb(instance):
            continue
        for target in conn.targets(instance):
            if not conn.is_comb(target):
                continue
            target_region = region_map.region_of(target)
            if target_region != region:
                problems.append(
                    f"comb connection {instance} ({region}) -> "
                    f"{target} ({target_region})"
                )
        if scope is None:
            continue
        for source in conn.comb_sources(instance):
            source_region = region_map.region_of(source)
            if source_region != region and source_region not in scope:
                problems.append(
                    f"comb connection {source} ({source_region}) -> "
                    f"{instance} ({region})"
                )
    return problems


def record_region_metrics(region_map: RegionMap) -> None:
    """Publish region count and size distribution to the registry."""
    metrics.gauge("desync.grouping.regions").set(len(region_map))
    histogram = metrics.histogram(
        "desync.region.size", buckets=REGION_SIZE_BUCKETS
    )
    for region in region_map.regions.values():
        histogram.observe(len(region.instances))


def group_regions(
    module: Module,
    gatefile: Gatefile,
    false_path_nets: Iterable[str] = (),
    use_bus_heuristic: bool = True,
) -> RegionMap:
    """Run the automatic grouping algorithm of Figure 3.4."""
    with trace.span("grouping", instances=len(module.instances)) as span:
        region_map = _group_regions(
            module, gatefile, false_path_nets, use_bus_heuristic
        )
        span.set("regions", len(region_map))
    metrics.counter("desync.grouping.runs").inc()
    record_region_metrics(region_map)
    return region_map


def _group_regions(
    module: Module,
    gatefile: Gatefile,
    false_path_nets: Iterable[str],
    use_bus_heuristic: bool,
) -> RegionMap:
    conn = _Connectivity(module, gatefile, false_path_nets)
    grouped: Dict[str, int] = {}
    groups: List[Set[str]] = []

    def assign(instance: str, group_index: int, worklist: List[str]) -> None:
        if instance in grouped:
            return
        grouped[instance] = group_index
        groups[group_index].add(instance)
        worklist.append(instance)

    # -- step 1: connected components seeded from combinational gates
    for seed in module.instances:
        if seed in grouped or not conn.is_comb(seed):
            continue
        group_index = len(groups)
        groups.append(set())
        worklist: List[str] = []
        assign(seed, group_index, worklist)
        while worklist:
            cell = worklist.pop()
            for source in conn.comb_sources(cell):
                assign(source, group_index, worklist)
            if conn.is_comb(cell):
                for target in conn.targets(cell):
                    assign(target, group_index, worklist)
                if use_bus_heuristic:
                    for driver in conn.target_bus_drivers(cell):
                        assign(driver, group_index, worklist)

    # merge groups that share members through sequential pulls
    # (assign() already prevents double membership, so groups are disjoint)

    # -- step 2: flip-flops directly driven by grouped flip-flops
    changed = True
    while changed:
        changed = False
        for instance, group_index in list(grouped.items()):
            if conn.is_comb(instance):
                continue
            for target in conn.sequential_targets(instance):
                if target not in grouped:
                    grouped[target] = group_index
                    groups[group_index].add(target)
                    changed = True

    # -- step 3: everything else goes to Group 0
    group0: Set[str] = set()
    for instance in module.instances:
        if instance not in grouped:
            group0.add(instance)

    region_map = RegionMap()
    if group0:
        region_map.add(Region("G0", group0))
    for index, members in enumerate(groups, start=1):
        if members:
            region_map.add(Region(f"G{index}", members))
    return region_map


def manual_regions(
    module: Module, assignment: Dict[str, str]
) -> RegionMap:
    """Build a RegionMap from an explicit instance -> region mapping.

    Instances absent from ``assignment`` go to Group 0, mirroring the
    tool's manual-specification mode (section 3.2.2).
    """
    region_map = RegionMap()
    by_region: Dict[str, Set[str]] = {}
    for instance in module.instances:
        region = assignment.get(instance, "G0")
        by_region.setdefault(region, set()).add(instance)
    for name, members in sorted(by_region.items()):
        region_map.add(Region(name, members))
    record_region_metrics(region_map)
    return region_map


def single_region(module: Module, name: str = "G1") -> RegionMap:
    """Whole design as one region (the ARM case, section 5.3)."""
    region_map = RegionMap()
    region_map.add(Region(name, set(module.instances)))
    record_region_metrics(region_map)
    return region_map


def validate_independence(
    module: Module,
    gatefile: Gatefile,
    region_map: RegionMap,
    false_path_nets: Iterable[str] = (),
) -> List[str]:
    """Check no combinational connection crosses region boundaries.

    Returns a list of violation descriptions (empty when regions are
    independent, the precondition of the basic desynchronization
    methodology), in module instance order.
    """
    with trace.span("validate_independence", regions=len(region_map)) as span:
        members = [
            (instance, region_map.region_of(instance))
            for instance in module.instances
        ]
        problems = _crossings(
            module, gatefile, region_map, members, None, false_path_nets
        )
        span.set("violations", len(problems))
    return problems
