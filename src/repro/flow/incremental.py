"""End-to-end incremental re-flow: ECO edits through the whole pipeline.

A completed desynchronization run (section 3.2) leaves behind far more
reusable state than the artifact cache captures: the region partition,
the data-dependency graph, the characterised delay ladder, the inserted
controller network and the compiled timing graphs are all still valid
after a small netlist edit -- a cell swap inside a drive-strength
family, a wire re-annotation from a new parasitic extraction, a tied
constant, a spare-cell hookup.  :class:`IncrementalSession` keeps two
timed snapshots of a finished flow -- after import and after flip-flop
substitution -- and, per edit, re-derives only what the edit
invalidates:

========  ==========================================================
stage     incremental strategy
========  ==========================================================
import    hygiene reused; clock period re-timed on the import
          snapshot, whose compiled STA the import stage built
          (dirty-cone retime)
group     :func:`repro.desync.regions.regroup_incremental` revalidates
          the grouping relations incident to the dirty cells and
          splices the cached partition
ffsub     structurally reused (fast edits never touch sequentials)
ddg       :func:`repro.desync.ddg.patch_ddg` confirms the cached graph
          against the re-derived dirty-net edge contributions
delays    ladder reused; per-region targets re-measured on the ffsub
          snapshot's warm compiled STA and re-selected through
          :func:`repro.desync.delays.element_length_for`
network   spliced when every element length survives; otherwise the
          network tail re-inserts it into a clone of the ffsub
          snapshot over those delays (``precomputed_delays``, no
          second STA pass)
sdc       regenerated (cheap, pure function of the above)
sim       affected-region-only handshake re-simulation, scoped via
          the probe's region boundaries (``verify="affected"``)
========  ==========================================================

Every incremental path is backed by the from-scratch pipeline as a
bit-identical parity oracle: :meth:`IncrementalSession.oracle` replays
the same edits on a pristine clone of the input through
:func:`repro.desync.tool.desynchronize`, and the test suite asserts the
two produce byte-equal Verilog, SDC, element lengths and handshake
reports.  Edits whose guards fail fall back to the deep path: the
engine's own group, ffsub and ddg stage functions re-run on a clone of
the import snapshot -- same functions, same name-counter state, hence
the same bits as a cold run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..desync.constraints import generate_constraints
from ..desync.ddg import patch_ddg
from ..desync.delays import element_length_for
from ..desync.network import (
    diff_networks,
    insert_control_network,
    region_delays,
)
from ..desync.regions import (
    regroup_incremental,
    validate_independence_for,
)
from ..desync.tool import DesyncOptions, DesyncResult, Drdesync
from ..liberty.model import Library
from ..netlist.core import Module
from ..obs import metrics, trace
from ..sta.analysis import min_clock_period
from ..sta.compiled import annotate_wires, swap_cell

__all__ = [
    "EditError",
    "IncrementalSession",
    "NetlistEdit",
    "ReflowOutcome",
    "apply_edit",
    "load_edits",
    "FLOW_STAGES",
]

#: the pipeline stages the per-edit reuse report covers
FLOW_STAGES = (
    "import",
    "group",
    "ffsub",
    "ddg",
    "delays",
    "network",
    "constraints",
    "sim",
)

#: edit kinds the session understands
EDIT_KINDS = (
    "swap_cell",
    "annotate_wires",
    "set_constant",
    "add_instance",
    "remove_instance",
)


class EditError(Exception):
    """An edit description is malformed or inapplicable."""


def _pairs(value: Optional[Dict[str, float]]) -> Tuple[Tuple[str, float], ...]:
    if not value:
        return ()
    return tuple(sorted((str(k), float(v)) for k, v in value.items()))


@dataclass(frozen=True)
class NetlistEdit:
    """One ECO edit, addressed by post-import names.

    ``kind`` selects the operation:

    - ``swap_cell``: re-bind ``instance`` to library cell ``cell``;
    - ``annotate_wires``: merge ``wire_caps`` / ``wire_delays``
      parasitic annotations (net name -> value);
    - ``set_constant``: tie ``net`` to constant ``value`` (0/1);
    - ``add_instance``: add ``instance`` of ``cell`` with pin map
      ``pins`` (pin name -> net name, nets created on demand);
    - ``remove_instance``: delete ``instance``.
    """

    kind: str
    instance: Optional[str] = None
    cell: Optional[str] = None
    net: Optional[str] = None
    value: Optional[int] = None
    pins: Tuple[Tuple[str, str], ...] = ()
    wire_caps: Tuple[Tuple[str, float], ...] = ()
    wire_delays: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in EDIT_KINDS:
            raise EditError(
                f"unknown edit kind {self.kind!r}; expected one of "
                f"{', '.join(EDIT_KINDS)}"
            )
        # accept plain dicts for the mapping-shaped fields; normalise
        # to sorted tuples so edits stay hashable and order-stable
        if isinstance(self.pins, dict):
            object.__setattr__(self, "pins", tuple(sorted(self.pins.items())))
        if isinstance(self.wire_caps, dict):
            object.__setattr__(self, "wire_caps", _pairs(self.wire_caps))
        if isinstance(self.wire_delays, dict):
            object.__setattr__(self, "wire_delays", _pairs(self.wire_delays))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetlistEdit":
        kind = data.get("op") or data.get("kind")
        if kind is None:
            raise EditError(f"edit record lacks an 'op' field: {data!r}")
        return cls(
            kind=str(kind),
            instance=data.get("instance"),
            cell=data.get("cell"),
            net=data.get("net"),
            value=data.get("value"),
            pins=tuple(sorted((data.get("pins") or {}).items())),
            wire_caps=_pairs(data.get("wire_caps")),
            wire_delays=_pairs(data.get("wire_delays")),
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.kind}
        if self.instance is not None:
            out["instance"] = self.instance
        if self.cell is not None:
            out["cell"] = self.cell
        if self.net is not None:
            out["net"] = self.net
        if self.value is not None:
            out["value"] = self.value
        if self.pins:
            out["pins"] = dict(self.pins)
        if self.wire_caps:
            out["wire_caps"] = dict(self.wire_caps)
        if self.wire_delays:
            out["wire_delays"] = dict(self.wire_delays)
        return out


def load_edits(path: str) -> List[NetlistEdit]:
    """Load an ``edits.json`` file: a list of ``{"op": ...}`` records."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("edits", [data])
    if not isinstance(data, list):
        raise EditError(f"{path}: expected a JSON list of edit records")
    return [NetlistEdit.from_dict(record) for record in data]


def apply_edit(module: Module, library: Library, edit: NetlistEdit) -> None:
    """Apply one edit to ``module`` in place.

    The single edit applier shared by the incremental session (on its
    snapshots) and the parity oracle (on a pristine input clone), so
    both sides see byte-identical netlists.  Cell swaps and wire
    annotations go through the cache-aware :mod:`repro.sta.compiled`
    entry points; structural edits use the plain mutators (their
    dirty-log records invalidate caches wholesale).
    """
    if edit.kind == "swap_cell":
        if edit.instance is None or edit.cell is None:
            raise EditError("swap_cell needs 'instance' and 'cell'")
        if edit.instance not in module.instances:
            raise EditError(f"no instance {edit.instance!r} to swap")
        swap_cell(module, library, edit.instance, edit.cell)
    elif edit.kind == "annotate_wires":
        annotate_wires(
            module,
            wire_caps=dict(edit.wire_caps) or None,
            wire_delays=dict(edit.wire_delays) or None,
        )
    elif edit.kind == "set_constant":
        if edit.net is None or edit.value is None:
            raise EditError("set_constant needs 'net' and 'value'")
        net = module.nets.get(edit.net)
        if net is None:
            raise EditError(f"no net {edit.net!r} to tie")
        net.is_constant = True
        net.constant_value = int(bool(edit.value))
        module.invalidate_indexes()
    elif edit.kind == "add_instance":
        if edit.instance is None or edit.cell is None:
            raise EditError("add_instance needs 'instance' and 'cell'")
        for _pin, net_name in edit.pins:
            module.ensure_net(net_name)
        module.add_instance(edit.instance, edit.cell, dict(edit.pins))
    elif edit.kind == "remove_instance":
        if edit.instance is None:
            raise EditError("remove_instance needs 'instance'")
        if edit.instance not in module.instances:
            raise EditError(f"no instance {edit.instance!r} to remove")
        module.remove_instance(edit.instance)


@dataclass
class ReflowOutcome:
    """What one :meth:`IncrementalSession.apply` call did."""

    result: DesyncResult
    #: always ``"incremental"`` (the oracle runs ``mode="full"``)
    mode: str
    #: ``"splice"`` (everything structural reused), ``"network"``
    #: (controller network re-inserted over cached delays) or
    #: ``"deep"`` (stage functions re-run from a snapshot)
    path: str
    #: stage name -> True (reused) / False (recomputed)
    reused: Dict[str, bool] = field(default_factory=dict)
    #: per-region classification from :func:`diff_networks`
    region_status: Dict[str, str] = field(default_factory=dict)
    clock_period: float = 0.0
    #: regions the scoped verification simulated (``verify != "none"``)
    verified_regions: List[str] = field(default_factory=list)
    #: handshake report of the verification run, when one happened
    report: Optional[Dict[str, Any]] = None


class IncrementalSession:
    """A completed flow result that accepts ECO edits.

    ::

        session = IncrementalSession(library, options)
        result = session.start(module)          # full flow, once
        outcome = session.apply(NetlistEdit("swap_cell",
                                            instance="u42",
                                            cell="NAND2X4"))
        outcome.result.export_verilog()          # bit-identical to a
                                                 # from-scratch re-flow

    The session keeps two timed snapshots: the *import snapshot* (the
    netlist after design import, whose compiled STA ``min_clock_period``
    built) and the *ffsub snapshot* (after flip-flop substitution and
    the DDG, timed once by ``region_delays``), plus a pristine copy of
    the input for the oracle and the live result.  ``start``, the deep
    path and the network path end in one network tail: the controller
    network goes into a clone of the ffsub snapshot over the delays
    just measured, then the SDC.  Every ``apply`` updates the
    snapshots, so edits chain.
    ``session.oracle(edits)`` re-runs the untouched pipeline on the
    original input with the same edits -- the ``mode="full"`` parity
    reference the tests and benchmarks assert against.
    """

    def __init__(
        self,
        library: Library,
        options: Optional[DesyncOptions] = None,
        max_delay_levels: int = 240,
    ):
        self.library = library
        self.options = options or DesyncOptions()
        self.tool = Drdesync(
            library,
            corner=self.options.corner,
            max_delay_levels=max_delay_levels,
        )
        self.result: Optional[DesyncResult] = None
        self._edits_applied: List[NetlistEdit] = []
        self._input: Optional[Module] = None
        self._snap_imported: Optional[Module] = None
        self._snap_ffsub: Optional[Module] = None
        self._artifacts: Dict[str, Any] = {}
        self._stages: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # cold start
    # ------------------------------------------------------------------
    def start(self, module: Module) -> DesyncResult:
        """Run the full flow once and capture the reuse substrate.

        ``module`` becomes the session's import snapshot: the import
        stage rewrites it in place and later edits land on it, so pass
        a clone if the synchronous netlist is still needed.  The
        returned ``result.module`` is the session's own final netlist.
        """
        self._input = module.clone()
        self._stages = {
            stage.name: stage for stage in self.tool.build_stages(self.options)
        }
        with trace.span("flow.incremental.start", design=module.name):
            artifacts = self._stages["import"].call({"module.input": module})
            artifacts.update(self._stages["delays"].call(artifacts))
            self._artifacts = artifacts
            self._snap_imported = module
            self._reflow(artifacts["clock_period"])
        metrics.counter("flow.incr.sessions").inc()
        return self.result

    def _reflow(self, clock_period: float) -> None:
        """Re-run group -> ffsub -> ddg from the import snapshot.

        The stage functions run on a clone of the import snapshot, which
        carries the exact post-import name-counter state, so they
        produce the names a cold run would.  The clone becomes the
        ffsub snapshot, timed once; the network tail finishes the flow.
        """
        artifacts = self._artifacts
        artifacts["module.imported"] = self._snap_imported.clone()
        for name in ("group", "ffsub", "ddg"):
            artifacts.update(self._stages[name].call(artifacts))
        self._snap_ffsub = artifacts["module.ffsub"]
        delays = region_delays(
            self._snap_ffsub,
            self.library,
            artifacts["region_map.ffsub"],
            corner=self.options.corner,
        )
        self._insert_network(delays, clock_period)

    def _insert_network(
        self, delays: Dict[str, float], clock_period: float
    ) -> None:
        """The network tail every path but the splice shares: insert the
        controller network into a clone of the ffsub snapshot over the
        region delays just measured (no second STA pass), generate the
        SDC and assemble the result."""
        options = self.options
        artifacts = self._artifacts
        module = self._snap_ffsub.clone()
        network = insert_control_network(
            module,
            self.library,
            self.tool.gatefile,
            artifacts["region_map.ffsub"],
            artifacts["ddg"],
            artifacts["ladder"],
            chooser=self.tool.chooser,
            delay_margin=options.delay_margin,
            mux_taps=options.delay_mux_taps,
            mux_headroom=options.delay_mux_headroom,
            reset_port=options.reset_port,
            corner=options.corner,
            precomputed_delays=delays,
        )
        artifacts.update(
            {
                "module.network": module,
                "network": network,
                "clock_period": clock_period,
                "sdc": generate_constraints(
                    module, network, clock_period, options.delay_margin
                ),
            }
        )
        self.result = self.tool.assemble_result(module, artifacts)

    def _clock_period(self) -> float:
        """The clock period, re-timed on the import snapshot's graph."""
        if self.options.clock_period is not None:
            return self.options.clock_period
        return min_clock_period(
            self._snap_imported, self.library, self.options.corner
        )

    # ------------------------------------------------------------------
    # parity oracle
    # ------------------------------------------------------------------
    def oracle(self, edits: Union[NetlistEdit, Sequence[NetlistEdit]] = ())\
            -> DesyncResult:
        """``mode="full"``: from-scratch re-flow of input + all edits.

        Replays the session's whole edit history plus ``edits`` on a
        pristine clone of the original input through the untouched
        pipeline.  Incremental outputs must equal this bit for bit.
        """
        from ..desync.tool import desynchronize

        module = self._input.clone()
        for edit in self._edits_applied:
            apply_edit(module, self.library, edit)
        for edit in _as_edits(edits):
            apply_edit(module, self.library, edit)
        return desynchronize(module, self.library, self.options)

    # ------------------------------------------------------------------
    # the ECO entry point
    # ------------------------------------------------------------------
    def apply(
        self,
        edits: Union[NetlistEdit, Sequence[NetlistEdit]],
        verify: str = "none",
    ) -> ReflowOutcome:
        """Apply edits and re-derive only what they invalidate.

        ``verify`` scopes the post-edit re-simulation: ``"none"``
        (default), ``"affected"`` (handshake probe over only the
        regions the edit touched) or ``"full"`` (whole-design
        observation run).  The whole batch is checked before any
        snapshot changes, so a rejected batch leaves the session as it
        was.
        """
        if self.result is None:
            raise EditError("call start() before apply()")
        if verify not in ("none", "affected", "full"):
            raise EditError(f"unknown verify mode {verify!r}")
        batch = _as_edits(edits)
        if not batch:
            raise EditError("apply() needs at least one edit")
        self._check_batch(batch)
        with trace.span(
            "flow.incremental.apply", edits=len(batch), verify=verify
        ):
            if all(self._fast_eligible(edit) for edit in batch):
                outcome = self._apply_fast(batch)
            else:
                outcome = self._apply_deep(batch)
            self._edits_applied.extend(batch)
            self._record(outcome, verify)
        return outcome

    def _check_batch(self, batch: Sequence[NetlistEdit]) -> None:
        """Raise :class:`EditError` for the first edit that would fail.

        Walks the batch against the import snapshot, tracking the
        instances and nets earlier edits add or remove, and checks
        every name an edit addresses: instances, nets, library cells
        and the pins an edit binds.
        """
        #: instance -> pins it binds after the edits so far (None: gone)
        pins_of: Dict[str, Optional[Set[str]]] = {}
        added_nets: Set[str] = set()
        for index, edit in enumerate(batch):
            problem = self._edit_problem(edit, pins_of, added_nets)
            if problem is not None:
                raise EditError(f"edit {index} ({edit.kind}): {problem}")

    def _edit_problem(
        self,
        edit: NetlistEdit,
        pins_of: Dict[str, Optional[Set[str]]],
        added_nets: Set[str],
    ) -> Optional[str]:
        """Why ``edit`` cannot apply after the batch's earlier edits
        (recorded in ``pins_of``/``added_nets``, updated here), or
        None when it can."""
        imported = self._snap_imported
        if edit.kind == "annotate_wires":
            snapshots = (imported, self._snap_ffsub, self.result.module)
            for net, _value in (*edit.wire_caps, *edit.wire_delays):
                if net not in added_nets and not any(
                    net in module.nets for module in snapshots
                ):
                    return f"no net {net!r}"
            return None
        if edit.kind == "set_constant":
            if edit.net is None or edit.value is None:
                return "needs 'net' and 'value'"
            if edit.net not in imported.nets and edit.net not in added_nets:
                return f"no net {edit.net!r}"
            return None
        if edit.instance is None:
            return "needs 'instance'"
        if edit.instance in pins_of:
            pins = pins_of[edit.instance]
        else:
            inst = imported.instances.get(edit.instance)
            pins = None if inst is None else set(inst.pins)
        if edit.kind == "add_instance":
            if pins is not None:
                return f"instance {edit.instance!r} already exists"
            pins = {pin for pin, _net in edit.pins}
            added_nets.update(net for _pin, net in edit.pins)
        elif pins is None:
            return f"no instance {edit.instance!r}"
        if edit.kind == "remove_instance":
            pins_of[edit.instance] = None
            return None
        if edit.cell is None:
            return "needs 'cell'"
        info = self.tool.gatefile.cells.get(edit.cell)
        if info is None or edit.cell not in self.library.cells:
            return f"no cell {edit.cell!r} in the library"
        missing = sorted(pins - set(info.pins))
        if missing:
            return f"cell {edit.cell!r} has no pin {missing[0]!r}"
        pins_of[edit.instance] = pins
        return None

    # -- fast-path guards ----------------------------------------------
    def _fast_eligible(self, edit: NetlistEdit) -> bool:
        if edit.kind == "swap_cell":
            return self._fast_swap_ok(edit)
        if edit.kind == "annotate_wires":
            return self._fast_annotate_ok(edit)
        return False

    def _fast_swap_ok(self, edit: NetlistEdit) -> bool:
        """A swap is spliceable when it provably preserves every
        classification the cached artifacts encode: same pin interface,
        combinational on both sides, untouched by logic cleaning, and
        present (with the same binding) in every snapshot."""
        gatefile = self.tool.gatefile
        modules = (self._snap_imported, self._snap_ffsub, self.result.module)
        if edit.instance is None or edit.cell is None:
            return False
        first = self._snap_imported.instances.get(edit.instance)
        if first is None:
            return False
        for module in modules:
            inst = module.instances.get(edit.instance)
            if inst is None or inst.cell != first.cell:
                return False
        old_info = gatefile.cells.get(first.cell)
        new_info = gatefile.cells.get(edit.cell)
        if old_info is None or new_info is None:
            return False
        if edit.cell not in self.library.cells:
            return False
        if old_info.is_sequential or new_info.is_sequential:
            return False
        if old_info.kind != new_info.kind:
            return False
        if set(old_info.pins) != set(new_info.pins):
            return False
        for name, pin in old_info.pins.items():
            other = new_info.pins[name]
            if pin.direction != other.direction or pin.is_clock != other.is_clock:
                return False
        if self.options.clean and self.options.grouping == "auto":
            # logic cleaning keys on buffer/inverter-ness: a swap that
            # crosses that boundary changes what `clean_logic` removes
            for info in (old_info, new_info):
                if info.is_buffer or info.is_inverter:
                    return False
        return True

    def _fast_annotate_ok(self, edit: NetlistEdit) -> bool:
        """Annotations are spliceable only on pure design nets.

        Nets created by flip-flop substitution (the per-region enable
        nets ``gm_*``/``gs_*``, master-slave plumbing) or by the
        control-network insertion (handshake, delay-element wiring)
        feed sizing decisions the splice treats as invariant -- the
        ack-matching element covers the *enable net's* insertion delay,
        for one.  Design nets only influence the clock period and the
        region delays, both re-derived warm on the fast path."""
        final = self.result.module
        imported = self._snap_imported
        ffsub = self._snap_ffsub
        for net, _value in (*edit.wire_caps, *edit.wire_delays):
            if (net in final.nets or net in ffsub.nets) \
                    and net not in imported.nets:
                return False
        return True

    # -- fast path ------------------------------------------------------
    def _apply_fast(self, batch: Sequence[NetlistEdit]) -> ReflowOutcome:
        options = self.options
        result = self.result
        dirty_cells: Set[str] = set()
        dirty_nets: Set[str] = set()
        for edit in batch:
            for module in (self._snap_imported, self._snap_ffsub,
                           result.module):
                apply_edit(module, self.library, edit)
            if edit.kind == "swap_cell":
                dirty_cells.add(edit.instance)
                inst = self._snap_ffsub.instances[edit.instance]
                dirty_nets.update(inst.pins.values())

        reused = {name: True for name in FLOW_STAGES}
        # import: hygiene untouched; clock period re-derived warm
        clock_period = self._clock_period()

        # group: revalidate the cached partition around the dirty cells
        if dirty_cells:
            spliced = regroup_incremental(
                self._snap_ffsub,
                self.tool.gatefile,
                result.region_map,
                dirty_cells,
                options.false_path_nets,
            )
            if spliced is None:
                return self._apply_deep(batch, already_applied=True)
            touched_regions = {
                result.region_map.region_of(cell) for cell in dirty_cells
            }
            problems = validate_independence_for(
                self._snap_ffsub,
                self.tool.gatefile,
                result.region_map,
                sorted(r for r in touched_regions if r is not None),
                options.false_path_nets,
            )
            if problems:
                # same failure a cold run would hit in its group stage
                return self._apply_deep(batch, already_applied=True)

        # ddg: confirm the cached graph against the dirty-net edges
        if dirty_nets:
            confirmed = patch_ddg(
                result.ddg,
                self._snap_ffsub,
                self.tool.gatefile,
                result.region_map,
                dirty_nets,
                options.false_path_nets,
                env_instances=self._artifacts.get("foreign"),
            )
            if not confirmed:
                return self._apply_deep(batch, already_applied=True)

        # delays: re-select element lengths through the warm STA
        old_delays = dict(result.network.region_delays)
        new_delays = region_delays(
            self._snap_ffsub,
            self.library,
            result.region_map,
            corner=options.corner,
        )
        resized = any(
            element_length_for(
                result.ladder,
                new_delays.get(region, 0.0),
                options.delay_margin,
                options.delay_mux_taps,
                options.delay_mux_headroom,
            ) != element.length
            for region, element in result.network.delay_elements.items()
        )

        reused["constraints"] = False
        if resized:
            self._insert_network(new_delays, clock_period)
            reused["network"] = False
            path = "network"
            region_status = diff_networks(
                result.network, self.result.network
            )
        else:
            # the splice: every structure survives, only the recorded
            # region delays and the SDC (pure functions) refresh
            result.network.region_delays = new_delays
            result.sdc = generate_constraints(
                result.module,
                result.network,
                clock_period,
                options.delay_margin,
            )
            path = "splice"
            region_status = {
                region: "reused" for region in result.network.region_delays
            }
        region_of = result.region_map.region_of
        outcome = ReflowOutcome(
            result=self.result,
            mode="incremental",
            path=path,
            reused=reused,
            region_status=region_status,
            clock_period=clock_period,
        )
        outcome.verified_regions = sorted(
            ({region_of(cell) for cell in dirty_cells} - {None})
            | {
                region
                for region, status in region_status.items()
                if status != "reused"
            }
            | {
                region
                for region in new_delays
                if new_delays.get(region) != old_delays.get(region)
            }
        )
        return outcome

    # -- deep fallback --------------------------------------------------
    def _apply_deep(
        self,
        batch: Sequence[NetlistEdit],
        already_applied: bool = False,
    ) -> ReflowOutcome:
        """Re-run the stage functions from the import snapshot.

        Still far from a cold start: design import is skipped, the
        clock period re-times the import snapshot's warm graph and the
        ladder characterisation is reused, so the output is
        bit-identical to a from-scratch flow over the edited input.
        """
        old_network = self.result.network
        if not already_applied:
            # fast-path bailouts already pushed the edits into every
            # snapshot; first-time deep edits only touch the base one
            for edit in batch:
                apply_edit(self._snap_imported, self.library, edit)
        clock_period = self._clock_period()
        self._reflow(clock_period)
        reused = {name: False for name in FLOW_STAGES}
        reused["import"] = True
        reused["delays"] = True
        return ReflowOutcome(
            result=self.result,
            mode="incremental",
            path="deep",
            reused=reused,
            region_status=diff_networks(old_network, self.result.network),
            clock_period=clock_period,
        )

    # -- bookkeeping ----------------------------------------------------
    def _record(self, outcome: ReflowOutcome, verify: str) -> None:
        for stage, hit in outcome.reused.items():
            if stage == "sim":
                continue
            name = "flow.incr.reused" if hit else "flow.incr.recomputed"
            metrics.counter(name, labels={"stage": stage}).inc()
        metrics.counter(
            "flow.incr.applies", labels={"path": outcome.path}
        ).inc()
        if verify != "none":
            self._verify(outcome, verify)
            name = "flow.incr.reused" if outcome.reused["sim"] else \
                "flow.incr.recomputed"
            metrics.counter(name, labels={"stage": "sim"}).inc()

    def _verify(self, outcome: ReflowOutcome, verify: str) -> None:
        """Re-simulate the handshake layer, scoped to what changed."""
        result = self.result
        regions = sorted(result.network.handshake_nets())
        if verify == "affected":
            scoped = [r for r in outcome.verified_regions if r in regions]
            if not scoped and outcome.path != "splice":
                scoped = regions
            if not scoped:
                # nothing moved: the splice left every region's
                # structure and delays alone, so there is nothing to
                # re-simulate -- count the stage as reused
                outcome.reused["sim"] = True
                outcome.verified_regions = []
                return
        else:
            scoped = regions
        outcome.reused["sim"] = False
        outcome.verified_regions = scoped
        outcome.report = _scoped_handshake_run(
            result, self.library, scoped, self.options.corner
        )


def _as_edits(
    edits: Union[NetlistEdit, Sequence[NetlistEdit]]
) -> Tuple[NetlistEdit, ...]:
    if isinstance(edits, NetlistEdit):
        return (edits,)
    return tuple(edits)


class _ScopedSource:
    """A probe source exposing only the affected regions' handshakes.

    ``HandshakeProbe`` reads ``source.network.handshake_nets()`` and
    ``source.ddg``; narrowing the former to the affected regions keeps
    the simulator full-design (electrically honest) while the probe
    watches -- and the report covers -- only the region boundary nets
    the edit could have disturbed.
    """

    def __init__(self, result: DesyncResult, regions: Iterable[str]):
        keep = set(regions)
        full = result.network.handshake_nets()
        self._nets = {r: dict(n) for r, n in full.items() if r in keep}
        self.ddg = result.ddg
        self.network = self

    def handshake_nets(self) -> Dict[str, Dict[str, str]]:
        return self._nets


def _scoped_handshake_run(
    result: DesyncResult,
    library: Library,
    regions: Sequence[str],
    corner: str,
    items: int = 8,
    free_run_time: float = 500.0,
) -> Dict[str, Any]:
    """Affected-region-only re-verification (the ``sim`` stage)."""
    from ..sim.probes import DeadlockWatchdog, HandshakeProbe, handshake_report
    from ..sim.simulator import SimulationError, Simulator
    from ..sim.testbench import HandshakeTestbench

    with trace.span("flow.incremental.verify", regions=len(regions)):
        simulator = Simulator(result.module, library, corner, kernel="compiled")
        probe = HandshakeProbe(simulator, _ScopedSource(result, regions))
        watchdog = DeadlockWatchdog(probe)
        bench = HandshakeTestbench(
            simulator, result.network.env_ports, result.network.reset_net
        )
        error = None
        try:
            bench.apply_reset(0)
            has_inputs = any(
                "ri" in ports for ports in result.network.env_ports.values()
            )
            if has_inputs:
                bench.run_items(max(items - 1, 0), None, first_item=1)
            else:
                bench.run_free(free_run_time)
        except SimulationError as exc:
            error = str(exc)
        probe.finalize()
        watchdog.poll(simulator.now)
        report = handshake_report(probe, watchdog=watchdog)
        report["regions_verified"] = list(regions)
        if error is not None:
            report["error"] = error
        return report
