"""Event-driven gate-level simulator with per-arc timing.

Simulates a flat module against a technology library using 3-valued
logic (0 / 1 / X).  Sequential cells follow their liberty ``ff`` /
``latch`` groups: flip-flops capture on the rising edge of their clock
expression, latches are transparent while their enable expression is
true and *capture on the closing edge* -- the event the flow-equivalence
checker records.  Combinational cells with feedback (C-elements, the
controller complex gate) work naturally because output pins may appear
in their own functions and feedback nets re-trigger evaluation.

Delays come from the liberty linear model at a chosen corner, so the
same netlist can be simulated at best case, worst case, or with a
Monte-Carlo instance-level derate map (variability experiments).

Two kernels share the same semantics:

* ``kernel="compiled"`` (default) -- the incremental kernel.  Every
  cell keeps a persistent *encoded slot list* (pin values as base-3
  ints, see :mod:`repro.liberty.functions`) that the event loop patches
  in place when a net commits, so evaluating a cell is a few list
  indexes instead of rebuilding a pin->value dict per evaluation
  (twice -- once for the sequential update, once for output driving --
  as the pre-optimization code did).  Cell functions are the
  slot-indexed LUT/codegen evaluators; 1-2 input truth tables are
  inlined into the event loop without any function call.  Fanout
  entries carry a ``needs_seq`` flag so a flip-flop's data cone
  rippling does not re-run its state machine, and opaque latches skip
  theirs; both skips are applied only where the reference semantics
  provably make them no-ops.

* ``kernel="reference"`` -- the original behaviour, kept verbatim:
  AST-walking evaluators, per-evaluation env rebuilds and repeated
  clock-expression evaluation.  It is the baseline
  ``benchmarks/bench_sim_hotpath.py`` measures speedups against, and
  the oracle the kernel-parity tests compare the compiled kernel to
  (results are identical either way).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..liberty.functions import compile_function_indexed, reference_function
from ..liberty.model import CellKind, Library
from ..netlist.core import Module, PortDirection
from ..obs import metrics, prof
from ..sta.graph import compute_net_loads

Value = Optional[int]

#: sentinel distinguishing "pin never scheduled" from a scheduled None
_MISS = object()

#: fanout-entry modes (compiled kernel): what a net change means to the
#: reading cell.  Trigger variants (the net feeds the clock / clear /
#: preset expression) always run the state machine; data variants may
#: skip it.  Lower wins when one cell reads a net through several pins.
_COMB = 0
_FF_SEQ = 1
_FF_DATA = 2
_LATCH_SEQ = 3
_LATCH_DATA = 4


@dataclass
class CaptureEvent:
    """A sequential element storing a datum (FF clock edge / latch close)."""

    __slots__ = ("time", "instance", "value")

    time: float
    instance: str
    value: Value


def _spec1(fn) -> Optional[Tuple[int, Tuple[Value, ...]]]:
    """(slot, table) of a 1-input LUT, for call-free inline evaluation."""
    if fn is not None and getattr(fn, "kind", None) == "lut":
        slots = fn.lut_slots
        if len(slots) == 1 and slots[0] is not None:
            return (slots[0], fn.table)
    return None


def _cell_kernel_data(cell, kernel: str) -> dict:
    """Per-cell-type kernel data, cached on the cell itself.

    Everything that depends only on the library cell -- slot layout,
    compiled evaluators, filtered timing arcs, trigger pins -- is
    computed once per cell and shared by every instance of it, across
    simulators (the Monte-Carlo study builds thousands).  Cached in
    ``cell.__dict__`` like :meth:`LibraryCell.compiled_function`.
    """
    cache = cell.__dict__.setdefault("_sim_kernel_cache", {})
    data = cache.get(kernel)
    if data is None:
        data = _build_cell_kernel_data(cell, kernel)
        cache[kernel] = data
    return data


def _build_cell_kernel_data(cell, kernel: str) -> dict:
    compiled = kernel == "compiled"
    seq = cell.sequential
    state_pin = seq.state_pin if seq is not None else "IQ"
    if compiled:
        # slot order is per cell type, so every instance of a cell
        # shares the memoized slot-indexed evaluators
        slots = tuple(sorted(set(cell.pins) | {state_pin}))
        slot_index = {pin: i for i, pin in enumerate(slots)}

        def fn_compile(text):
            return compile_function_indexed(text, slots)

    else:
        slots = ()
        slot_index = {state_pin: 0}
        fn_compile = reference_function
    output_fns: Dict[str, Callable] = {}
    out_specs = []
    for pin in cell.output_pins():
        function = cell.pins[pin].function
        fn = s1 = s2 = table = None
        if function is not None:
            fn = fn_compile(function)
            output_fns[pin] = fn
            s1 = s2 = -1
            if compiled and fn.kind == "lut":  # type: ignore[attr-defined]
                lut_slots = fn.lut_slots  # type: ignore[attr-defined]
                if len(lut_slots) == 1 and lut_slots[0] is not None:
                    s1, table = lut_slots[0], fn.table  # type: ignore[attr-defined]
                elif (
                    len(lut_slots) == 2
                    and lut_slots[0] is not None
                    and lut_slots[1] is not None
                ):
                    s1, s2 = lut_slots
                    table = fn.table  # type: ignore[attr-defined]
        arcs = [
            a
            for a in cell.arcs_to(pin)
            if not a.timing_type.startswith(("setup", "hold"))
        ]
        out_specs.append((pin, fn, s1, s2, table, arcs))
    if seq is not None:
        seq_fns = (
            fn_compile(seq.next_state) if seq.next_state else None,
            fn_compile(seq.clocked_on) if seq.clocked_on else None,
            fn_compile(seq.clear) if seq.clear else None,
            fn_compile(seq.preset) if seq.preset else None,
        )
    else:
        seq_fns = (None, None, None, None)
    # A sequential cell's state machine only reacts to its clock /
    # clear / preset expressions: input changes elsewhere (the data
    # cone rippling) need at most the output drive pass, so
    # compiled-kernel fanout entries carry a needs_seq flag.
    trigger_pins = set()
    if compiled:
        for fn in seq_fns[1:]:
            if fn is not None:
                trigger_pins |= fn.inputs  # type: ignore[attr-defined]
    return {
        "state_pin": state_pin,
        "slots": slots,
        "slot_index": slot_index,
        "state_slot": slot_index[state_pin],
        "output_fns": output_fns,
        "out_specs": tuple(out_specs),
        "seq_fns": seq_fns,
        "seq_specs": tuple(_spec1(fn) for fn in seq_fns) if compiled
        else (None, None, None, None),
        "trigger_pins": frozenset(trigger_pins),
        "drive_data": any(
            spec[1].inputs - {state_pin}  # type: ignore[attr-defined]
            for spec in out_specs
            if spec[1] is not None
        ),
        "input_pins": tuple(cell.input_pins()),
        "is_ff": cell.kind == CellKind.FLIP_FLOP,
        "is_latch": cell.kind == CellKind.LATCH,
    }


class _CellModel:
    """Pre-compiled behaviour of one instance."""

    __slots__ = (
        "name",
        "cell",
        "kind",
        "pin_nets",
        "output_fns",
        "output_delays",
        "outputs",
        "single",
        "seq_next",
        "seq_clock",
        "seq_clear",
        "seq_preset",
        "seq_next_s",
        "seq_clock_s",
        "seq_clear_s",
        "seq_preset_s",
        "state_pin",
        "state_slot",
        "state",
        "prev_clock",
        "is_ff",
        "is_latch",
        "scheduled",
        "env",
        "async_active",
        "drive_data",
    )

    def __init__(self, name: str):
        self.name = name
        self.state: Value = None
        self.prev_clock: Value = None
        #: last value scheduled per output pin (transport-delay model:
        #: comparing against the *current* net value would silently drop
        #: a change that reconverges while an earlier event is in flight)
        self.scheduled: Dict[str, Value] = {}
        #: persistent encoded pin-value slot list (incremental kernel);
        #: patched in place by the event loop on every net commit
        self.env: List[int] = []
        #: flattened (pin, fn, net, delay, s1, s2, table) drive list;
        #: s1/s2/table inline 1-2 input truth tables into the loop
        self.outputs: List[Tuple] = []
        #: the sole drive entry when the cell has exactly one output --
        #: lets the event loop skip building an iterator per evaluation
        self.single: Optional[Tuple] = None
        self.state_slot = 0
        #: (slot, table) fast paths for 1-input sequential expressions
        self.seq_next_s = None
        self.seq_clock_s = None
        self.seq_clear_s = None
        self.seq_preset_s = None
        #: an async clear/preset is currently asserted (the reference
        #: semantics record a capture on *every* evaluation while one
        #: is held, so data-cone skips must not apply then)
        self.async_active = False
        #: some output function reads a pin other than the state pin,
        #: so a data-cone touch can change an output even when the
        #: state machine is skipped
        self.drive_data = True


class SimulationError(Exception):
    """Raised for unusable simulation setups."""


class Simulator:
    """Event-driven simulator for one module."""

    def __init__(
        self,
        module: Module,
        library: Library,
        corner: str = "worst",
        derate_map: Optional[Dict[str, float]] = None,
        timing: bool = True,
        kernel: str = "compiled",
    ):
        if kernel not in ("compiled", "reference"):
            raise SimulationError(f"unknown simulator kernel {kernel!r}")
        self.module = module
        self.library = library
        self.corner = corner
        self.timing = timing
        self.kernel = kernel
        self.now = 0.0
        self._seq = 0
        #: heap of (time, seq, payload, value); the payload is the net
        #: *record* list for the compiled kernel and the net name for the
        #: reference kernel
        self._queue: List[Tuple[float, int, object, Value]] = []
        self.net_values: Dict[str, Value] = {}
        #: reference kernel: net -> bare models, as the original code had
        self._fanout: Dict[str, List] = defaultdict(list)
        self._models: Dict[str, _CellModel] = {}
        self.captures: List[CaptureEvent] = []
        self.toggle_counts: Dict[str, int] = defaultdict(int)
        #: nets pinned to a value (stuck-at fault injection)
        self.forced_nets: Dict[str, Value] = {}
        self._watchers: List[Callable[[float, str, Value], None]] = []
        #: selective subscriptions: net -> callbacks (reference kernel;
        #: the compiled kernel stores them on the net record itself)
        self._net_watchers: Dict[str, List] = {}
        self._capture_watchers: List[Callable[[CaptureEvent], None]] = []
        self.event_count = 0
        self.evaluation_count = 0

        incremental = kernel == "compiled"
        self._incremental = incremental
        derate = library.corner(corner).derate
        loads = compute_net_loads(module, library)
        derate_map = derate_map or {}

        for net_name, net in module.nets.items():
            if net.is_constant:
                self.net_values[net_name] = net.constant_value
            else:
                self.net_values[net_name] = None

        #: compiled kernel: per-net record ``[value, bindings, fanout,
        #: name, watchers]`` carried directly in queue entries, so a
        #: commit touches one list instead of probing three dicts by
        #: name; slot 4 holds selective per-net watcher callbacks (None
        #: until someone subscribes).  ``net_values`` is kept in sync
        #: for the public read API.
        if incremental:
            self._net_rec: Dict[str, list] = {
                name: [value, [], [], name, None]
                for name, value in self.net_values.items()
            }
        else:
            self._net_rec = {}

        net_values = self.net_values
        net_rec = self._net_rec
        fanout = self._fanout
        for inst in module.instances.values():
            cell = library.cells.get(inst.cell)
            if cell is None:
                raise SimulationError(
                    f"cell {inst.cell!r} of {inst.name!r} not in library"
                )
            data = _cell_kernel_data(cell, kernel)
            inst_pins = inst.pins
            model = _CellModel(inst.name)
            model.cell = cell
            model.kind = cell.kind
            model.pin_nets = dict(inst_pins)
            model.is_ff = data["is_ff"]
            model.is_latch = data["is_latch"]
            is_seq = model.is_ff or model.is_latch
            state_pin = data["state_pin"]
            model.state_pin = state_pin
            model.output_fns = data["output_fns"]  # shared, read-only
            model.output_delays = {}
            (
                model.seq_next,
                model.seq_clock,
                model.seq_clear,
                model.seq_preset,
            ) = data["seq_fns"]
            local_derate = derate * derate_map.get(inst.name, 1.0)
            outputs = model.outputs
            for pin, fn, s1, s2, table, arcs in data["out_specs"]:
                net = inst_pins.get(pin)
                if net is None:
                    continue
                if arcs and timing:
                    load = loads.get(net, 0.0)
                    delay = max(a.worst_delay(load) for a in arcs)
                else:
                    delay = 0.001 if timing else 0.0
                delay *= local_derate
                model.output_delays[pin] = delay
                if fn is not None and incremental:
                    rec = net_rec.get(net)
                    if rec is None:
                        rec = net_rec[net] = [None, [], [], net, None]
                    outputs.append(
                        [pin, fn, rec, delay, s1, s2, table, _MISS]
                    )
            if len(outputs) == 1:
                model.single = outputs[0]
            self._models[inst.name] = model
            if incremental:
                (
                    model.seq_next_s,
                    model.seq_clock_s,
                    model.seq_clear_s,
                    model.seq_preset_s,
                ) = data["seq_specs"]
                if is_seq:
                    model.drive_data = data["drive_data"]
                trigger_pins = data["trigger_pins"]
                if model.is_ff:
                    seq_modes = (_FF_SEQ, _FF_DATA)
                elif model.is_latch:
                    seq_modes = (_LATCH_SEQ, _LATCH_DATA)
                else:
                    seq_modes = (_COMB, _COMB)
                for pin in data["input_pins"]:
                    net = inst_pins.get(pin)
                    if net is None:
                        continue
                    mode = seq_modes[pin not in trigger_pins]
                    rec = net_rec.get(net)
                    if rec is None:
                        rec = net_rec[net] = [None, [], [], net, None]
                    entries = rec[2]
                    for i, entry in enumerate(entries):
                        # two pins of one cell on the same net: merge so
                        # a net's fanout holds each model exactly once
                        # (the trigger variant -- lower mode -- wins)
                        if entry[0] is model:
                            if mode < entry[1]:
                                entries[i] = (model, mode)
                            break
                    else:
                        entries.append((model, mode))
                slot_index = data["slot_index"]
                state_slot = data["state_slot"]
                env = [2] * len(data["slots"])
                for pin, net in inst_pins.items():
                    index = slot_index.get(pin)
                    if index is None:
                        continue
                    value = net_values.get(net)
                    env[index] = 2 if value is None else value
                    if is_seq and pin == state_pin:
                        continue  # the state value always wins
                    rec = net_rec.get(net)
                    if rec is None:
                        rec = net_rec[net] = [None, [], [], net, None]
                    rec[1].append((env, index))
                model.state_slot = state_slot
                state = model.state
                env[state_slot] = 2 if state is None else state
                model.env = env
            else:
                for pin in data["input_pins"]:
                    net = inst_pins.get(pin)
                    if net is not None:
                        fanout[net].append(model)

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------
    def watch_nets(
        self,
        callback: Callable[[float, str, Value], None],
        nets: Optional[Iterable[str]] = None,
    ) -> None:
        """Subscribe ``callback(time, net, value)`` to net commits.

        Without ``nets`` the callback sees every committed change (the
        historical behaviour).  With ``nets`` the subscription is
        *selective*: the callback fires only for the named nets, and
        the dispatch cost rides on the net record itself, so heavy
        unwatched activity (the datapath, while only handshake nets are
        probed) pays a single pointer test per commit.  Both kernels
        deliver identical ``(time, net, value)`` sequences.
        """
        if nets is None:
            self._watchers.append(callback)
            return
        for net in nets:
            if self._incremental:
                rec = self._net_rec.get(net)
                if rec is None:
                    rec = self._net_rec[net] = [
                        self.net_values.get(net), [], [], net, None
                    ]
                if rec[4] is None:
                    rec[4] = []
                rec[4].append(callback)
            else:
                self._net_watchers.setdefault(net, []).append(callback)

    def watch_captures(self, callback: Callable[[CaptureEvent], None]) -> None:
        self._capture_watchers.append(callback)

    # ------------------------------------------------------------------
    # state setup
    # ------------------------------------------------------------------
    def set_state(self, instance: str, value: Value) -> None:
        """Force the internal state of a sequential element (reset init)."""
        model = self._models[instance]
        if not (model.is_ff or model.is_latch):
            raise SimulationError(f"{instance!r} is not sequential")
        model.state = value
        if self._incremental:
            model.env[model.state_slot] = 2 if value is None else value
        self._drive_outputs(model, immediate=True)

    def set_input(self, port_bit: str, value: Value, at: Optional[float] = None) -> None:
        """Schedule a primary-input change (default: now)."""
        self._schedule(at if at is not None else self.now, port_bit, value)

    def force_net(self, net: str, value: Value) -> None:
        """Pin a net to a value (stuck-at fault injection for ATPG)."""
        self.forced_nets[net] = value
        self.net_values[net] = value
        encoded = 2 if value is None else value
        if self._incremental:
            rec = self._net_rec.get(net)
            if rec is not None:
                rec[0] = value
                for env, slot in rec[1]:
                    env[slot] = encoded
                for entry in rec[2]:
                    self._evaluate(entry[0])
        else:
            for entry in self._fanout.get(net, ()):
                self._evaluate(entry)

    def release_net(self, net: str) -> None:
        self.forced_nets.pop(net, None)

    def value(self, net: str) -> Value:
        return self.net_values[net]

    def bus_value(self, bits: List[str]) -> Optional[int]:
        """Integer value of an LSB-first bit list, None if any bit is X."""
        out = 0
        for index, bit in enumerate(bits):
            value = self.net_values.get(bit)
            if value is None:
                return None
            out |= value << index
        return out

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _schedule(self, time: float, net: str, value: Value) -> None:
        self._seq += 1
        if self._incremental:
            # compiled queue entries carry the net *record*, not the name
            rec = self._net_rec.get(net)
            if rec is None:
                rec = self._net_rec[net] = [
                    self.net_values.get(net), [], [], net, None
                ]
            heapq.heappush(self._queue, (time, self._seq, rec, value))
        else:
            heapq.heappush(self._queue, (time, self._seq, net, value))

    def run_until(self, end_time: float, max_events: int = 5_000_000) -> None:
        """Advance simulation time to ``end_time``."""
        if self._incremental:
            self._run_compiled(end_time, max_events)
        else:
            self._run_reference(end_time, max_events)

    def _run_compiled(self, end_time: float, max_events: int) -> None:
        """Incremental event loop.

        Slot patch on commit, inlined output drive, and the FF / latch
        state machines unrolled into the loop body (they are the two
        hottest call sites; the standalone methods remain for the
        out-of-loop ``force_net`` path).  Single-event time steps -- the
        dominant case in self-timed circuits -- bypass the multi-net
        collection entirely.
        """
        events = 0
        evaluations = 0
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        net_values = self.net_values
        forced_nets = self.forced_nets
        watchers = self._watchers
        captures = self.captures
        capture_watchers = self._capture_watchers
        toggle_counts = self.toggle_counts
        seq_no = self._seq
        miss = _MISS
        # queue-depth high-water for stage profiles; when profiling is
        # off the per-event cost is one short-circuited bool check
        profiling = prof.enabled()
        queue_hw = len(queue) if profiling else 0
        try:
            while queue and queue[0][0] <= end_time:
                if profiling and len(queue) > queue_hw:
                    queue_hw = len(queue)
                now = queue[0][0]
                self.now = now
                _, _, rec, value = heappop(queue)
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"event limit exceeded at t={now:.3f} "
                        "(oscillation or runaway activity)"
                    )
                if queue and queue[0][0] == now:
                    # several events share this timestamp: collect every
                    # committed net's fanout, then dedup models
                    changed: List[list] = []
                    while True:
                        if rec[0] != value and rec[3] not in forced_nets:
                            rec[0] = value
                            name = rec[3]
                            net_values[name] = value
                            bindings = rec[1]
                            if bindings:
                                encoded = 2 if value is None else value
                                for env, slot in bindings:
                                    env[slot] = encoded
                            fans = rec[2]
                            if fans:
                                changed.append(fans)
                            if value is not None:
                                toggle_counts[name] += 1
                            if watchers:
                                for watcher in watchers:
                                    watcher(now, name, value)
                            subscribed = rec[4]
                            if subscribed:
                                for watcher in subscribed:
                                    watcher(now, name, value)
                        if queue and queue[0][0] == now:
                            _, _, rec, value = heappop(queue)
                            events += 1
                            if events > max_events:
                                raise SimulationError(
                                    f"event limit exceeded at t={now:.3f} "
                                    "(oscillation or runaway activity)"
                                )
                            continue
                        break
                    if not changed:
                        continue
                    if len(changed) == 1:
                        work = changed[0]
                        evaluations += len(work)
                    else:
                        touched: Dict[_CellModel, int] = {}
                        for fans in changed:
                            for model, mode in fans:
                                prev = touched.get(model)
                                if prev is None or mode < prev:
                                    touched[model] = mode
                        work = touched.items()
                        evaluations += len(touched)
                else:
                    # single event at this timestamp: the dominant case
                    if rec[0] == value or rec[3] in forced_nets:
                        continue
                    rec[0] = value
                    name = rec[3]
                    net_values[name] = value
                    bindings = rec[1]
                    if bindings:
                        encoded = 2 if value is None else value
                        for env, slot in bindings:
                            env[slot] = encoded
                    if value is not None:
                        toggle_counts[name] += 1
                    if watchers:
                        for watcher in watchers:
                            watcher(now, name, value)
                    subscribed = rec[4]
                    if subscribed:
                        for watcher in subscribed:
                            watcher(now, name, value)
                    work = rec[2]
                    if not work:
                        continue
                    evaluations += len(work)
                for model, mode in work:
                    env = model.env
                    if mode:
                        if mode < 3:  # flip-flop
                            # data-cone touches are no-ops unless an
                            # async clear/preset is held (reference
                            # records a capture per evaluation then) or
                            # the clock value is still unknown
                            if (
                                mode == 1
                                or model.async_active
                                or model.prev_clock is None
                            ):
                                # --- FF machine (see _evaluate_ff) ---
                                spec = model.seq_clock_s
                                if spec is not None:
                                    clock = spec[1][env[spec[0]]]
                                elif model.seq_clock is not None:
                                    clock = model.seq_clock(env)
                                else:
                                    clock = None
                                spec = model.seq_clear_s
                                if spec is not None:
                                    async_on = spec[1][env[spec[0]]] == 1
                                else:
                                    async_on = (
                                        model.seq_clear is not None
                                        and model.seq_clear(env) == 1
                                    )
                                if async_on:
                                    model.state = 0
                                    env[model.state_slot] = 0
                                else:
                                    spec = model.seq_preset_s
                                    if spec is not None:
                                        async_on = spec[1][env[spec[0]]] == 1
                                    else:
                                        async_on = (
                                            model.seq_preset is not None
                                            and model.seq_preset(env) == 1
                                        )
                                    if async_on:
                                        model.state = 1
                                        env[model.state_slot] = 1
                                if async_on:
                                    model.async_active = True
                                    event = CaptureEvent(
                                        now, model.name, model.state
                                    )
                                    captures.append(event)
                                    for cw in capture_watchers:
                                        cw(event)
                                else:
                                    model.async_active = False
                                    prev = model.prev_clock
                                    if prev == 0 and clock == 1:
                                        spec = model.seq_next_s
                                        if spec is not None:
                                            state = spec[1][env[spec[0]]]
                                        else:
                                            state = (
                                                model.seq_next(env)
                                                if model.seq_next
                                                else None
                                            )
                                        model.state = state
                                        env[model.state_slot] = (
                                            2 if state is None else state
                                        )
                                        event = CaptureEvent(
                                            now, model.name, state
                                        )
                                        captures.append(event)
                                        for cw in capture_watchers:
                                            cw(event)
                                    elif clock == 1 and prev is None:
                                        # unknown -> 1: state unknown
                                        model.state = None
                                        env[model.state_slot] = 2
                                model.prev_clock = clock
                            elif not model.drive_data:
                                continue
                        else:  # latch
                            # an opaque latch (enable known low) ignores
                            # its data cone; transparent or unknown must
                            # track it
                            if mode == 3 or model.prev_clock != 0:
                                # --- latch machine (see
                                # _evaluate_latch_compiled) ---
                                spec = model.seq_clear_s
                                if spec is not None:
                                    async_on = spec[1][env[spec[0]]] == 1
                                else:
                                    async_on = (
                                        model.seq_clear is not None
                                        and model.seq_clear(env) == 1
                                    )
                                if async_on:
                                    model.state = 0
                                    env[model.state_slot] = 0
                                else:
                                    spec = model.seq_preset_s
                                    if spec is not None:
                                        async_on = spec[1][env[spec[0]]] == 1
                                    else:
                                        async_on = (
                                            model.seq_preset is not None
                                            and model.seq_preset(env) == 1
                                        )
                                    if async_on:
                                        model.state = 1
                                        env[model.state_slot] = 1
                                    else:
                                        spec = model.seq_clock_s
                                        if spec is not None:
                                            enable = spec[1][env[spec[0]]]
                                        elif model.seq_clock is not None:
                                            enable = model.seq_clock(env)
                                        else:
                                            enable = 1
                                        if enable == 1:
                                            spec = model.seq_next_s
                                            if spec is not None:
                                                state = spec[1][env[spec[0]]]
                                            else:
                                                state = (
                                                    model.seq_next(env)
                                                    if model.seq_next
                                                    else None
                                                )
                                            model.state = state
                                            env[model.state_slot] = (
                                                2 if state is None else state
                                            )
                                        elif enable == 0:
                                            if model.prev_clock == 1:
                                                # closing edge: the value
                                                # just latched is the
                                                # capture
                                                event = CaptureEvent(
                                                    now,
                                                    model.name,
                                                    model.state,
                                                )
                                                captures.append(event)
                                                for cw in capture_watchers:
                                                    cw(event)
                                        elif enable is None:
                                            model.state = None
                                            env[model.state_slot] = 2
                                        model.prev_clock = enable
                            elif not model.drive_data:
                                continue
                    out = model.single
                    if out is not None:
                        pin, fn, orec, delay, s1, s2, table, last = out
                        if table is None:
                            val = fn(env)
                        elif s2 < 0:
                            val = table[env[s1]]
                        else:
                            val = table[env[s1] * 3 + env[s2]]
                        if last is miss:
                            last = orec[0]
                        if val == last:
                            continue
                        out[7] = val
                        seq_no += 1
                        heappush(queue, (now + delay, seq_no, orec, val))
                        continue
                    for out in model.outputs:
                        pin, fn, orec, delay, s1, s2, table, last = out
                        if table is None:
                            val = fn(env)
                        elif s2 < 0:
                            val = table[env[s1]]
                        else:
                            val = table[env[s1] * 3 + env[s2]]
                        if last is miss:
                            last = orec[0]
                        if val == last:
                            continue
                        out[7] = val
                        seq_no += 1
                        heappush(queue, (now + delay, seq_no, orec, val))
        finally:
            self._seq = seq_no
        self.now = end_time
        self.event_count += events
        self.evaluation_count += evaluations
        if events:
            metrics.counter("sim.events").inc(events)
            metrics.counter("sim.evaluations").inc(evaluations)
            if profiling:
                prof.add_counters(
                    sim_events=events, sim_evaluations=evaluations
                )
                prof.peak_counters(sim_queue_high_water=queue_hw)

    def _run_reference(self, end_time: float, max_events: int) -> None:
        """Original event loop, kept verbatim as the measured baseline
        (plus the selective-watcher dispatch both kernels share)."""
        events = 0
        evaluations = 0
        profiling = prof.enabled()
        queue_hw = len(self._queue) if profiling else 0
        net_watchers = self._net_watchers
        while self._queue and self._queue[0][0] <= end_time:
            if profiling and len(self._queue) > queue_hw:
                queue_hw = len(self._queue)
            time = self._queue[0][0]
            self.now = time
            changed: List[str] = []
            while self._queue and self._queue[0][0] == time:
                _, _, net, value = heapq.heappop(self._queue)
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"event limit exceeded at t={time:.3f} "
                        "(oscillation or runaway activity)"
                    )
                if net in self.forced_nets:
                    continue
                if self.net_values.get(net) == value:
                    continue
                self.net_values[net] = value
                if value is not None:
                    self.toggle_counts[net] += 1
                for watcher in self._watchers:
                    watcher(time, net, value)
                if net_watchers:
                    subscribed = net_watchers.get(net)
                    if subscribed:
                        for watcher in subscribed:
                            watcher(time, net, value)
                changed.append(net)
            touched: Dict[str, _CellModel] = {}
            for net in changed:
                for model in self._fanout.get(net, ()):
                    touched[model.name] = model
            evaluations += len(touched)
            for model in touched.values():
                self._evaluate(model)
        self.now = end_time
        self.event_count += events
        self.evaluation_count += evaluations
        if events:
            metrics.counter("sim.events").inc(events)
            metrics.counter("sim.evaluations").inc(evaluations)
            if profiling:
                prof.add_counters(
                    sim_events=events, sim_evaluations=evaluations
                )
                prof.peak_counters(sim_queue_high_water=queue_hw)

    def run_for(self, duration: float, **kwargs) -> None:
        self.run_until(self.now + duration, **kwargs)

    # ------------------------------------------------------------------
    def _pin_env(self, model: _CellModel) -> Dict[str, Value]:
        """Reference-kernel path: rebuild the env from net values."""
        env: Dict[str, Value] = {}
        for pin, net in model.pin_nets.items():
            env[pin] = self.net_values.get(net)
        if model.is_ff or model.is_latch:
            env[model.state_pin] = model.state
        return env

    def _evaluate(self, model: _CellModel) -> None:
        """Out-of-loop evaluation (``force_net``); loop bodies inline this."""
        if self._incremental:
            env = model.env
            if model.is_ff:
                self._evaluate_ff(model, env)
            elif model.is_latch:
                self._evaluate_latch_compiled(model, env)
            self._drive_outputs(model)
            return
        env = self._pin_env(model)
        if model.is_ff:
            self._evaluate_ff_reference(model, env)
        elif model.is_latch:
            self._evaluate_latch(model, env)
        self._drive_outputs(model)

    def _evaluate_ff(self, model: _CellModel, env: List[int]) -> None:
        """Compiled FF machine: encoded env, one clock eval, state-slot
        maintenance and capture recording inlined."""
        spec = model.seq_clock_s
        if spec is not None:
            clock = spec[1][env[spec[0]]]
        elif model.seq_clock is not None:
            clock = model.seq_clock(env)
        else:
            clock = None
        # asynchronous clear / preset dominate
        spec = model.seq_clear_s
        if spec is not None:
            clear_on = spec[1][env[spec[0]]] == 1
        else:
            clear_on = model.seq_clear is not None and model.seq_clear(env) == 1
        if clear_on:
            model.state = 0
            env[model.state_slot] = 0
        else:
            spec = model.seq_preset_s
            if spec is not None:
                preset_on = spec[1][env[spec[0]]] == 1
            else:
                preset_on = (
                    model.seq_preset is not None and model.seq_preset(env) == 1
                )
            if preset_on:
                model.state = 1
                env[model.state_slot] = 1
            else:
                model.async_active = False
                prev = model.prev_clock
                if prev == 0 and clock == 1:
                    spec = model.seq_next_s
                    if spec is not None:
                        state = spec[1][env[spec[0]]]
                    else:
                        state = model.seq_next(env) if model.seq_next else None
                    model.state = state
                    env[model.state_slot] = 2 if state is None else state
                    event = CaptureEvent(self.now, model.name, state)
                    self.captures.append(event)
                    for watcher in self._capture_watchers:
                        watcher(event)
                elif clock == 1 and prev is None:
                    # unknown -> 1 transition: state becomes unknown
                    model.state = None
                    env[model.state_slot] = 2
                model.prev_clock = clock
                return
        model.async_active = True
        self._record_capture(model)
        model.prev_clock = clock

    def _evaluate_ff_reference(
        self, model: _CellModel, env: Dict[str, Value]
    ) -> None:
        """Original FF update: re-evaluates the clock expression per use."""
        if model.seq_clear is not None and model.seq_clear(env) == 1:
            model.state = 0
        elif model.seq_preset is not None and model.seq_preset(env) == 1:
            model.state = 1
        else:
            clock = model.seq_clock(env) if model.seq_clock else None
            if model.prev_clock == 0 and clock == 1:
                model.state = model.seq_next(env) if model.seq_next else None
                self._record_capture(model)
            elif clock == 1 and model.prev_clock is None:
                # unknown -> 1 transition: state becomes unknown
                model.state = None
            model.prev_clock = (
                model.seq_clock(env) if model.seq_clock else None
            )
            return
        self._record_capture(model)
        if model.seq_clock is not None:
            model.prev_clock = model.seq_clock(env)

    def _evaluate_latch_compiled(self, model: _CellModel, env: List[int]) -> None:
        """Compiled latch machine: encoded env, state-slot maintenance
        and capture recording inlined."""
        spec = model.seq_clear_s
        if spec is not None:
            if spec[1][env[spec[0]]] == 1:
                model.state = 0
                env[model.state_slot] = 0
                return
        elif model.seq_clear is not None and model.seq_clear(env) == 1:
            model.state = 0
            env[model.state_slot] = 0
            return
        spec = model.seq_preset_s
        if spec is not None:
            if spec[1][env[spec[0]]] == 1:
                model.state = 1
                env[model.state_slot] = 1
                return
        elif model.seq_preset is not None and model.seq_preset(env) == 1:
            model.state = 1
            env[model.state_slot] = 1
            return
        spec = model.seq_clock_s
        if spec is not None:
            enable = spec[1][env[spec[0]]]
        elif model.seq_clock is not None:
            enable = model.seq_clock(env)
        else:
            enable = 1
        if enable == 1:
            spec = model.seq_next_s
            if spec is not None:
                state = spec[1][env[spec[0]]]
            else:
                state = model.seq_next(env) if model.seq_next else None
            model.state = state
            env[model.state_slot] = 2 if state is None else state
        elif enable == 0:
            if model.prev_clock == 1:
                # closing edge: the value just latched is the capture
                event = CaptureEvent(self.now, model.name, model.state)
                self.captures.append(event)
                for watcher in self._capture_watchers:
                    watcher(event)
        elif enable is None:
            model.state = None
            env[model.state_slot] = 2
        model.prev_clock = enable

    def _evaluate_latch(self, model: _CellModel, env: Dict[str, Value]) -> None:
        """Original latch update (reference kernel)."""
        if model.seq_clear is not None and model.seq_clear(env) == 1:
            model.state = 0
            return
        if model.seq_preset is not None and model.seq_preset(env) == 1:
            model.state = 1
            return
        enable = model.seq_clock(env) if model.seq_clock else 1
        if enable == 1:
            model.state = model.seq_next(env) if model.seq_next else None
        elif enable == 0 and model.prev_clock == 1:
            # closing edge: the value just latched is the capture
            self._record_capture(model)
        elif enable is None:
            model.state = None
        model.prev_clock = enable

    def _record_capture(self, model: _CellModel) -> None:
        event = CaptureEvent(self.now, model.name, model.state)
        self.captures.append(event)
        for watcher in self._capture_watchers:
            watcher(event)

    def _drive_outputs(self, model: _CellModel, immediate: bool = False) -> None:
        if self._incremental:
            env = model.env
            zero_delay = immediate or not self.timing
            for out in model.outputs:
                pin, fn, rec, delay, s1, s2, table, last = out
                if table is None:
                    value = fn(env)
                elif s2 < 0:
                    value = table[env[s1]]
                else:
                    value = table[env[s1] * 3 + env[s2]]
                if last is _MISS:
                    last = rec[0]
                if value == last:
                    continue
                out[7] = value
                self._seq += 1
                heapq.heappush(
                    self._queue,
                    (
                        self.now + (0.0 if zero_delay else delay),
                        self._seq,
                        rec,
                        value,
                    ),
                )
            return
        env = self._pin_env(model)
        for pin, fn in model.output_fns.items():
            net = model.pin_nets.get(pin)
            if net is None:
                continue
            value = fn(env)
            last = model.scheduled.get(pin, self.net_values.get(net))
            if value == last:
                continue
            if immediate or not self.timing:
                delay = 0.0
            else:
                delay = model.output_delays.get(pin, 0.0)
            model.scheduled[pin] = value
            self._schedule(self.now + delay, net, value)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def settle(self, max_time: float = 1000.0, step: float = 5.0) -> float:
        """Run until the event queue drains (or ``max_time``)."""
        start = self.now
        while self._queue and self.now < start + max_time:
            self.run_for(step)
        return self.now

    def capture_sequences(self) -> Dict[str, List[Value]]:
        """Captured data sequences per sequential instance."""
        out: Dict[str, List[Value]] = defaultdict(list)
        for event in self.captures:
            out[event.instance].append(event.value)
        return dict(out)

    def total_toggles(self) -> int:
        return sum(self.toggle_counts.values())
