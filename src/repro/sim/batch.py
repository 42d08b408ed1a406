"""Bit-parallel lane simulator: one sweep services a whole MC batch.

The Monte-Carlo variability study (fig 5.4) needs gate-level evidence,
but simulating thousands of chips one at a time is unaffordable even on
the compiled event kernel.  This module packs ``lanes`` chips into the
bit positions of Python's arbitrary-width ints: every net carries a
*two-plane* encoding -- a value plane and an x plane, one bit per lane,
with the invariant ``value & x == 0`` -- and every cell evaluation is a
handful of bitwise ops produced by the lane codegen tier in
:mod:`repro.liberty.functions`.  Evaluating 64 chips therefore costs
about the same as evaluating one.

The kernel is *cycle-based* rather than event-driven: the combinational
cloud is levelized once through :meth:`ConnectivityIndex.topo_order`
(sequential elements are the sources), so settling a clock phase is a
single ordered sweep over the dirty subset, and FF/latch state machines
run vectorized under lane masks (reset, enable and clock are plane
pairs, so one machine evaluation can simultaneously clock some lanes,
hold others in reset and leave the rest idle).

Semantics match the event kernel for clocked designs driven through
:class:`~repro.sim.testbench.SyncTestbench`: stimulus settles before the
rising edge, all flip-flops sample their pre-edge data cone (machine
evaluation is two-pass: every machine reads its inputs before any
output commits), and captured sequences are bit-identical to a solo
:class:`~repro.sim.simulator.Simulator` run of the same chip -- the
per-chip compiled kernel stays the parity oracle, enforced by
:func:`assert_lane_parity` in tests and the MC-throughput benchmark.

One documented divergence: while an asynchronous clear/preset is held,
the event kernel records a capture per *event* that re-evaluates the
machine (including data-cone ripples), whereas the batch kernel records
one per *phase boundary* whose trigger planes changed.  Async lanes are
therefore compared on state trajectories, not capture counts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..liberty.functions import (
    compile_function_lanes_indexed,
    pack_lanes,
    unpack_lane,
)
from ..liberty.model import CellKind, Library
from ..netlist.core import Module, PortDirection
from ..netlist.index import connectivity_index
from ..obs import metrics, prof
from .simulator import SimulationError, Simulator, Value

#: a (value plane, x plane) pair
Planes = Tuple[int, int]


class _LibraryCellInfo:
    """Adapt a :class:`Library` to the ``CellInfoProvider`` protocol.

    ``ConnectivityIndex`` classifies pins through ``pin_direction``;
    the gate-level netlist file implements it, a bare :class:`Library`
    does not, so the batch simulator bridges the two.  Adapters of one
    library compare equal, so the one built per simulator shares the
    module's memoised index.
    """

    __slots__ = ("library",)

    def __init__(self, library: Library):
        self.library = library

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _LibraryCellInfo)
            and other.library is self.library
        )

    def __hash__(self) -> int:
        return id(self.library)

    def pin_direction(self, cell: str, pin: str) -> Optional[PortDirection]:
        library_cell = self.library.cells.get(cell)
        if library_cell is None:
            return None
        library_pin = library_cell.pins.get(pin)
        return library_pin.direction if library_pin is not None else None


def _cell_lane_data(cell) -> dict:
    """Per-cell-type lane-kernel data, cached on the cell itself.

    Same discipline as the event kernel's ``_cell_kernel_data``: slot
    layout and compiled lane evaluators depend only on the library cell,
    so every instance -- across every batch simulator a study builds --
    shares one entry under the ``"lanes"`` key of the cell's
    ``_sim_kernel_cache``.
    """
    cache = cell.__dict__.setdefault("_sim_kernel_cache", {})
    data = cache.get("lanes")
    if data is not None:
        return data
    seq = cell.sequential
    state_pin = seq.state_pin if seq is not None else "IQ"
    slots = tuple(sorted(set(cell.pins) | {state_pin}))
    slot_index = {pin: i for i, pin in enumerate(slots)}
    out_specs = []
    for pin in cell.output_pins():
        function = cell.pins[pin].function
        if function is not None:
            out_specs.append((pin, compile_function_lanes_indexed(function, slots)))
    if seq is not None:
        seq_fns = tuple(
            compile_function_lanes_indexed(text, slots) if text else None
            for text in (seq.next_state, seq.clocked_on, seq.clear, seq.preset)
        )
    else:
        seq_fns = (None, None, None, None)
    trigger_pins = set()
    for fn in seq_fns[1:]:
        if fn is not None:
            trigger_pins |= fn.inputs  # type: ignore[attr-defined]
    data = {
        "state_pin": state_pin,
        "slots": slots,
        "slot_index": slot_index,
        "state_base": 2 * slot_index[state_pin],
        "out_specs": tuple(out_specs),
        "seq_fns": seq_fns,
        "trigger_pins": frozenset(trigger_pins),
        "drive_data": any(
            fn.inputs - {state_pin}  # type: ignore[attr-defined]
            for _, fn in out_specs
        ),
        "input_pins": tuple(cell.input_pins()),
        "is_ff": cell.kind == CellKind.FLIP_FLOP,
        "is_latch": cell.kind == CellKind.LATCH,
    }
    cache["lanes"] = data
    return data


class _LaneModel:
    """Pre-compiled lane behaviour of one instance."""

    __slots__ = (
        "name",
        "is_ff",
        "is_latch",
        "dirty",
        "trig_dirty",
        "data_dirty",
        "env",
        "outputs",
        "state_base",
        "prev_clock",
        "captures",
        "seq_next",
        "seq_clock",
        "seq_clear",
        "seq_preset",
        "drive_data",
    )

    def __init__(self, name: str):
        self.name = name
        self.is_ff = False
        self.is_latch = False
        #: combinational/latch re-evaluation pending (an input committed)
        self.dirty = False
        #: a trigger net (clock / clear / preset cone) committed
        self.trig_dirty = False
        #: a non-trigger input committed on a ``drive_data`` sequential
        self.data_dirty = False
        #: flat plane list: slot ``k``'s value plane at ``2k``, x at ``2k+1``
        self.env: List[int] = []
        #: (lane evaluator, output net record) drive list
        self.outputs: List[Tuple[Callable, list]] = []
        self.state_base = 0
        #: previous clock/enable planes; the simulator re-initializes
        #: this to all-lanes-X (the event kernel's ``prev_clock = None``)
        self.prev_clock: Planes = (0, 0)
        #: capture log: (lane mask, value plane, x plane) per event
        self.captures: List[Tuple[int, int, int]] = []
        self.seq_next = None
        self.seq_clock = None
        self.seq_clear = None
        self.seq_preset = None
        self.drive_data = False


class _LaneValuesView:
    """Read-only ``net_values``-style mapping decoding one lane.

    Lets reactive stimulus closures written against the event
    simulator's ``sim.net_values.get(net)`` API drive a batch run
    unchanged -- under broadcast stimulus every lane sees the same
    values, so decoding lane 0 is representative.
    """

    __slots__ = ("_sim", "lane")

    def __init__(self, sim: "BatchSimulator", lane: int = 0):
        self._sim = sim
        self.lane = lane

    def get(self, net: str, default: Value = None) -> Value:
        rec = self._sim._net_rec.get(net)
        if rec is None:
            return default
        return unpack_lane((rec[0], rec[1]), self.lane)

    def __getitem__(self, net: str) -> Value:
        rec = self._sim._net_rec.get(net)
        if rec is None:
            raise KeyError(net)
        return unpack_lane((rec[0], rec[1]), self.lane)

    def __contains__(self, net: str) -> bool:
        return net in self._sim._net_rec

    def __iter__(self):
        return iter(self._sim._net_rec)

    def __len__(self) -> int:
        return len(self._sim._net_rec)


class BatchSimulator:
    """Cycle-based functional simulator evaluating ``lanes`` chips at once.

    Drop-in enough for :class:`SyncTestbench` (which detects the
    ``is_batch`` marker) and :func:`initialize_registers`.  Inputs can
    be broadcast (a scalar 0/1/None reaches every lane) or per-lane (a
    sequence of ``lanes`` scalars); captures are read back per lane
    through :meth:`capture_sequences` and compared against solo event
    -kernel runs by :func:`assert_lane_parity`.
    """

    #: duck-typing marker SyncTestbench uses to pick the batch path
    is_batch = True

    def __init__(
        self,
        module: Module,
        library: Library,
        lanes: int = 64,
    ):
        if lanes < 1:
            raise SimulationError("lane count must be >= 1")
        self.module = module
        self.library = library
        self.lanes = lanes
        #: full lane mask: bit i = lane i
        self.mask = (1 << lanes) - 1
        #: untimed kernel; kept for stimulus-closure compatibility
        self.now = 0.0
        self.cycles = 0
        self.cell_evals = 0
        self.seq_evals = 0
        self.commits = 0
        self._models: Dict[str, _LaneModel] = {}
        #: net -> record ``[value plane, x plane, bindings, fans, name]``
        self._net_rec: Dict[str, list] = {}

        mask = self.mask
        for net_name, net in module.nets.items():
            if net.is_constant:
                value = mask if net.constant_value else 0
                self._net_rec[net_name] = [value, 0, [], [], net_name]
            else:
                self._net_rec[net_name] = [0, mask, [], [], net_name]

        net_rec = self._net_rec
        drivers: Dict[str, str] = {}
        comb_models: Dict[str, _LaneModel] = {}
        self._ffs: List[_LaneModel] = []
        self._latches: List[_LaneModel] = []
        for inst in module.instances.values():
            cell = library.cells.get(inst.cell)
            if cell is None:
                raise SimulationError(
                    f"cell {inst.cell!r} of {inst.name!r} not in library"
                )
            data = _cell_lane_data(cell)
            model = _LaneModel(inst.name)
            model.prev_clock = (0, mask)
            model.is_ff = data["is_ff"]
            model.is_latch = data["is_latch"]
            is_seq = model.is_ff or model.is_latch
            state_pin = data["state_pin"]
            model.state_base = data["state_base"]
            (
                model.seq_next,
                model.seq_clock,
                model.seq_clear,
                model.seq_preset,
            ) = data["seq_fns"]
            model.drive_data = data["drive_data"]
            inst_pins = inst.pins
            for pin, fn in data["out_specs"]:
                net = inst_pins.get(pin)
                if net is None:
                    continue
                previous = drivers.get(net)
                if previous is not None:
                    raise SimulationError(
                        f"net {net!r} driven by both {previous!r} and "
                        f"{inst.name!r}: the batch kernel has no event "
                        "ordering to resolve multiple drivers"
                    )
                drivers[net] = inst.name
                model.outputs.append((fn, net_rec[net]))
            trigger_pins = data["trigger_pins"]
            for pin in data["input_pins"]:
                net = inst_pins.get(pin)
                if net is None:
                    continue
                fans = net_rec[net][3]
                if not is_seq:
                    entry = (model, 0)
                elif pin in trigger_pins:
                    entry = (model, 1)
                elif model.is_latch or model.drive_data:
                    entry = (model, 2)
                else:
                    continue  # a plain FF data pin is read lazily at the edge
                if entry not in fans:
                    fans.append(entry)
            slot_index = data["slot_index"]
            env = [0, mask] * len(data["slots"])
            for pin, net in inst_pins.items():
                index = slot_index.get(pin)
                if index is None:
                    continue
                base = 2 * index
                rec = net_rec[net]
                env[base] = rec[0]
                env[base + 1] = rec[1]
                if is_seq and pin == state_pin:
                    continue  # the state planes always win
                rec[2].append((env, base))
            model.env = env
            self._models[inst.name] = model
            if model.is_ff:
                self._ffs.append(model)
            elif model.is_latch:
                self._latches.append(model)
            else:
                comb_models[inst.name] = model

        sources = [name for name, m in self._models.items() if name not in comb_models]
        index = connectivity_index(module, _LibraryCellInfo(library))
        try:
            order = index.topo_order(sources)
        except ValueError as exc:
            raise SimulationError(str(exc)) from exc
        self._comb_order: List[_LaneModel] = [comb_models[name] for name in order]
        #: lane-0 decoded view for reactive stimulus closures
        self.net_values = _LaneValuesView(self, lane=0)
        metrics.counter("sim.batch.built").inc()

    # ------------------------------------------------------------------
    # plane plumbing
    # ------------------------------------------------------------------
    def _planes_of(self, value) -> Planes:
        """Broadcast a scalar or pack a per-lane sequence into planes."""
        if isinstance(value, (list, tuple)):
            if len(value) != self.lanes:
                raise SimulationError(
                    f"per-lane value has {len(value)} entries, "
                    f"simulator has {self.lanes} lanes"
                )
            return pack_lanes(value)
        if value is None:
            return (0, self.mask)
        return (self.mask if value else 0, 0)

    def _commit(self, rec: list, value_plane: int, x_plane: int) -> bool:
        """Write planes to a net record, patch bound envs, mark fanout."""
        if rec[0] == value_plane and rec[1] == x_plane:
            return False
        rec[0] = value_plane
        rec[1] = x_plane
        for env, base in rec[2]:
            env[base] = value_plane
            env[base + 1] = x_plane
        for model, mode in rec[3]:
            if mode == 0:
                model.dirty = True
            elif mode == 1:
                model.trig_dirty = True
                model.dirty = True  # latches re-run their machine too
            else:
                model.data_dirty = True
                model.dirty = True
        self.commits += 1
        return True

    def _drive(self, model: _LaneModel) -> bool:
        """Evaluate the model's output functions and commit the planes."""
        changed = False
        env = model.env
        mask = self.mask
        commit = self._commit
        for fn, rec in model.outputs:
            value_plane, x_plane = fn(env, mask)
            if commit(rec, value_plane, x_plane):
                changed = True
        return changed

    # ------------------------------------------------------------------
    # public state / stimulus API (initialize_registers-compatible)
    # ------------------------------------------------------------------
    def set_input(self, port_bit: str, value, at: Optional[float] = None) -> None:
        """Drive a primary input: scalar broadcast or per-lane sequence.

        ``at`` is accepted (and ignored) for stimulus-closure
        compatibility with the event simulator -- the batch kernel is
        untimed, inputs take effect at the next phase boundary.
        """
        rec = self._net_rec.get(port_bit)
        if rec is None:
            raise SimulationError(f"unknown input net {port_bit!r}")
        value_plane, x_plane = self._planes_of(value)
        self._commit(rec, value_plane, x_plane)

    def set_state(self, instance: str, value) -> None:
        """Force a sequential element's state in every lane (reset init)."""
        model = self._models[instance]
        if not (model.is_ff or model.is_latch):
            raise SimulationError(f"{instance!r} is not sequential")
        value_plane, x_plane = self._planes_of(value)
        base = model.state_base
        model.env[base] = value_plane
        model.env[base + 1] = x_plane
        self._drive(model)

    def value(self, net: str, lane: int = 0) -> Value:
        rec = self._net_rec[net]
        return unpack_lane((rec[0], rec[1]), lane)

    def bus_value(self, bits: Sequence[str], lane: int = 0) -> Optional[int]:
        """Integer value of an LSB-first bit list, None if any bit is X."""
        out = 0
        for position, bit in enumerate(bits):
            value = self.value(bit, lane)
            if value is None:
                return None
            out |= value << position
        return out

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _sweep_comb(self) -> None:
        """One levelized pass: the cloud is acyclic, so this is a fixpoint."""
        evals = 0
        for model in self._comb_order:
            if model.dirty:
                model.dirty = False
                self._drive(model)
                evals += 1
        self.cell_evals += evals

    def _settle(self) -> None:
        """Comb sweep plus latch machines until nothing moves."""
        for _ in range(len(self._latches) + 8):
            self._sweep_comb()
            moved = False
            for model in self._latches:
                if model.dirty or model.trig_dirty or model.data_dirty:
                    model.dirty = model.trig_dirty = model.data_dirty = False
                    if self._eval_latch(model):
                        moved = True
            if not moved:
                return
        raise SimulationError("latch network failed to settle (oscillation?)")

    def _eval_latch(self, model: _LaneModel) -> bool:
        """Vectorized latch machine: per-lane transparency under masks."""
        self.seq_evals += 1
        env = model.env
        mask = self.mask
        clear = model.seq_clear(env, mask)[0] if model.seq_clear else 0
        preset = model.seq_preset(env, mask)[0] if model.seq_preset else 0
        preset &= ~clear
        if model.seq_clock is not None:
            enable_v, enable_x = model.seq_clock(env, mask)
        else:
            enable_v, enable_x = mask, 0
        normal = mask & ~(clear | preset)
        transparent = enable_v & normal
        to_x = enable_x & normal
        prev_v, prev_x = model.prev_clock
        closing = normal & prev_v & mask & ~(enable_v | enable_x)
        if model.seq_next is not None:
            next_v, next_x = model.seq_next(env, mask)
        else:
            next_v, next_x = 0, mask
        base = model.state_base
        state_v, state_x = env[base], env[base + 1]
        keep = mask & ~(clear | preset | transparent | to_x)
        new_v = (state_v & keep) | preset | (next_v & transparent)
        new_x = (state_x & keep) | to_x | (next_x & transparent)
        env[base] = new_v
        env[base + 1] = new_x
        if closing:
            # closing edge: the value just latched is the capture; async
            # clear/preset lanes record nothing (event-kernel semantics)
            model.captures.append((closing, new_v & closing, new_x & closing))
        # async lanes hold their previous enable view (the event kernel's
        # latch machine returns before updating prev_clock on clear/preset)
        held = clear | preset
        model.prev_clock = (
            (prev_v & held) | (enable_v & normal),
            (prev_x & held) | (enable_x & normal),
        )
        return self._drive(model)

    def _eval_ff_machine(self, model: _LaneModel) -> None:
        """Vectorized FF machine: clock some lanes, reset others, at once.

        Reads the pre-edge env and updates only the private state slot;
        outputs are driven in a second pass so every machine samples
        its data cone before any Q commits (the event kernel gets the
        same guarantee from output delays).
        """
        self.seq_evals += 1
        env = model.env
        mask = self.mask
        clear = model.seq_clear(env, mask)[0] if model.seq_clear else 0
        preset = model.seq_preset(env, mask)[0] if model.seq_preset else 0
        preset &= ~clear
        if model.seq_clock is not None:
            clock_v, clock_x = model.seq_clock(env, mask)
        else:
            clock_v, clock_x = 0, mask
        normal = mask & ~(clear | preset)
        prev_v, prev_x = model.prev_clock
        was_low = mask & ~(prev_v | prev_x)
        rising = was_low & clock_v & normal
        # unknown -> 1 transition: state becomes unknown, no capture
        to_x = prev_x & clock_v & normal
        if rising and model.seq_next is not None:
            next_v, next_x = model.seq_next(env, mask)
        else:
            next_v, next_x = 0, mask
        base = model.state_base
        state_v, state_x = env[base], env[base + 1]
        keep = mask & ~(clear | preset | rising | to_x)
        new_v = (state_v & keep) | preset | (next_v & rising)
        new_x = (state_x & keep) | to_x | (next_x & rising)
        env[base] = new_v
        env[base + 1] = new_x
        captured = clear | preset | rising
        if captured:
            model.captures.append((captured, new_v & captured, new_x & captured))
        model.prev_clock = (clock_v, clock_x)

    def _eval_ffs(self) -> bool:
        """Run pending FF machines (pass 1), then drive outputs (pass 2)."""
        pending: List[_LaneModel] = []
        redrive: List[_LaneModel] = []
        for model in self._ffs:
            if model.trig_dirty:
                model.trig_dirty = model.data_dirty = model.dirty = False
                pending.append(model)
            elif model.data_dirty:
                model.data_dirty = model.dirty = False
                redrive.append(model)
        for model in pending:
            self._eval_ff_machine(model)
        for model in pending:
            self._drive(model)
        for model in redrive:
            self._drive(model)
        return bool(pending or redrive)

    def _phase(self) -> None:
        """Settle one clock phase, iterating for rippled/gated clocks."""
        for _ in range(len(self._ffs) + 4):
            self._settle()
            if not self._eval_ffs():
                return
        raise SimulationError("clock network failed to settle (ripple loop?)")

    def step_cycle(
        self,
        inputs: Optional[Dict[str, object]] = None,
        clock: str = "clk",
    ) -> None:
        """One full clock cycle: stimulus, rising edge, falling edge.

        Matches the :class:`SyncTestbench` schedule -- inputs settle
        while the clock is low, every FF samples at the rising edge,
        the falling phase serves gated clocks and transparent latches.
        """
        for port, value in (inputs or {}).items():
            self.set_input(port, value)
        self._phase()
        self.set_input(clock, 1)
        self._phase()
        self.set_input(clock, 0)
        self._phase()
        self.cycles += 1
        self.now = float(self.cycles)
        metrics.counter("sim.batch.cycles").inc()
        if prof.enabled():
            # cumulative kernel counters max-merge to their latest
            # value; lane occupancy is live lanes over lane capacity
            prof.add_counters(batch_cycles=1)
            prof.peak_counters(
                batch_cell_evals=self.cell_evals,
                batch_seq_evals=self.seq_evals,
                batch_commits=self.commits,
                batch_lanes=self.lanes,
                batch_lane_occupancy=round(
                    bin(self.mask).count("1") / max(1, self.lanes), 4
                ),
            )

    # ------------------------------------------------------------------
    # capture readback
    # ------------------------------------------------------------------
    def capture_planes(self) -> Dict[str, List[Tuple[int, int, int]]]:
        """Raw per-instance capture log: (lane mask, value, x) tuples."""
        return {
            model.name: list(model.captures)
            for model in self._models.values()
            if model.captures
        }

    def capture_sequences(self, lane: int = 0) -> Dict[str, List[Value]]:
        """One lane's captured data sequences per sequential instance.

        Same shape as :meth:`Simulator.capture_sequences`, so a lane can
        be diffed 1:1 against a solo event-kernel run of that chip.
        """
        bit = 1 << lane
        out: Dict[str, List[Value]] = {}
        for model in self._models.values():
            sequence: List[Value] = []
            for mask, value_plane, x_plane in model.captures:
                if mask & bit:
                    if x_plane & bit:
                        sequence.append(None)
                    else:
                        sequence.append(1 if value_plane & bit else 0)
            if sequence:
                out[model.name] = sequence
        return out

    def stats(self) -> Dict[str, int]:
        return {
            "lanes": self.lanes,
            "cycles": self.cycles,
            "cell_evals": self.cell_evals,
            "seq_evals": self.seq_evals,
            "commits": self.commits,
        }


# ----------------------------------------------------------------------
# parity oracle helpers
# ----------------------------------------------------------------------
def solo_capture_sequences(
    module: Module,
    library: Library,
    cycles: int,
    stimulus_factory: Optional[Callable] = None,
    clock: str = "clk",
    period: float = 20.0,
    corner: str = "worst",
    derate_map: Optional[Dict[str, float]] = None,
    kernel: str = "compiled",
) -> Dict[str, List[Value]]:
    """Captured sequences of one chip on the per-chip event kernel.

    ``stimulus_factory(sim)`` may build a reactive stimulus closure
    against the simulator (the DLX memory responder does); the same
    factory drives the batch run, so oracle and subject see identical
    stimulus.  ``derate_map`` carries the chip's instance delay factors
    -- with an adequate period they change timing, never function,
    which is exactly what lane parity demonstrates.

    Registers start at 0 here (``initialize_registers``); a hand-built
    :class:`BatchSimulator` compared against this oracle must be
    initialized the same way -- ``batch_capture_run`` already is.
    """
    from .testbench import SyncTestbench, initialize_registers

    sim = Simulator(
        module, library, corner=corner, derate_map=derate_map, kernel=kernel
    )
    initialize_registers(sim, 0)
    bench = SyncTestbench(sim, clock=clock, period=period)
    stimulus = stimulus_factory(sim) if stimulus_factory is not None else None
    bench.run_cycles(cycles, stimulus)
    return sim.capture_sequences()


def batch_capture_run(
    module: Module,
    library: Library,
    cycles: int,
    lanes: int = 64,
    stimulus_factory: Optional[Callable] = None,
    clock: str = "clk",
) -> BatchSimulator:
    """Run one lane-batched testbench pass and return the simulator."""
    from .testbench import SyncTestbench, initialize_registers

    sim = BatchSimulator(module, library, lanes=lanes)
    initialize_registers(sim, 0)
    bench = SyncTestbench(sim, clock=clock)
    stimulus = stimulus_factory(sim) if stimulus_factory is not None else None
    bench.run_cycles(cycles, stimulus)
    return sim


def assert_lane_parity(
    batch: BatchSimulator,
    lane: int,
    solo_sequences: Dict[str, List[Value]],
) -> None:
    """Raise unless a lane's captures are bit-identical to a solo run."""
    mine = batch.capture_sequences(lane)
    if mine == solo_sequences:
        return
    for name in sorted(set(mine) | set(solo_sequences)):
        if mine.get(name) != solo_sequences.get(name):
            raise SimulationError(
                f"lane {lane} parity mismatch at {name!r}: "
                f"batch={mine.get(name)!r} solo={solo_sequences.get(name)!r}"
            )
    raise SimulationError(f"lane {lane} parity mismatch")  # pragma: no cover
