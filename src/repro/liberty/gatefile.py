"""The *gatefile*: library knowledge distilled for the desynchronizer.

Section 3.1.1 of the paper: "The first and most important part of the
preparation is the creation of the file called gatefile which contains
information about the library cells ... name, type (flip-flop, latch,
combinational logic gate), its pins, their name and type ... In addition
the gatefile contains replacement rules used during the flip-flop
substitution phase".

:class:`Gatefile` is generated from a parsed :class:`Library` (the
paper's custom .lib-parsing script), can be serialised to/from the text
format, and implements the netlist package's ``CellInfoProvider``
protocol so connectivity queries and grouping run off it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..netlist.core import CellInfoProvider, PortDirection
from .functions import Not, Var, expr_inputs, parse_function
from .model import CellKind, Library, LibraryCell, is_scan_cell


@dataclass
class GatePin:
    name: str
    direction: PortDirection
    is_clock: bool = False


@dataclass
class GateInfo:
    """One gatefile entry: what drdesync knows about a library cell."""

    name: str
    kind: CellKind
    pins: Dict[str, GatePin] = field(default_factory=dict)
    is_buffer: bool = False
    is_inverter: bool = False
    is_scan: bool = False

    @property
    def clock_pins(self) -> List[str]:
        return [p.name for p in self.pins.values() if p.is_clock]

    @property
    def data_inputs(self) -> List[str]:
        return [
            p.name
            for p in self.pins.values()
            if p.direction == PortDirection.INPUT and not p.is_clock
        ]

    @property
    def inputs(self) -> List[str]:
        return [
            p.name
            for p in self.pins.values()
            if p.direction == PortDirection.INPUT
        ]

    @property
    def outputs(self) -> List[str]:
        return [
            p.name
            for p in self.pins.values()
            if p.direction == PortDirection.OUTPUT
        ]

    @property
    def is_sequential(self) -> bool:
        return self.kind in (CellKind.FLIP_FLOP, CellKind.LATCH)


@dataclass
class ReplacementRule:
    """How to substitute one flip-flop cell by a master/slave latch pair.

    - ``front_logic``: liberty expression over the FF's data inputs that
      must be mapped to gates in front of the master latch (Fig 3.1 a/b:
      scan muxes, synchronous set/reset gates).  ``"D"`` means a direct
      wire.
    - ``async_clear`` / ``async_preset``: assertion expressions (e.g.
      ``"!CDN"``); they require data forcing and enable gating on *both*
      latches (Fig 3.1 c).
    - ``latch_cell``: the simple latch to instantiate twice.  When the
      library has no latch the rule records a placeholder name and
      :meth:`Gatefile.missing_latches` reports it for by-hand creation.
    """

    ff_cell: str
    latch_cell: str
    front_logic: str
    output_pins: Dict[str, str] = field(default_factory=dict)  # Q/QN -> IQ/!IQ
    async_clear: Optional[str] = None
    async_preset: Optional[str] = None


class GatefileError(Exception):
    """Raised for unknown cells/pins or malformed gatefile text."""


class UnknownGateError(GatefileError, LookupError):
    """A cell or pin the gatefile does not list."""


class Gatefile(CellInfoProvider):
    """Cell classification + replacement rules, queryable by the tool."""

    def __init__(self, library_name: str = ""):
        self.library_name = library_name
        self.cells: Dict[str, GateInfo] = {}
        self.rules: Dict[str, ReplacementRule] = {}
        self._missing_latches: Set[str] = set()

    # -- CellInfoProvider ------------------------------------------------
    def pin_direction(self, cell: str, pin: str) -> PortDirection:
        info = self.cells.get(cell)
        if info is None:
            raise UnknownGateError(f"cell {cell!r} not in gatefile")
        gate_pin = info.pins.get(pin)
        if gate_pin is None:
            raise UnknownGateError(f"pin {cell}.{pin} not in gatefile")
        return gate_pin.direction

    # -- queries ----------------------------------------------------------
    def info(self, cell: str) -> GateInfo:
        try:
            return self.cells[cell]
        except KeyError:
            raise UnknownGateError(f"cell {cell!r} not in gatefile")

    def kind(self, cell: str) -> CellKind:
        return self.info(cell).kind

    def is_flip_flop(self, cell: str) -> bool:
        return self.kind(cell) == CellKind.FLIP_FLOP

    def is_latch(self, cell: str) -> bool:
        return self.kind(cell) == CellKind.LATCH

    def is_combinational(self, cell: str) -> bool:
        return self.kind(cell) == CellKind.COMBINATIONAL

    def rule_for(self, cell: str) -> ReplacementRule:
        rule = self.rules.get(cell)
        if rule is None:
            raise GatefileError(f"no replacement rule for flip-flop {cell!r}")
        return rule

    def missing_latches(self) -> Set[str]:
        """Latch cells referenced by rules but absent from the library."""
        return set(self._missing_latches)

    # -- text round-trip ---------------------------------------------------
    def to_text(self) -> str:
        lines = [f"# gatefile for library {self.library_name}"]
        for info in self.cells.values():
            flags = []
            if info.is_buffer:
                flags.append("buffer")
            if info.is_inverter:
                flags.append("inverter")
            if info.is_scan:
                flags.append("scan")
            suffix = (" " + " ".join(flags)) if flags else ""
            lines.append(f"cell {info.name} {info.kind.value}{suffix}")
            for pin in info.pins.values():
                role = "clock" if pin.is_clock else pin.direction.value
                lines.append(f"  pin {pin.name} {role}")
            rule = self.rules.get(info.name)
            if rule is not None:
                lines.append(
                    f"  replace latch={rule.latch_cell} "
                    f'front="{rule.front_logic}" '
                    f'clear="{rule.async_clear or ""}" '
                    f'preset="{rule.async_preset or ""}" '
                    + " ".join(
                        f"{out}={fn}" for out, fn in rule.output_pins.items()
                    )
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Gatefile":
        gatefile = cls()
        current: Optional[GateInfo] = None
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                if line.startswith("# gatefile for library"):
                    gatefile.library_name = line.split()[-1]
                continue
            parts = line.split()
            if parts[0] == "cell":
                current = GateInfo(parts[1], CellKind(parts[2]))
                current.is_buffer = "buffer" in parts[3:]
                current.is_inverter = "inverter" in parts[3:]
                current.is_scan = "scan" in parts[3:]
                gatefile.cells[current.name] = current
            elif parts[0] == "pin":
                if current is None:
                    raise GatefileError("pin line outside cell block")
                role = parts[2]
                is_clock = role == "clock"
                direction = (
                    PortDirection.INPUT if is_clock else PortDirection(role)
                )
                current.pins[parts[1]] = GatePin(parts[1], direction, is_clock)
            elif parts[0] == "replace":
                if current is None:
                    raise GatefileError("replace line outside cell block")
                pairs = re.findall(r'(\w+)=("[^"]*"|\S+)', line[len("replace") :])
                fields = {key: value for key, value in pairs}
                outputs = {
                    key: value.strip('"')
                    for key, value in fields.items()
                    if key not in ("latch", "front", "clear", "preset")
                }
                gatefile.rules[current.name] = ReplacementRule(
                    ff_cell=current.name,
                    latch_cell=fields["latch"],
                    front_logic=fields["front"].strip('"'),
                    output_pins=outputs,
                    async_clear=fields.get("clear", "").strip('"') or None,
                    async_preset=fields.get("preset", "").strip('"') or None,
                )
            else:
                raise GatefileError(f"bad gatefile line: {raw_line!r}")
        return gatefile


def _classify_buffer_inverter(cell: LibraryCell) -> Tuple[bool, bool]:
    outs = cell.output_pins()
    ins = cell.input_pins()
    if cell.kind != CellKind.COMBINATIONAL or len(outs) != 1 or len(ins) != 1:
        return False, False
    function = cell.pins[outs[0]].function
    if function is None:
        return False, False
    expr = parse_function(function)
    if isinstance(expr, Var) and expr.name == ins[0]:
        return True, False
    if (
        isinstance(expr, Not)
        and isinstance(expr.arg, Var)
        and expr.arg.name == ins[0]
    ):
        return False, True
    return False, False


def _pick_latch(library: Library) -> Tuple[str, bool]:
    """Choose the simplest transparent latch; report if it must be created."""
    candidates = []
    for cell in library.cells_of_kind(CellKind.LATCH):
        seq = cell.sequential
        assert seq is not None
        # the simplest possible latch: plain enable, plain data, no async
        if seq.clear or seq.preset:
            continue
        if seq.clocked_on and seq.clocked_on.strip().startswith("!"):
            continue  # an inverted-enable latch (e.g. clock-gate) won't do
        if seq.next_state and seq.next_state.strip() in cell.pins:
            candidates.append(cell)
    if not candidates:
        return "GEN_LATCH", True
    best = min(candidates, key=lambda c: c.area)
    return best.name, False


def build_gatefile(library: Library) -> Gatefile:
    """Generate the gatefile from a parsed library (paper section 3.1.1)."""
    gatefile = Gatefile(library.name)
    latch_cell, latch_missing = _pick_latch(library)
    for cell in library.cells.values():
        info = GateInfo(cell.name, cell.kind)
        for pin in cell.pins.values():
            info.pins[pin.name] = GatePin(pin.name, pin.direction, pin.is_clock)
        info.is_buffer, info.is_inverter = _classify_buffer_inverter(cell)
        info.is_scan = is_scan_cell(cell)
        gatefile.cells[cell.name] = info

        if cell.kind == CellKind.FLIP_FLOP:
            seq = cell.sequential
            assert seq is not None
            outputs: Dict[str, str] = {}
            for out in cell.output_pins():
                function = cell.pins[out].function or seq.state_pin
                outputs[out] = function
            gatefile.rules[cell.name] = ReplacementRule(
                ff_cell=cell.name,
                latch_cell=latch_cell,
                front_logic=seq.next_state or "D",
                output_pins=outputs,
                async_clear=seq.clear,
                async_preset=seq.preset,
            )
            if latch_missing:
                gatefile._missing_latches.add(latch_cell)
    return gatefile
