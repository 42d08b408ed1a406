"""Object model for technology libraries (Liberty subset).

Delay model: the classic CMOS linear model --
``delay = intrinsic + resistance * load_capacitance`` -- which old
Liberty files express with ``intrinsic_rise`` / ``rise_resistance``
attributes.  Loads are in pF, delays in ns, area in um^2, leakage in uW,
internal switching energy in pJ per output toggle.

Operating corners scale every delay by a derate factor.  Like the ST
library of the paper, the shipped libraries define *best* and *worst*
conditions only (no typical corner, footnote in chapter 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from ..netlist.core import PortDirection
from .functions import compile_function, expr_inputs, parse_function


class CellKind(Enum):
    COMBINATIONAL = "combinational"
    FLIP_FLOP = "flip_flop"
    LATCH = "latch"


@dataclass
class LibraryPin:
    """One pin of a library cell."""

    name: str
    direction: PortDirection
    capacitance: float = 0.0
    function: Optional[str] = None
    is_clock: bool = False
    max_capacitance: Optional[float] = None


@dataclass
class TimingArc:
    """A pin-to-pin delay or constraint arc.

    ``timing_type`` follows liberty: ``combinational``,
    ``rising_edge`` (clk->q), ``setup_rising``, ``hold_rising``, or the
    falling variants for latches closed by a falling enable.
    """

    related_pin: str
    pin: str
    timing_type: str = "combinational"
    intrinsic_rise: float = 0.0
    intrinsic_fall: float = 0.0
    rise_resistance: float = 0.0
    fall_resistance: float = 0.0

    def delay(self, load: float, rise: bool = True) -> float:
        if rise:
            return self.intrinsic_rise + self.rise_resistance * load
        return self.intrinsic_fall + self.fall_resistance * load

    def worst_delay(self, load: float) -> float:
        return max(self.delay(load, True), self.delay(load, False))


@dataclass
class SequentialInfo:
    """The liberty ``ff``/``latch`` group of a sequential cell."""

    kind: CellKind
    state_pin: str  # internal state name, usually IQ
    next_state: Optional[str] = None  # ff: next_state; latch: data_in
    clocked_on: Optional[str] = None  # ff: clocked_on; latch: enable
    clear: Optional[str] = None  # async clear expression, e.g. "!CDN"
    preset: Optional[str] = None  # async preset expression


@dataclass
class LibraryCell:
    """One standard cell."""

    name: str
    area: float
    pins: Dict[str, LibraryPin] = field(default_factory=dict)
    arcs: List[TimingArc] = field(default_factory=list)
    sequential: Optional[SequentialInfo] = None
    leakage: float = 0.0  # uW
    switch_energy: float = 0.0  # pJ per output toggle (internal)
    dont_touch: bool = False

    @property
    def kind(self) -> CellKind:
        if self.sequential is not None:
            return self.sequential.kind
        return CellKind.COMBINATIONAL

    def input_pins(self) -> List[str]:
        return [
            p.name
            for p in self.pins.values()
            if p.direction == PortDirection.INPUT
        ]

    def output_pins(self) -> List[str]:
        return [
            p.name
            for p in self.pins.values()
            if p.direction == PortDirection.OUTPUT
        ]

    def clock_pins(self) -> List[str]:
        return [p.name for p in self.pins.values() if p.is_clock]

    def arcs_to(self, pin: str) -> List[TimingArc]:
        return [a for a in self.arcs if a.pin == pin]

    def delay_arcs(self) -> List[TimingArc]:
        return [
            a
            for a in self.arcs
            if a.timing_type in ("combinational", "rising_edge", "falling_edge")
        ]

    def compiled_function(self, pin: str):
        """Compile and cache the output function of ``pin``."""
        cache = self.__dict__.setdefault("_fn_cache", {})
        if pin not in cache:
            text = self.pins[pin].function
            if text is None:
                raise ValueError(f"pin {self.name}.{pin} has no function")
            cache[pin] = compile_function(text)
        return cache[pin]


@dataclass
class OperatingCorner:
    """A PVT corner: a global delay derate plus a voltage for power."""

    name: str
    derate: float
    voltage: float
    temperature: float = 25.0


#: the attribute a library's content fingerprint is memoised in
#: (:func:`repro.engine.cache.library_fingerprint`); ``add_cell`` drops it
FINGERPRINT_MEMO = "_engine_fingerprint"


class Library:
    """A technology library: cells plus operating corners."""

    def __init__(
        self,
        name: str,
        corners: Optional[Dict[str, OperatingCorner]] = None,
        default_wire_cap: float = 0.002,
    ):
        self.name = name
        self.cells: Dict[str, LibraryCell] = {}
        self.corners: Dict[str, OperatingCorner] = corners or {
            "best": OperatingCorner("best", 0.60, 1.10, 0.0),
            "worst": OperatingCorner("worst", 1.45, 0.90, 125.0),
        }
        #: estimated wire capacitance per fanout pin (pF), pre-layout
        self.default_wire_cap = default_wire_cap

    def add_cell(self, cell: LibraryCell) -> LibraryCell:
        self.cells[cell.name] = cell
        self.__dict__.pop(FINGERPRINT_MEMO, None)
        return cell

    def cell(self, name: str) -> LibraryCell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(f"cell {name!r} not in library {self.name!r}")

    def corner(self, name: str) -> OperatingCorner:
        try:
            return self.corners[name]
        except KeyError:
            raise KeyError(
                f"corner {name!r} not in library {self.name!r} "
                f"(available: {sorted(self.corners)})"
            )

    def cells_of_kind(self, kind: CellKind) -> List[LibraryCell]:
        return [c for c in self.cells.values() if c.kind == kind]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self.cells)} cells)"


def is_scan_cell(cell: LibraryCell) -> bool:
    """Heuristic scan detection: a FF whose next_state muxes SI with SE."""
    if cell.sequential is None or cell.sequential.kind != CellKind.FLIP_FLOP:
        return False
    next_state = cell.sequential.next_state
    if not next_state:
        return False
    inputs = expr_inputs(parse_function(next_state))
    return "SI" in inputs and "SE" in inputs
