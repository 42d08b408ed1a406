"""Core gate-level netlist object model.

The netlist is the central data structure of the desynchronization flow:
every stage (synthesis, DFT, desynchronization, placement, simulation)
reads and rewrites it.  The model is deliberately simple and scalar:

- A :class:`Module` owns :class:`Port`, :class:`Net` and :class:`Instance`
  objects.  All nets are single-bit; a Verilog vector port ``input [7:0] a``
  becomes eight scalar nets named ``a[7]`` ... ``a[0]``.
- An :class:`Instance` references a *cell* by name only.  Cell semantics
  (pin directions, function, area) live in :mod:`repro.liberty`; the
  netlist package never imports it.  Code that needs directions passes a
  *cell info provider* -- any mapping-like object with
  ``pin_direction(cell, pin)``.
- Connectivity is bidirectional: instances know their pin->net bindings
  and nets know every (instance, pin) attached to them, so both forward
  and backward traversals are O(fanout).  A net's pins form an
  insertion-ordered set (a ``dict`` with ``None`` values): attaching or
  detaching one pin is O(1) however large the fanout, and iteration
  follows connect order, which driver lookup, timing-load summation and
  enable-tree clustering rely on for reproducible output.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
)


class PortDirection(Enum):
    """Direction of a module port or cell pin."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


_BUS_RE = re.compile(r"^(?P<base>.+)\[(?P<index>\d+)\]$")


def bus_base(net_name: str) -> Optional[str]:
    """Return the bus base name of ``net_name`` or ``None`` if scalar.

    ``bus_base("data[3]") == "data"`` while ``bus_base("data_3") is None``:
    per the paper, by-name bus grouping is only possible when the synthesis
    tool has *not* collapsed ``bus[n]`` into ``bus_n`` names.
    """
    match = _BUS_RE.match(net_name)
    if match is None:
        return None
    return match.group("base")


def bus_index(net_name: str) -> Optional[int]:
    """Return the bit index of a bus member net name, or ``None``."""
    match = _BUS_RE.match(net_name)
    if match is None:
        return None
    return int(match.group("index"))


class PinRef(NamedTuple):
    """A reference to one pin of one instance (or a top-level port).

    ``instance`` is ``None`` for module port pins, in which case ``pin``
    is the port (bit) name.  A tuple, so hashing and equality run in C:
    nets key their pin sets on these.
    """

    instance: Optional[str]
    pin: str

    def __str__(self) -> str:
        if self.instance is None:
            return f"<port {self.pin}>"
        return f"{self.instance}.{self.pin}"


@dataclass
class Port:
    """A module port.  Vector ports expand to per-bit nets ``name[i]``."""

    name: str
    direction: PortDirection
    msb: Optional[int] = None
    lsb: Optional[int] = None

    @property
    def is_vector(self) -> bool:
        return self.msb is not None

    @property
    def width(self) -> int:
        if self.msb is None or self.lsb is None:
            return 1
        return abs(self.msb - self.lsb) + 1

    def bit_names(self) -> List[str]:
        """Names of the nets this port binds to, MSB first for vectors."""
        if not self.is_vector:
            return [self.name]
        step = -1 if self.msb >= self.lsb else 1
        stop = self.lsb + step
        return [f"{self.name}[{i}]" for i in range(self.msb, stop, step)]


class Net:
    """A single-bit net with bidirectional connectivity.

    ``connections`` is an insertion-ordered set of the pins on the net:
    a ``dict`` keyed by :class:`PinRef` with ``None`` values.  Iterate
    it like a list; edit it only through :class:`Module`.
    """

    __slots__ = ("name", "connections", "is_constant", "constant_value")
    name: str
    connections: Dict[PinRef, None]
    is_constant: bool
    constant_value: Optional[int]

    def __init__(self, name: str):
        self.name = name
        self.connections = {}
        self.is_constant = False
        self.constant_value = None

    def __repr__(self) -> str:
        return f"Net({self.name!r}, {len(self.connections)} pins)"


class Instance:
    """One cell (or submodule) instantiation inside a module."""

    __slots__ = ("name", "cell", "pins", "attributes")
    name: str
    cell: str
    pins: Dict[str, str]
    attributes: Dict[str, object]

    def __init__(self, name: str, cell: str):
        self.name = name
        self.cell = cell
        #: pin name -> net name
        self.pins = {}
        #: free-form annotations (e.g. ``size_only``, region id, dont_touch)
        self.attributes = {}

    def __repr__(self) -> str:
        return f"Instance({self.name!r}, cell={self.cell!r})"


class NetlistError(Exception):
    """Raised on inconsistent netlist operations."""


#: Upper bound on retained dirty-log events.  Edits between two
#: ``dirty_token`` observations almost always number in the dozens; the
#: bound only matters when a consumer holds a token across a full
#: rebuild, in which case :meth:`Module.dirty_since` degrades to ``None``
#: (meaning "everything may have changed").
_DIRTY_LOG_LIMIT = 4096

#: Sentinel event kind meaning "the whole module may have changed".
_DIRTY_ALL = "all"


@dataclass
class DirtySets:
    """What changed between two ``dirty_token`` observations.

    ``nets`` are nets whose connectivity (or classification) may have
    changed, ``cells`` are instances whose cell binding or pin set may
    have changed, and ``wires`` are nets whose wire-load annotations
    were rewritten without a connectivity change.  Consumers that only
    care about connectivity should treat ``nets | wires`` as stale --
    wire annotations change net *timing* classification even though the
    pin lists are intact.
    """

    nets: Set[str] = field(default_factory=set)
    cells: Set[str] = field(default_factory=set)
    wires: Set[str] = field(default_factory=set)

    def __bool__(self) -> bool:
        return bool(self.nets or self.cells or self.wires)


class Module:
    """A flat module: ports, nets and instances plus rewrite helpers."""

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, Port] = {}
        self.nets: Dict[str, Net] = {}
        self.instances: Dict[str, Instance] = {}
        #: ``assign lhs = rhs`` aliases kept verbatim until cleanup
        self.assigns: List[Tuple[str, str]] = []
        #: free-form module annotations (port order, region map, ...)
        self.attributes: Dict[str, object] = {}
        self._uid = 0
        #: bumped by every connectivity-changing operation; consumed by
        #: :class:`repro.netlist.index.ConnectivityIndex` for staleness
        #: checks.  Code that rewrites ``Net.connections`` directly must
        #: call :meth:`invalidate_indexes`.
        self._mutations = 0
        #: monotonic event counter behind :attr:`dirty_token`; every
        #: dirty-log record carries its sequence number.
        self._dirty_events = 0
        #: bounded event log of ``(seq, kind, name)``; kinds are
        #: ``"net"``, ``"cell"``, ``"wire"`` and the ``"all"`` sentinel.
        self._dirty_log: deque = deque(maxlen=_DIRTY_LOG_LIMIT)
        #: tokens below this are unanswerable (events fell off the log)
        self._dirty_floor = 0

    @property
    def mutation_count(self) -> int:
        """Monotonic counter of connectivity mutations."""
        return self._mutations

    @property
    def dirty_token(self) -> int:
        """Monotonic token covering *all* logged edits (connectivity,
        cell swaps and wire annotations).  Capture it, edit the module,
        then call :meth:`dirty_since` with the captured value to learn
        exactly what changed."""
        return self._dirty_events

    def _note_dirty(self, kind: str, name: str) -> None:
        self._dirty_events += 1
        log = self._dirty_log
        log.append((self._dirty_events, kind, name))
        if len(log) == _DIRTY_LOG_LIMIT:
            # oldest retained event is log[0]; anything before it is lost
            self._dirty_floor = log[0][0] - 1

    def dirty_since(self, token: int) -> Optional[DirtySets]:
        """Dirty sets accumulated since ``token`` (a past ``dirty_token``).

        Returns ``None`` when the answer is unknowable: the token
        predates the retained log window, or a whole-module event
        (``copy_from`` / ``invalidate_indexes``) happened in between.
        Callers must treat ``None`` as "everything changed".
        """
        if token >= self._dirty_events:
            return DirtySets()
        if token < self._dirty_floor:
            return None
        out = DirtySets()
        for seq, kind, name in reversed(self._dirty_log):
            if seq <= token:
                break
            if kind == _DIRTY_ALL:
                return None
            if kind == "net":
                out.nets.add(name)
            elif kind == "cell":
                out.cells.add(name)
            else:
                out.wires.add(name)
        return out

    def invalidate_indexes(self) -> None:
        """Mark derived connectivity indexes stale (manual rewrites)."""
        self._mutations += 1
        self._note_dirty(_DIRTY_ALL, "")

    def note_wire_annotation(self, nets: Iterable[str]) -> None:
        """Record that wire-load annotations of ``nets`` were rewritten.

        Logs per-net ``"wire"`` dirty events so connectivity/timing
        consumers can invalidate selectively.  Leaves
        :attr:`mutation_count` alone: the STA caches fingerprint
        annotation *content* and must not see a phantom connectivity
        mutation.
        """
        for net in nets:
            self._note_dirty("wire", net)

    def note_cell_change(self, instance: str) -> None:
        """Record that ``instance`` was re-bound to a different cell.

        The pin->net bindings are untouched but every derived view that
        classified pins through the old cell (connectivity indexes,
        timing graphs, region membership) is stale for the instance and
        the nets on its pins.  Bumps :attr:`mutation_count`.
        """
        inst = self.instances[instance]
        self._mutations += 1
        self._note_dirty("cell", instance)
        for net in inst.pins.values():
            self._note_dirty("net", net)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_port(
        self,
        name: str,
        direction: PortDirection,
        msb: Optional[int] = None,
        lsb: Optional[int] = None,
    ) -> Port:
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r} in module {self.name!r}")
        port = Port(name, direction, msb, lsb)
        self.ports[name] = port
        for bit in port.bit_names():
            net = self.ensure_net(bit)
            net.connections[PinRef(None, bit)] = None
            self._note_dirty("net", bit)
        self._mutations += 1
        return port

    def ensure_net(self, name: str) -> Net:
        """Return the net called ``name``, creating it if missing."""
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
        return net

    def add_net(self, name: str) -> Net:
        if name in self.nets:
            raise NetlistError(f"duplicate net {name!r} in module {self.name!r}")
        return self.ensure_net(name)

    def constant_net(self, value: int) -> Net:
        """Return (creating on demand) the shared tie-low / tie-high net."""
        name = f"__const{int(bool(value))}__"
        net = self.ensure_net(name)
        net.is_constant = True
        net.constant_value = int(bool(value))
        return net

    def add_instance(
        self, name: str, cell: str, pins: Optional[Dict[str, str]] = None
    ) -> Instance:
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r} in {self.name!r}")
        inst = Instance(name, cell)
        self.instances[name] = inst
        if pins:
            for pin, net in pins.items():
                self.connect(name, pin, net)
        return inst

    def new_name(self, prefix: str) -> str:
        """Generate a fresh instance/net name with the given prefix."""
        while True:
            self._uid += 1
            candidate = f"{prefix}_{self._uid}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate

    # ------------------------------------------------------------------
    # connectivity editing
    # ------------------------------------------------------------------
    def connect(self, instance: str, pin: str, net_name: str) -> None:
        """Bind ``instance.pin`` to ``net_name`` (creating the net)."""
        inst = self.instances[instance]
        if pin in inst.pins:
            self.disconnect(instance, pin)
        net = self.ensure_net(net_name)
        inst.pins[pin] = net_name
        net.connections[PinRef(instance, pin)] = None
        self._mutations += 1
        self._note_dirty("net", net_name)
        self._note_dirty("cell", instance)

    def disconnect(self, instance: str, pin: str) -> None:
        """Unbind ``instance.pin`` (a no-op when the pin is unbound)."""
        inst = self.instances[instance]
        net_name = inst.pins.get(pin)
        if net_name is None:
            return
        net = self.nets.get(net_name)
        if net is not None:
            try:
                del net.connections[PinRef(instance, pin)]
            except KeyError:
                raise NetlistError(
                    f"{instance}.{pin} is bound to net {net_name!r} but "
                    "missing from its connections"
                ) from None
        del inst.pins[pin]
        self._mutations += 1
        self._note_dirty("net", net_name)
        self._note_dirty("cell", instance)

    def remove_instance(self, name: str) -> None:
        inst = self.instances.get(name)
        if inst is None:
            return
        for pin in list(inst.pins):
            self.disconnect(name, pin)
        del self.instances[name]
        self._mutations += 1
        self._note_dirty("cell", name)

    def remove_net(self, name: str) -> None:
        net = self.nets.get(name)
        if net is None:
            return
        if net.connections:
            raise NetlistError(f"net {name!r} still has connections")
        del self.nets[name]
        self._mutations += 1
        self._note_dirty("net", name)

    def rename_net(self, old: str, new: str) -> None:
        """Rename a net, rewriting every pin binding that references it."""
        if old == new:
            return
        if new in self.nets:
            raise NetlistError(f"net {new!r} already exists")
        net = self.nets.pop(old)
        net.name = new
        self.nets[new] = net
        for ref in net.connections:
            if ref.instance is not None:
                self.instances[ref.instance].pins[ref.pin] = new
                self._note_dirty("cell", ref.instance)
        self._mutations += 1
        self._note_dirty("net", old)
        self._note_dirty("net", new)

    def merge_nets(self, keep: str, remove: str) -> None:
        """Merge net ``remove`` into ``keep`` (alias collapsing)."""
        if keep == remove:
            return
        kept = self.ensure_net(keep)
        gone = self.nets.get(remove)
        if gone is None:
            return
        for ref in list(gone.connections):
            if ref.instance is None:
                # A port bit cannot be renamed away; callers must keep the
                # port-side name instead (handled by cleanup.resolve_assigns).
                raise NetlistError(
                    f"cannot merge port net {remove!r} into {keep!r}"
                )
            inst = self.instances[ref.instance]
            inst.pins[ref.pin] = keep
            kept.connections[ref] = None
            self._note_dirty("cell", ref.instance)
        gone.connections = {}
        del self.nets[remove]
        self._mutations += 1
        self._note_dirty("net", keep)
        self._note_dirty("net", remove)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def port_bits(self, direction: Optional[PortDirection] = None) -> List[str]:
        bits: List[str] = []
        for port in self.ports.values():
            if direction is None or port.direction == direction:
                bits.extend(port.bit_names())
        return bits

    def net_of(self, instance: str, pin: str) -> Optional[str]:
        return self.instances[instance].pins.get(pin)

    def stats(self) -> Dict[str, int]:
        """Basic size statistics: instance and net counts."""
        return {"cells": len(self.instances), "nets": len(self.nets)}

    def check(self) -> List[str]:
        """Return a list of consistency problems (empty when clean)."""
        problems: List[str] = []
        for inst in self.instances.values():
            for pin, net_name in inst.pins.items():
                net = self.nets.get(net_name)
                if net is None:
                    problems.append(f"{inst.name}.{pin} -> missing net {net_name}")
                elif PinRef(inst.name, pin) not in net.connections:
                    problems.append(f"{inst.name}.{pin} not on net {net_name}")
        for net in self.nets.values():
            for ref in net.connections:
                if ref.instance is None:
                    continue
                inst = self.instances.get(ref.instance)
                if inst is None:
                    problems.append(f"net {net.name} -> missing inst {ref.instance}")
                elif inst.pins.get(ref.pin) != net.name:
                    problems.append(
                        f"net {net.name} lists {ref} but pin bound elsewhere"
                    )
        return problems

    def clone(self, name: Optional[str] = None) -> "Module":
        """Deep copy of the module (instances, nets, ports, attributes)."""
        out = Module(name or self.name)
        for port in self.ports.values():
            out.ports[port.name] = Port(
                port.name, port.direction, port.msb, port.lsb
            )
        for net in self.nets.values():
            copy_net = Net(net.name)
            copy_net.connections = dict(net.connections)
            copy_net.is_constant = net.is_constant
            copy_net.constant_value = net.constant_value
            out.nets[net.name] = copy_net
        for inst in self.instances.values():
            copy_inst = Instance(inst.name, inst.cell)
            copy_inst.pins = dict(inst.pins)
            copy_inst.attributes = dict(inst.attributes)
            out.instances[inst.name] = copy_inst
        out.assigns = list(self.assigns)
        out.attributes = {
            key: dict(value) if isinstance(value, dict) else value
            for key, value in self.attributes.items()
        }
        out._uid = self._uid
        return out

    def __reduce__(self):
        """Pickle as one flat state of containers, strings and ints.

        Nets and instances become index tables rather than a graph of
        :class:`Net`, :class:`Instance` and :class:`PinRef` objects, so
        a snapshot pickles and loads in a fraction of the time and
        bytes.  :func:`_module_from_state` rebuilds it; see
        :data:`MODULE_STATE_FORMAT` for the layout.
        """
        names = list(self.instances)
        index = {name: position for position, name in enumerate(names)}
        index[None] = -1
        ports = [
            (port.name, port.direction, port.msb, port.lsb)
            for port in self.ports.values()
        ]
        instances = [
            (inst.cell, inst.pins, inst.attributes)
            for inst in self.instances.values()
        ]
        nets = [
            (
                net.name,
                [(index[owner], pin) for owner, pin in net.connections],
                net.constant_value if net.is_constant else None,
            )
            for net in self.nets.values()
        ]
        return _module_from_state, (
            MODULE_STATE_FORMAT, self.name, ports, names, instances, nets,
            self.assigns, self.attributes, self._uid,
        )

    def copy_from(self, other: "Module") -> None:
        """Replace this module's entire contents with ``other``'s.

        Used by the flow engine to honour the tool's in-place rewrite
        contract when a run resumes from cached artifacts: the caller's
        module object adopts the cached netlist, so every reference
        held before the run stays valid.  ``other`` must not be used
        afterwards (its containers are adopted, not copied).
        """
        if other is self:
            return
        self.name = other.name
        self.ports = other.ports
        self.nets = other.nets
        self.instances = other.instances
        self.assigns = other.assigns
        self.attributes = other.attributes
        self._uid = other._uid
        self._mutations += 1
        self._note_dirty(_DIRTY_ALL, "")

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, {len(self.instances)} cells, "
            f"{len(self.nets)} nets)"
        )


#: names the layout of the state :meth:`Module.__reduce__` emits:
#: ``(format, name, ports, instance names, instances, nets, assigns,
#: attributes, uid)``.  A port is ``(name, direction, msb, lsb)``; an
#: instance ``(cell, {pin: net} in pin order, attributes)``; a net
#: ``(name, [(instance index or -1 for a port, pin), ...] in connect
#: order, constant value or None)``.  Change it with the layout (and
#: bump the engine's cache schema).
MODULE_STATE_FORMAT = "flat-1"


def _module_from_state(
    fmt, name, ports, names, instances, nets, assigns, attributes, uid
) -> Module:
    """Rebuild a pickled :class:`Module`, filling its dicts as
    :meth:`Module.clone` does; it starts with a fresh dirty log and
    counters, as a clone does."""
    if fmt != MODULE_STATE_FORMAT:
        raise NetlistError(f"unknown module state format {fmt!r}")
    module = Module(name)
    module.ports = {port[0]: Port(*port) for port in ports}
    for inst_name, (cell, pins, inst_attributes) in zip(names, instances):
        inst = Instance(inst_name, cell)
        inst.pins = pins
        inst.attributes = inst_attributes
        module.instances[inst_name] = inst
    owners = names + [None]  # index -1 is a port pin
    new_ref = tuple.__new__  # PinRef(...) without its Python-level __new__
    for net_name, pins, constant in nets:
        net = Net(net_name)
        net.connections = {
            new_ref(PinRef, (owners[owner], pin)): None
            for owner, pin in pins
        }
        if constant is not None:
            net.is_constant = True
            net.constant_value = constant
        module.nets[net_name] = net
    module.assigns = assigns
    module.attributes = attributes
    module._uid = uid
    return module


class Netlist:
    """A design: a set of modules plus the name of the top module."""

    def __init__(self, top: Optional[str] = None):
        self.modules: Dict[str, Module] = {}
        self._top = top

    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise NetlistError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        if self._top is None:
            self._top = module.name
        return module

    @property
    def top(self) -> Module:
        if self._top is None or self._top not in self.modules:
            raise NetlistError("netlist has no top module")
        return self.modules[self._top]

    def set_top(self, name: str) -> None:
        if name not in self.modules:
            raise NetlistError(f"unknown module {name!r}")
        self._top = name

    def __repr__(self) -> str:
        return f"Netlist(top={self._top!r}, {len(self.modules)} modules)"


def driver_of(
    module: Module, net_name: str, cell_info: "CellInfoProvider"
) -> Optional[PinRef]:
    """Return the pin driving ``net_name`` (an output pin or input port)."""
    net = module.nets.get(net_name)
    if net is None:
        return None
    for ref in net.connections:
        if ref.instance is None:
            port = module.ports.get(_port_of_bit(ref.pin))
            if port is not None and port.direction == PortDirection.INPUT:
                return ref
            continue
        inst = module.instances[ref.instance]
        direction = cell_info.pin_direction(inst.cell, ref.pin)
        if direction == PortDirection.OUTPUT:
            return ref
    return None


def sinks_of(
    module: Module, net_name: str, cell_info: "CellInfoProvider"
) -> List[PinRef]:
    """Return every pin reading ``net_name`` (input pins / output ports)."""
    net = module.nets.get(net_name)
    if net is None:
        return []
    out: List[PinRef] = []
    for ref in net.connections:
        if ref.instance is None:
            port = module.ports.get(_port_of_bit(ref.pin))
            if port is not None and port.direction == PortDirection.OUTPUT:
                out.append(ref)
            continue
        inst = module.instances[ref.instance]
        direction = cell_info.pin_direction(inst.cell, ref.pin)
        if direction == PortDirection.INPUT:
            out.append(ref)
    return out


def _port_of_bit(bit_name: str) -> str:
    base = bus_base(bit_name)
    return base if base is not None else bit_name


class CellInfoProvider:
    """Protocol for objects that know cell pin directions.

    The gatefile (:mod:`repro.liberty.gatefile`) is the canonical
    implementation; tests use small dict-backed stand-ins.
    """

    def pin_direction(self, cell: str, pin: str) -> PortDirection:
        """The direction of ``cell``'s ``pin``; raises a ``LookupError``
        for a cell or pin the provider does not know."""
        raise NotImplementedError
