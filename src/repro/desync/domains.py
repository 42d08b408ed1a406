"""Clock-domain analysis and partial desynchronization (future work).

Section 4.1: "Currently, the desynchronization flow supports only
single clock circuits"; chapter 6 lists multiple-clock-domain support
as future work.  This module implements it as *partial
desynchronization*:

- :func:`analyze_clock_domains` traces every flip-flop's clock pin back
  through buffers and integrated clock gates to its root port,
  partitioning the sequential elements into domains;
- ``DesyncOptions.clock_domain`` selects one domain to desynchronize.
  Its flip-flops become latch pairs under a handshake network as usual;
  the other domains keep their flip-flops and clocks untouched, and
  every signal crossing from a foreign domain into the desynchronized
  one is treated as an *environment* input (the foreign domain is
  asynchronous to the handshake network by definition -- the usual CDC
  discipline applies, exactly as in a multi-clock synchronous design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..liberty.gatefile import Gatefile
from ..netlist.core import Module, PortDirection
from ..netlist.index import ConnectivityIndex, connectivity_index


@dataclass
class ClockDomains:
    """Result of clock-domain analysis."""

    #: clock root (port bit or net) -> flip-flop instance names
    domains: Dict[str, Set[str]] = field(default_factory=dict)
    #: flip-flops whose clock could not be traced to a root
    unresolved: Set[str] = field(default_factory=set)

    @property
    def is_single(self) -> bool:
        return len(self.domains) <= 1

    def domain_of(self, instance: str) -> Optional[str]:
        for root, members in self.domains.items():
            if instance in members:
                return root
        return None


def _clock_root(
    module: Module,
    gatefile: Gatefile,
    net_name: str,
    index: ConnectivityIndex,
    port_bits: Set[str],
    max_hops: int = 50,
) -> Optional[str]:
    """Trace a clock net back to its root port (one of ``port_bits``,
    the module's input bits) through buffers/gates."""
    current = net_name
    for _ in range(max_hops):
        if current in port_bits:
            return current
        ref = index.driver_of(current)
        if ref is None:
            return current  # internally generated (e.g. divided) clock
        if ref.instance is None:
            return ref.pin
        inst = module.instances[ref.instance]
        info = gatefile.cells.get(inst.cell)
        if info is None:
            return current
        if info.is_buffer or info.is_inverter:
            current = inst.pins[info.data_inputs[0]]
            continue
        # integrated clock gate: follow the CK input
        if "GCK" in info.outputs and "CK" in inst.pins:
            current = inst.pins["CK"]
            continue
        return current  # generated clock: its net is the root
    return None


def analyze_clock_domains(module: Module, gatefile: Gatefile) -> ClockDomains:
    """Partition sequential elements by clock root."""
    result = ClockDomains()
    # every flip-flop on a clock tree re-traces the same buffer chain,
    # so the driver lookups repeat heavily
    index = connectivity_index(module, gatefile)
    port_bits = set(module.port_bits(PortDirection.INPUT))
    for name, inst in module.instances.items():
        info = gatefile.cells.get(inst.cell)
        if info is None or not info.is_sequential:
            continue
        clock_pins = info.clock_pins
        if not clock_pins:
            continue
        clock_net = inst.pins.get(clock_pins[0])
        if clock_net is None:
            result.unresolved.add(name)
            continue
        root = _clock_root(module, gatefile, clock_net, index, port_bits)
        if root is None:
            result.unresolved.add(name)
            continue
        result.domains.setdefault(root, set()).add(name)
    return result


class MultipleClockError(ValueError):
    """Raised when a multi-clock design is converted without selecting
    a domain (the paper's single-clock restriction, section 4.1)."""


def select_domain(
    domains: ClockDomains, clock_domain: Optional[str]
) -> Optional[Set[str]]:
    """Flip-flops of the selected domain; None when everything converts.

    Raises :class:`MultipleClockError` for multi-clock designs without
    an explicit selection.
    """
    # clock-gate latches trace to the same roots as their flip-flops,
    # so pure ICG pseudo-domains do not count
    real = {
        root: members for root, members in domains.domains.items() if members
    }
    if clock_domain is None:
        if len(real) > 1:
            raise MultipleClockError(
                "design has multiple clock domains "
                f"({sorted(real)}); pass DesyncOptions.clock_domain to "
                "desynchronize one of them (partial desynchronization)"
            )
        return None
    if clock_domain not in real:
        raise MultipleClockError(
            f"unknown clock domain {clock_domain!r}; available: "
            f"{sorted(real)}"
        )
    return set(real[clock_domain])
