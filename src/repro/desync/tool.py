"""``drdesync`` -- the desynchronization tool driver (chapter 3).

Runs the conversion as the sequence of steps of section 3.2:

1. design import (name cleaning, assign resolution),
2. automatic region creation (or manual / single-region),
3. flip-flop substitution,
4. data-dependency graph construction,
5. delay-element creation (STA-characterised ladder),
6. control-network insertion,
7. design export (Verilog or BLIF) plus physical timing constraints.

The whole tool is pure netlist-to-netlist: it consumes a post-synthesis
(optionally post-DFT) gate-level design and produces the desynchronized
netlist, ready for the backend, exactly like the paper's C tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..liberty.gatefile import Gatefile, build_gatefile
from ..liberty.model import Library
from ..liberty.techmap import GateChooser
from ..netlist.core import Module
from ..netlist.verilog import write_module
from ..netlist.blif import write_blif_module
from ..sta.sdc import SdcFile
from .constraints import disables_for_sta
from .controllers import ensure_controller_cell
from .delays import DelayLadder, characterize_ladder
from .ffsub import SubstitutionResult
from .network import ControlNetwork
from .regions import RegionMap


@dataclass
class DesyncOptions:
    """Tool options (the paper's command-line switches)."""

    #: "auto" (grouping algorithm), "single" (ARM case) or "manual"
    grouping: str = "auto"
    #: manual instance -> region assignment (grouping == "manual")
    manual_assignment: Dict[str, str] = field(default_factory=dict)
    #: net names to ignore during grouping (false paths, section 3.2.2)
    false_path_nets: Tuple[str, ...] = ()
    #: logic cleaning before grouping (buffer / inverter-pair removal)
    clean: bool = True
    #: delay-element safety margin over the region critical path
    delay_margin: float = 0.10
    #: 0 = fixed-length delay elements; >1 = multiplexed taps (DLX used 8)
    delay_mux_taps: int = 0
    #: full-chain headroom factor for multiplexed elements, so the
    #: selection axis straddles the matched point (Figure 5.3)
    delay_mux_headroom: float = 2.2
    #: analysis corner used for delay matching
    corner: str = "worst"
    #: reset port name added to the design
    reset_port: str = "rst"
    #: clock period for the generated ClkM/ClkS constraints (ns); when
    #: None it is derived from the synchronous critical path
    clock_period: Optional[float] = None
    #: for multi-clock designs: desynchronize only this clock domain
    #: (partial desynchronization, chapter 6 future work); other
    #: domains keep their flip-flops and clocks
    clock_domain: Optional[str] = None


@dataclass
class DesyncResult:
    """Everything the tool produced."""

    module: Module
    gatefile: Gatefile
    region_map: RegionMap
    ddg: "nx.DiGraph"
    substitution: SubstitutionResult
    network: ControlNetwork
    ladder: DelayLadder
    sdc: SdcFile
    import_stats: Dict[str, int] = field(default_factory=dict)

    def sta_disables(self):
        """Timing disables for repro.sta analyses of the result."""
        return disables_for_sta(self.network, self.module)

    def export_verilog(self) -> str:
        return write_module(self.module)

    def export_blif(self) -> str:
        return write_blif_module(self.module)

    def export_sdc(self) -> str:
        return self.sdc.to_text()

    def summary(self) -> Dict[str, object]:
        return {
            "regions": len(self.region_map),
            "flip_flops_replaced": self.substitution.replaced,
            "controllers": len(self.network.controllers),
            "delay_elements": len(self.network.delay_elements),
            "cells": len(self.module.instances),
            "nets": len(self.module.nets),
        }


#: the artifacts :meth:`Drdesync.assemble_result` reads, and the only
#: ones it can read; the flows hand them to ``FlowEngine.run(load=...)``
#: so an unloadable cache entry among them is recomputed there
RESULT_ARTIFACTS = (
    "module.network",
    "import_stats",
    "clean_stats",
    "ladder",
    "region_map.ffsub",
    "ddg",
    "substitution",
    "network",
    "sdc",
)


class Drdesync:
    """The desynchronization tool.

    One instance binds a technology library (gatefile generated on
    construction -- the library-preparation phase of section 3.1);
    :meth:`run` desynchronizes one design by executing the section 3.2
    stage graph on a :class:`repro.engine.executor.FlowEngine`.  The
    default engine is serial and uncached (identical behaviour to the
    historical monolithic driver); passing an engine with an artifact
    cache and/or ``jobs > 1`` makes repeat conversions resume from the
    cached stage prefix and characterises the delay ladder in parallel
    with the netlist stages.
    """

    def __init__(
        self,
        library: Library,
        ladder: Optional[DelayLadder] = None,
        corner: str = "worst",
        max_delay_levels: int = 240,
        engine: Optional["FlowEngine"] = None,
    ):
        from ..engine.executor import FlowEngine

        self.library = library
        ensure_controller_cell(library)
        self.gatefile = build_gatefile(library)
        self.chooser = GateChooser(library)
        self.corner = corner
        # the paper characterises 1..100 levels; larger designs with
        # register-file read + ALU clouds need a longer ladder
        self.max_delay_levels = max_delay_levels
        self.engine = engine or FlowEngine()
        self._ladder = ladder

    @property
    def ladder(self) -> DelayLadder:
        """The characterised delay ladder (lazy; cached engine runs
        reuse the ladder of the ``delays`` stage instead)."""
        if self._ladder is None:
            self._ladder = characterize_ladder(
                self.library, self.corner, max_length=self.max_delay_levels
            )
        return self._ladder

    # ------------------------------------------------------------------
    def build_stages(
        self,
        options: Optional[DesyncOptions] = None,
        prefix: str = "",
        module_input: str = "module.input",
    ):
        """The tool's stage list, for embedding into a larger graph."""
        from ..engine.stages import desync_stages

        return desync_stages(
            self.library,
            self.gatefile,
            self.chooser,
            options or DesyncOptions(),
            corner=self.corner,
            max_delay_levels=self.max_delay_levels,
            ladder=self._ladder,
            prefix=prefix,
            module_input=module_input,
        )

    def assemble_result(
        self, module: Module, artifacts, prefix: str = ""
    ) -> DesyncResult:
        """Build a :class:`DesyncResult` from engine artifacts.

        ``module`` (the caller's object) adopts the final netlist when
        a cache hit made the engine produce a fresh copy, preserving
        the tool's in-place rewrite contract.
        """
        got = {name: artifacts[prefix + name] for name in RESULT_ARTIFACTS}
        final = got["module.network"]
        if final is not module:
            module.copy_from(final)
        import_stats = dict(got["import_stats"])
        import_stats.update(got["clean_stats"])
        self._ladder = got["ladder"]
        return DesyncResult(
            module=module,
            gatefile=self.gatefile,
            region_map=got["region_map.ffsub"],
            ddg=got["ddg"],
            substitution=got["substitution"],
            network=got["network"],
            ladder=self._ladder,
            sdc=got["sdc"],
            import_stats=import_stats,
        )

    def run(
        self, module: Module, options: Optional[DesyncOptions] = None
    ) -> DesyncResult:
        """Desynchronize ``module`` in place and return the result."""
        from ..engine.graph import FlowGraph

        options = options or DesyncOptions()
        graph = FlowGraph("drdesync")
        graph.add_stages(self.build_stages(options))
        result = self.engine.run(
            graph,
            initial={"module.input": module},
            label=f"drdesync:{module.name}",
            load=RESULT_ARTIFACTS,
        )
        result.raise_first_failure()
        return self.assemble_result(module, result.artifacts)


def desynchronize(
    module: Module,
    library: Library,
    options: Optional[DesyncOptions] = None,
) -> DesyncResult:
    """One-call convenience wrapper around :class:`Drdesync`."""
    tool = Drdesync(library, corner=(options or DesyncOptions()).corner)
    return tool.run(module, options)
