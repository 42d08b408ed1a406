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
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..liberty.gatefile import Gatefile, build_gatefile
from ..liberty.model import Library
from ..liberty.techmap import GateChooser
from ..netlist.core import Module
from ..netlist.verilog import write_module
from ..netlist.blif import write_blif_module
from ..sta.sdc import SdcFile
from .constraints import disables_for_sta
from .controllers import ensure_controller_cell
from .ddg import DiGraph
from .delays import DelayLadder, characterize_ladder
from .ffsub import SubstitutionResult
from .network import ControlNetwork
from .regions import RegionMap

if TYPE_CHECKING:
    from ..engine.executor import FlowEngine
    from ..engine.graph import Stage


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
    ddg: DiGraph
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
        return result_summary(
            self.module, self.region_map, self.substitution, self.network
        )


def result_summary(
    module: Module,
    region_map: RegionMap,
    substitution: SubstitutionResult,
    network: ControlNetwork,
) -> Dict[str, object]:
    """The conversion's headline counts."""
    return {
        "regions": len(region_map),
        "flip_flops_replaced": substitution.replaced,
        "controllers": len(network.controllers),
        "delay_elements": len(network.delay_elements),
        "cells": len(module.instances),
        "nets": len(module.nets),
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


#: what :func:`export_outputs` returns and :func:`export_stage`
#: publishes: the output texts (``blif`` is None unless asked for) and
#: the summary the CLI logs
EXPORT_ARTIFACTS = ("verilog", "sdc.text", "blif", "summary")


def export_outputs(
    module: Module,
    sdc: SdcFile,
    network: ControlNetwork,
    region_map: RegionMap,
    substitution: SubstitutionResult,
    blif: bool = False,
) -> Dict[str, Any]:
    """Design export (step 7): the output texts plus the summary.

    ``summary`` holds the design name, the :func:`result_summary`
    counts and one ``(region, cloud delay, delay-element levels)`` row
    per region with a delay element.
    """
    rows = [
        (region, delay, network.delay_elements[region].length)
        for region, delay in sorted(network.region_delays.items())
        if region in network.delay_elements
    ]
    return {
        "verilog": write_module(module),
        "sdc.text": sdc.to_text(),
        "blif": write_blif_module(module) if blif else None,
        "summary": {
            "design": module.name,
            "counts": result_summary(
                module, region_map, substitution, network
            ),
            "delay_elements": rows,
        },
    }


def export_stage(blif: bool = False) -> "Stage":
    """:func:`export_outputs` as the engine stage ending a conversion.

    Its outputs are text, so a run whose every stage hits the cache
    reads them without loading a netlist snapshot.
    """
    from ..engine.graph import Stage

    inputs = (
        "module.network",
        "sdc",
        "network",
        "region_map.ffsub",
        "substitution",
    )
    return Stage(
        name="export",
        func=lambda a: export_outputs(
            *(a[name] for name in inputs), blif=blif
        ),
        inputs=inputs,
        outputs=EXPORT_ARTIFACTS,
        params={"blif": blif},
    )


class Drdesync:
    """The desynchronization tool.

    One instance binds a technology library (gatefile generated on
    construction -- the library-preparation phase of section 3.1);
    :meth:`run` desynchronizes one design by executing the section 3.2
    stage graph on a :class:`repro.engine.executor.FlowEngine`.  The
    default engine is uncached (identical behaviour to the historical
    monolithic driver); passing an engine with an artifact cache makes
    repeat conversions resume from the cached stage prefix.
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
