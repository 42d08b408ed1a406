"""End-to-end implementation flows (Figures 4.1 and 5.1).

Both flows start from the same post-synthesis netlist and use the same
backend, so the comparison is fair -- the paper's central experimental
discipline.  The "synthesis" front-end of the paper (Design Compiler)
is replaced by the gate-level design generators; the flow adds the
optional DFT pass, the desynchronization step for the asynchronous
variant, and the physical backend, collecting the Table 5.1 / 5.2
metrics at each phase.

Both flows execute as stage graphs on the
:class:`repro.engine.executor.FlowEngine`: with a cached engine, warm
reruns resume from the cached stage prefix.  Without an ``engine=``
each call runs on a fresh, uncached engine, so nothing outlives the
call but its result.  The P&R stage degrades gracefully -- a
backend failure is recorded on the result (and in the engine journal)
while the post-synthesis reports survive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..desync.tool import (
    RESULT_ARTIFACTS,
    DesyncOptions,
    DesyncResult,
    Drdesync,
)
from ..dft.scan import ScanResult, insert_scan
from ..engine.executor import FlowEngine, FlowResult
from ..engine.graph import FlowGraph, Stage
from ..engine.stages import library_fingerprint
from ..liberty.gatefile import Gatefile, build_gatefile
from ..liberty.model import Library
from ..netlist.core import Module
from ..obs import trace
from ..obs.context import current
from ..physical.backend import BackendResult, run_backend
from ..sta.analysis import min_clock_period
from .reports import AreaReport, ComparisonTable, area_report

log = logging.getLogger("repro.flow")

@dataclass
class ImplementationResult:
    """One implemented design: netlist through layout with reports."""

    module: Module
    library: Library
    gatefile: Gatefile
    post_synthesis: AreaReport
    post_layout: Optional[AreaReport] = None
    backend: Optional[BackendResult] = None
    scan: Optional[ScanResult] = None
    desync: Optional[DesyncResult] = None
    min_period: Optional[float] = None
    #: stage name -> error text for stages that failed but were
    #: tolerated (graceful degradation of the backend)
    failures: Dict[str, str] = field(default_factory=dict)


def _synchronous_stages(
    library: Library,
    gatefile: Gatefile,
    with_scan: bool,
    target_utilization: float,
    run_pnr: bool,
    prefix: str = "",
    module_input: str = "module.input",
) -> List[Stage]:
    """Conventional flow: (DFT) -> STA -> P&R -> reports."""
    libfp = library_fingerprint(library)
    p = prefix
    stages: List[Stage] = []
    module_key = module_input

    if with_scan:
        def s_scan(a: Dict[str, Any]) -> Dict[str, Any]:
            module = a[module_input]
            scan = insert_scan(module, library)
            return {p + "module.scan": module, p + "scan": scan}

        stages.append(
            Stage(
                name=p + "scan",
                func=s_scan,
                inputs=(module_input,),
                outputs=(p + "module.scan", p + "scan"),
                params={"library": libfp},
            )
        )
        module_key = p + "module.scan"

    def s_synth_report(a: Dict[str, Any]) -> AreaReport:
        return area_report(a[module_key], library, gatefile)

    stages.append(
        Stage(
            name=p + "report.synth",
            func=s_synth_report,
            inputs=(module_key,),
            outputs=(p + "post_synthesis",),
            params={"library": libfp},
        )
    )

    def s_sta(a: Dict[str, Any]) -> float:
        return min_clock_period(a[module_key], library, "worst")

    stages.append(
        Stage(
            name=p + "sta",
            func=s_sta,
            inputs=(module_key,),
            outputs=(p + "min_period",),
            params={"library": libfp, "corner": "worst"},
        )
    )

    if run_pnr:
        stages.extend(
            _backend_stages(
                library,
                gatefile,
                target_utilization,
                prefix=p,
                module_key=module_key,
                sdc_key=None,
                after=(p + "report.synth", p + "sta"),
            )
        )
    return stages


def _backend_stages(
    library: Library,
    gatefile: Gatefile,
    target_utilization: float,
    prefix: str,
    module_key: str,
    sdc_key: Optional[str],
    after: Tuple[str, ...],
) -> List[Stage]:
    """P&R plus the post-layout report (section 4.7)."""
    libfp = library_fingerprint(library)
    p = prefix
    pnr_inputs = (module_key,) + ((sdc_key,) if sdc_key else ())

    def s_pnr(a: Dict[str, Any]) -> Dict[str, Any]:
        module = a[module_key]
        backend = run_backend(
            module,
            library,
            sdc=a[sdc_key] if sdc_key else None,
            target_utilization=target_utilization,
        )
        return {p + "module.layout": module, p + "backend": backend}

    def s_layout_report(a: Dict[str, Any]) -> AreaReport:
        backend = a[p + "backend"]
        return area_report(
            a[p + "module.layout"],
            library,
            gatefile,
            core_size=backend.report.core_size,
            utilization=backend.report.utilization,
        )

    return [
        Stage(
            name=p + "pnr",
            func=s_pnr,
            inputs=pnr_inputs,
            outputs=(p + "module.layout", p + "backend"),
            params={
                "library": libfp,
                "target_utilization": target_utilization,
            },
            # P&R mutates the netlist: order it after every stage that
            # reads the pre-layout module
            after=after,
        ),
        Stage(
            name=p + "report.layout",
            func=s_layout_report,
            inputs=(p + "module.layout", p + "backend"),
            outputs=(p + "post_layout",),
            params={"library": libfp},
        ),
    ]


def _desynchronized_stages(
    tool: Drdesync,
    options: Optional[DesyncOptions],
    with_scan: bool,
    target_utilization: float,
    run_pnr: bool,
    prefix: str = "",
    module_input: str = "module.input",
) -> List[Stage]:
    """Desynchronization flow: (DFT) -> drdesync -> P&R -> reports."""
    library = tool.library
    libfp = library_fingerprint(library)
    p = prefix
    stages: List[Stage] = []
    module_key = module_input

    if with_scan:
        def s_scan(a: Dict[str, Any]) -> Dict[str, Any]:
            module = a[module_input]
            scan = insert_scan(module, library)
            return {p + "module.scan": module, p + "scan": scan}

        stages.append(
            Stage(
                name=p + "scan",
                func=s_scan,
                inputs=(module_input,),
                outputs=(p + "module.scan", p + "scan"),
                params={"library": libfp},
            )
        )
        module_key = p + "module.scan"

    stages.extend(
        tool.build_stages(options, prefix=p, module_input=module_key)
    )

    def s_synth_report(a: Dict[str, Any]) -> AreaReport:
        return area_report(a[p + "module.network"], library, tool.gatefile)

    stages.append(
        Stage(
            name=p + "report.synth",
            func=s_synth_report,
            inputs=(p + "module.network",),
            outputs=(p + "post_synthesis",),
            params={"library": libfp},
        )
    )
    if run_pnr:
        stages.extend(
            _backend_stages(
                library,
                tool.gatefile,
                target_utilization,
                prefix=p,
                module_key=p + "module.network",
                sdc_key=p + "sdc",
                after=(p + "report.synth",),
            )
        )
    return stages


#: the artifacts each implementation result reads (the desynchronized
#: one also reads drdesync's :data:`~repro.desync.tool.RESULT_ARTIFACTS`);
#: absent ones -- stages not in the graph, tolerated backend failures --
#: read as ``None``
SYNC_ARTIFACTS = (
    "post_synthesis",
    "scan",
    "min_period",
    "module.layout",
    "backend",
    "post_layout",
    "module.scan",
)
DESYNC_ARTIFACTS = (
    "post_synthesis",
    "scan",
    "module.layout",
    "backend",
    "post_layout",
)


def _to_load(prefix: str, desync: bool) -> List[str]:
    """What a flow's result reads, for ``FlowEngine.run(load=...)``,
    which recomputes an unloadable cache entry among them."""
    if desync:
        names = DESYNC_ARTIFACTS + RESULT_ARTIFACTS
    else:
        names = SYNC_ARTIFACTS
    return [prefix + name for name in names]


def _read(
    result: FlowResult, prefix: str, names: Tuple[str, ...]
) -> Dict[str, Any]:
    return {name: result.artifacts.get(prefix + name) for name in names}


def _tolerated(result: FlowResult, prefix: str = "") -> Dict[str, str]:
    """Backend stages may fail gracefully; everything else raises."""
    backend_stages = {prefix + "pnr", prefix + "report.layout"}
    result.raise_first_failure(allow=backend_stages)
    return {
        record.name: record.error_text or record.status.value
        for record in result.failed_stages()
        if record.name in backend_stages
    }


def _assemble_synchronous(
    module: Module,
    library: Library,
    gatefile: Gatefile,
    result: FlowResult,
    prefix: str = "",
) -> ImplementationResult:
    failures = _tolerated(result, prefix)
    got = _read(result, prefix, SYNC_ARTIFACTS)
    final = got["module.layout"] or got["module.scan"]
    if final is not None and final is not module:
        module.copy_from(final)
    out = ImplementationResult(
        module,
        library,
        gatefile,
        got["post_synthesis"],
        scan=got["scan"],
        failures=failures,
    )
    out.min_period = got["min_period"]
    out.backend = got["backend"]
    out.post_layout = got["post_layout"]
    return out


def _assemble_desynchronized(
    module: Module,
    tool: Drdesync,
    result: FlowResult,
    prefix: str = "",
) -> ImplementationResult:
    failures = _tolerated(result, prefix)
    desync = tool.assemble_result(module, result.artifacts, prefix=prefix)
    got = _read(result, prefix, DESYNC_ARTIFACTS)
    final = got["module.layout"]
    if final is not None and final is not module:
        module.copy_from(final)
    out = ImplementationResult(
        module,
        tool.library,
        tool.gatefile,
        got["post_synthesis"],
        scan=got["scan"],
        desync=desync,
        failures=failures,
    )
    out.backend = got["backend"]
    out.post_layout = got["post_layout"]
    return out


def implement_synchronous(
    module: Module,
    library: Library,
    with_scan: bool = False,
    target_utilization: float = 0.92,
    run_pnr: bool = True,
    engine: Optional[FlowEngine] = None,
) -> ImplementationResult:
    """The conventional flow: (DFT) -> P&R -> reports."""
    engine = engine or FlowEngine()
    log.info("implementing %s (synchronous flow)", module.name)
    with trace.span("flow:sync", module=module.name) as span:
        gatefile = build_gatefile(library)
        graph = FlowGraph("implement-sync")
        graph.add_stages(
            _synchronous_stages(
                library, gatefile, with_scan, target_utilization, run_pnr
            )
        )
        result = engine.run(
            graph,
            initial={"module.input": module},
            label=f"sync:{module.name}",
            load=_to_load("", desync=False),
        )
        out = _assemble_synchronous(module, library, gatefile, result)
        span.set("failures", len(out.failures))
    if out.failures:
        log.warning(
            "%s: tolerated stage failures: %s",
            module.name,
            ", ".join(sorted(out.failures)),
        )
    return out


def implement_desynchronized(
    module: Module,
    library: Library,
    tool: Optional[Drdesync] = None,
    options: Optional[DesyncOptions] = None,
    with_scan: bool = False,
    target_utilization: float = 0.90,
    run_pnr: bool = True,
    engine: Optional[FlowEngine] = None,
) -> ImplementationResult:
    """The desynchronization flow: (DFT) -> drdesync -> P&R -> reports."""
    engine = engine or FlowEngine()
    tool = tool or Drdesync(library)
    log.info("implementing %s (desynchronization flow)", module.name)
    with trace.span("flow:desync", module=module.name) as span:
        graph = FlowGraph("implement-desync")
        graph.add_stages(
            _desynchronized_stages(
                tool, options, with_scan, target_utilization, run_pnr
            )
        )
        result = engine.run(
            graph,
            initial={"module.input": module},
            label=f"desync:{module.name}",
            load=_to_load("", desync=True),
        )
        out = _assemble_desynchronized(module, tool, result)
        span.set("failures", len(out.failures))
    if out.failures:
        log.warning(
            "%s: tolerated stage failures: %s",
            module.name,
            ", ".join(sorted(out.failures)),
        )
    return out


def implement_comparison(
    design_name: str,
    sync_module: Module,
    desync_module: Module,
    library: Library,
    options: Optional[DesyncOptions] = None,
    sync_utilization: float = 0.92,
    desync_utilization: float = 0.90,
    with_scan: bool = False,
    run_pnr: bool = True,
    engine: Optional[FlowEngine] = None,
) -> Tuple[ImplementationResult, ImplementationResult, ComparisonTable]:
    """Both implementations as ONE stage graph (Figure 5.1 discipline).

    The two branches share no artifacts, so a failure in one skips
    nothing in the other, and a cached engine resumes either branch
    from its cached prefix independently.
    """
    engine = engine or FlowEngine()
    log.info("comparing %s: synchronous vs desynchronized", design_name)
    with trace.span("flow:compare", design=design_name):
        gatefile = build_gatefile(library)
        tool = Drdesync(library)
        graph = FlowGraph(f"compare:{design_name}")
        graph.add_stages(
            _synchronous_stages(
                library,
                gatefile,
                with_scan,
                sync_utilization,
                run_pnr,
                prefix="sync:",
                module_input="sync:module.input",
            )
        )
        graph.add_stages(
            _desynchronized_stages(
                tool,
                options,
                with_scan,
                desync_utilization,
                run_pnr,
                prefix="desync:",
                module_input="desync:module.input",
            )
        )
        result = engine.run(
            graph,
            initial={
                "sync:module.input": sync_module,
                "desync:module.input": desync_module,
            },
            label=f"compare:{design_name}",
            load=_to_load("sync:", desync=False)
            + _to_load("desync:", desync=True),
        )
        sync = _assemble_synchronous(
            sync_module, library, gatefile, result, prefix="sync:"
        )
        desync = _assemble_desynchronized(
            desync_module, tool, result, prefix="desync:"
        )
    table = compare_implementations(design_name, sync, desync)
    log.debug("comparison table for %s assembled", design_name)
    return sync, desync, table


def compare_implementations(
    design_name: str,
    sync: ImplementationResult,
    desync: ImplementationResult,
) -> ComparisonTable:
    """Assemble the Table 5.1 / 5.2 comparison."""
    table = ComparisonTable(design_name, trace_id=current().trace_id)
    table.add_phase("Post Synthesis", sync.post_synthesis, desync.post_synthesis)
    if sync.post_layout and desync.post_layout:
        table.add_phase("Post Layout", sync.post_layout, desync.post_layout)
    return table
