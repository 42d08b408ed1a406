"""Prebuilt stages: the ``drdesync`` conversion as an engine DAG.

The desynchronization tool of section 3.2 decomposes into the stage
graph

    import -> group -> ffsub -> ddg -> network -> constraints
                            \\-> (delays) --^

where ``delays`` (the STA characterisation of the delay-element ladder,
section 3.2.5) depends only on the library and therefore caches
independently of the netlist stages (and survives any netlist edit).
Each stage's ``params`` carry exactly the option fields and the library
fingerprint its result depends on, so editing one ``DesyncOptions``
field invalidates only the stages downstream of that option.

Stage functions mutate the threaded ``module.*`` artifact in place on
the cold path (the tool's in-place contract) and each one re-publishes
the module under its own artifact key; the cache snapshots the module
at every stage boundary, so a warm run can resume from any prefix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..desync.constraints import generate_constraints
from ..desync.ddg import build_ddg
from ..desync.delays import DelayLadder, characterize_ladder
from ..desync.domains import analyze_clock_domains, select_domain
from ..desync.ffsub import substitute_flip_flops
from ..desync.network import insert_control_network
from ..desync.regions import (
    group_regions,
    manual_regions,
    single_region,
    validate_independence,
)
from ..netlist.cleanup import clean_logic, resolve_assigns, simplify_names
from ..netlist.core import Module
from ..netlist.lint import check_drivers
from .cache import library_fingerprint, stable_hash
from .graph import Stage

#: canonical artifact keys of the desynchronization stage chain
DESYNC_ARTIFACTS = (
    "module.imported",
    "clock_period",
    "import_stats",
    "module.grouped",
    "region_map",
    "foreign",
    "clean_stats",
    "module.ffsub",
    "region_map.ffsub",
    "substitution",
    "ddg",
    "ladder",
    "module.network",
    "network",
    "sdc",
)

def generation_stage(
    name: str,
    builder: Callable[[], Module],
    params: Dict[str, Any],
    output: str = "module",
) -> Stage:
    """A netlist-generation stage (the flow's synthesis front-end).

    ``params`` must identify the generated design completely (generator
    name, size knobs, library fingerprint): they are the whole cache
    key, since the stage has no inputs.
    """
    return Stage(
        name=name,
        func=lambda _inputs: {output: builder()},
        inputs=(),
        outputs=(output,),
        params=params,
    )


def desync_stages(
    library,
    gatefile,
    chooser,
    options,
    corner: str = "worst",
    max_delay_levels: int = 240,
    ladder: Optional[DelayLadder] = None,
    prefix: str = "",
    module_input: str = "module.input",
) -> List[Stage]:
    """The section 3.2 pipeline as engine stages.

    ``prefix`` namespaces stage names and artifact keys so several
    conversions can share one graph; ``module_input`` is the initial
    artifact key holding the synchronous netlist.
    """
    libfp = library_fingerprint(library)
    p = prefix

    def key(artifact: str) -> str:
        return p + artifact

    # -- 3.2.1 design import hygiene + clock-period derivation ---------
    def s_import(a: Dict[str, Any]) -> Dict[str, Any]:
        module = a[module_input]
        assigns_resolved = resolve_assigns(module)
        check_drivers(module, gatefile)
        stats = {
            "assigns_resolved": assigns_resolved,
            "names_simplified": simplify_names(module),
        }
        clock_period = options.clock_period
        if clock_period is None:
            from ..sta.analysis import min_clock_period

            clock_period = min_clock_period(module, library, options.corner)
        return {
            key("module.imported"): module,
            key("clock_period"): clock_period,
            key("import_stats"): stats,
        }

    # -- 3.2.2 logic cleaning + region creation + domain selection -----
    def s_group(a: Dict[str, Any]) -> Dict[str, Any]:
        module = a[key("module.imported")]
        clean_stats: Dict[str, int] = {}
        if options.clean and options.grouping == "auto":
            clean_stats = clean_logic(
                module, gatefile, options.false_path_nets
            )
        if options.grouping == "auto":
            region_map = group_regions(
                module, gatefile, options.false_path_nets
            )
        elif options.grouping == "single":
            region_map = single_region(module)
        elif options.grouping == "manual":
            region_map = manual_regions(module, options.manual_assignment)
        else:
            raise ValueError(f"unknown grouping mode {options.grouping!r}")

        problems = validate_independence(
            module, gatefile, region_map, options.false_path_nets
        )
        if problems:
            raise ValueError(
                "regions are not combinationally independent: "
                + "; ".join(problems[:5])
            )

        domains = analyze_clock_domains(module, gatefile)
        selected = select_domain(domains, options.clock_domain)
        foreign: set = set()
        if selected is not None:
            for root, members in domains.domains.items():
                foreign.update(members - selected)
            for name in foreign:
                region = region_map.instance_region.pop(name, None)
                if region is not None and region in region_map.regions:
                    region_map.regions[region].instances.discard(name)
        return {
            key("module.grouped"): module,
            key("region_map"): region_map,
            key("foreign"): foreign,
            key("clean_stats"): clean_stats,
        }

    # -- 3.2.3 flip-flop substitution ----------------------------------
    def s_ffsub(a: Dict[str, Any]) -> Dict[str, Any]:
        module = a[key("module.grouped")]
        region_map = a[key("region_map")]
        substitution = substitute_flip_flops(
            module,
            gatefile,
            library,
            region_map,
            chooser,
            exclude=a[key("foreign")],
        )
        # substitution renames the sequential instances inside the
        # region map, so the updated map is re-published under its own
        # key -- cache replays of this stage must restore it too
        return {
            key("module.ffsub"): module,
            key("region_map.ffsub"): region_map,
            key("substitution"): substitution,
        }

    # -- 3.2.4 data-dependency graph -----------------------------------
    def s_ddg(a: Dict[str, Any]) -> Dict[str, Any]:
        return build_ddg(
            a[key("module.ffsub")],
            gatefile,
            a[key("region_map.ffsub")],
            options.false_path_nets,
            env_instances=a[key("foreign")],
        )

    # -- 3.2.5 delay-element ladder (STA characterisation) -------------
    def s_delays(_a: Dict[str, Any]) -> DelayLadder:
        if ladder is not None:
            return ladder
        return characterize_ladder(library, corner, max_length=max_delay_levels)

    # -- 3.2.5/3.2.6 delay elements + control network ------------------
    def s_network(a: Dict[str, Any]) -> Dict[str, Any]:
        module = a[key("module.ffsub")]
        network = insert_control_network(
            module,
            library,
            gatefile,
            a[key("region_map.ffsub")],
            a[key("ddg")],
            a[key("ladder")],
            chooser=chooser,
            delay_margin=options.delay_margin,
            mux_taps=options.delay_mux_taps,
            mux_headroom=options.delay_mux_headroom,
            reset_port=options.reset_port,
            corner=options.corner,
        )
        return {key("module.network"): module, key("network"): network}

    # -- 3.2.7 physical timing constraints -----------------------------
    def s_constraints(a: Dict[str, Any]) -> Dict[str, Any]:
        return generate_constraints(
            a[key("module.network")],
            a[key("network")],
            a[key("clock_period")],
            options.delay_margin,
        )

    return [
        Stage(
            name=p + "import",
            func=s_import,
            inputs=(module_input,),
            outputs=(
                key("module.imported"),
                key("clock_period"),
                key("import_stats"),
            ),
            params={
                "library": libfp,
                "corner": options.corner,
                "clock_period": options.clock_period,
            },
            # v2: refuses multi-driven nets and unknown cells; v3: and
            # output pins bound to a tie net
            version="3",
        ),
        Stage(
            name=p + "group",
            func=s_group,
            inputs=(key("module.imported"),),
            outputs=(
                key("module.grouped"),
                key("region_map"),
                key("foreign"),
                key("clean_stats"),
            ),
            params={
                "library": libfp,
                "grouping": options.grouping,
                "manual_assignment": options.manual_assignment,
                "false_path_nets": options.false_path_nets,
                "clean": options.clean,
                "clock_domain": options.clock_domain,
            },
        ),
        Stage(
            name=p + "ffsub",
            func=s_ffsub,
            inputs=(
                key("module.grouped"),
                key("region_map"),
                key("foreign"),
            ),
            outputs=(
                key("module.ffsub"),
                key("region_map.ffsub"),
                key("substitution"),
            ),
            params={"library": libfp},
            version="2",  # v2: re-publishes the renamed region map
        ),
        Stage(
            name=p + "ddg",
            func=s_ddg,
            inputs=(
                key("module.ffsub"),
                key("region_map.ffsub"),
                key("foreign"),
            ),
            outputs=(key("ddg"),),
            params={
                "library": libfp,
                "false_path_nets": options.false_path_nets,
            },
        ),
        Stage(
            name=p + "delays",
            func=s_delays,
            inputs=(),
            outputs=(key("ladder"),),
            params={
                "library": libfp,
                "corner": corner,
                "max_length": max_delay_levels,
                "provided": stable_hash(ladder) if ladder is not None else None,
            },
        ),
        Stage(
            name=p + "network",
            func=s_network,
            inputs=(
                key("module.ffsub"),
                key("region_map.ffsub"),
                key("ddg"),
                key("ladder"),
            ),
            # ddg already reads module.ffsub, so the artifact chain
            # orders this mutation after every other reader
            outputs=(key("module.network"), key("network")),
            params={
                "library": libfp,
                "delay_margin": options.delay_margin,
                "mux_taps": options.delay_mux_taps,
                "mux_headroom": options.delay_mux_headroom,
                "reset_port": options.reset_port,
                "corner": options.corner,
            },
        ),
        Stage(
            name=p + "constraints",
            func=s_constraints,
            inputs=(
                key("module.network"),
                key("network"),
                key("clock_period"),
            ),
            outputs=(key("sdc"),),
            params={"library": libfp, "delay_margin": options.delay_margin},
        ),
    ]
