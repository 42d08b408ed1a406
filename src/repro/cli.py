"""``drdesync`` command-line interface (section 3.2: "the tool has a
command line interface and the desynchronization operation consists of
a sequence of steps").

Usage::

    drdesync serve  [--port 8642] [--workers N] ...   # job daemon
    drdesync submit DESIGN [--wait] [--url URL] ...   # client verbs
    drdesync status [JOB_ID] [--url URL]
    drdesync design.v -o out.v --sdc out.sdc [--blif out.blif]
             [--library hs|ll | --liberty file.lib]
             [--group auto|single] [--false-path NET ...]
             [--margin 0.10] [--mux-taps 8] [--gatefile out.gatefile]
             [--journal run.jsonl]
             [--cache-dir DIR | --no-cache]
             [--trace trace.json] [--metrics metrics.json]
             [--profile [--profile-out DIR]]
             [--vcd waves.vcd] [--vcd-net GLOB ...]
             [--handshake-report report.json] [--observe-items N]
             [-v | --log-level LEVEL | --quiet]

Exit codes: 0 on success, 1 on a usage error (bad arguments), 2 on a
flow error (unreadable input, grouping failure, export failure, ...).

The conversion runs on the :mod:`repro.engine` flow engine: stage
results are cached content-addressed under ``--cache-dir`` (default
``.repro_cache``; disable with ``--no-cache``), its stages run one
after another on the calling thread, and ``--journal`` records the
per-stage JSONL run journal.  The input is keyed on its bytes and
parsed only when the ``import`` stage misses, and an ``export`` stage
caches the output texts, so a re-run on a filled cache writes them
without loading a netlist snapshot.

Observability (:mod:`repro.obs`): ``--trace FILE`` records hierarchical
spans for every engine stage and pipeline phase and writes them as
Chrome trace-event JSON (load in Perfetto / chrome://tracing);
``--metrics FILE`` snapshots the counters, gauges, and histograms the
flow maintains (region sizes, DDG fan-in, delay-ladder selection
error, cache hits, ...); ``--profile`` captures deterministic
per-stage profiles (cProfile hot-function tables, tracemalloc peaks,
sim-kernel counters) and ``--profile-out DIR`` writes them as JSON,
speedscope and collapsed-stack files.  All are off by default and
cost nothing when off.

Simulation-level observability: ``--vcd FILE`` simulates the converted
design under its handshake environment and writes a VCD waveform
(default signal set: the controller handshake nets; widen with
``--vcd-net 'dout*'`` globs), and ``--handshake-report FILE`` writes
the token-flow JSON report -- per-region cycle-time statistics,
occupancy, stall attribution, the deadlock-watchdog verdict, and the
cross-validation against the analytic effective-period model.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Any, Dict, List, Optional

from . import __version__
from .desync.tool import DesyncOptions, Drdesync, verilog_source_key
from .engine.cache import ArtifactCache, DeferredArtifact
from .engine.collector import collector_scope
from .engine.executor import FlowEngine
from .engine.journal import RunJournal
from .liberty.core9 import core9_hs, core9_ll
from .liberty.parser import read_liberty
from .netlist.core import Module
from .netlist.verilog import read_verilog
from .obs import metrics, prof, trace
from .obs.context import Context, use
from .obs.logsetup import configure_logging

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FLOW = 2

#: first-argument verbs routed to :mod:`repro.service.cli`
SERVICE_COMMANDS = (
    "serve", "submit", "status", "trace", "profile", "cancel", "shutdown"
)

#: LRU bound on the ``--cache-dir`` cache: entries a schema bump or a
#: changed input orphaned are evicted oldest first once it is exceeded
CACHE_MAX_BYTES = 256 * 1024 * 1024

log = logging.getLogger("repro.cli")


class UsageError(Exception):
    """Bad command-line arguments (exit code 1)."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises instead of calling ``sys.exit(2)``."""

    def error(self, message: str):
        raise UsageError(message)


def build_argument_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="drdesync",
        description="Desynchronize a gate-level synchronous Verilog netlist",
    )
    parser.add_argument(
        "--version", action="version", version=f"drdesync {__version__}"
    )
    parser.add_argument("input", help="gate-level Verilog netlist")
    parser.add_argument("-o", "--output", help="desynchronized Verilog output")
    parser.add_argument("--sdc", help="write physical timing constraints")
    parser.add_argument("--blif", help="also export BLIF (SIS)")
    parser.add_argument(
        "--library",
        choices=["hs", "ll"],
        default="hs",
        help="built-in CORE9-class library variant (default hs)",
    )
    parser.add_argument("--liberty", help="use an external .lib file instead")
    parser.add_argument(
        "--group",
        choices=["auto", "single"],
        default="auto",
        help="region creation mode (default: automatic grouping)",
    )
    parser.add_argument(
        "--false-path",
        action="append",
        default=[],
        metavar="NET",
        help="net to ignore during grouping (repeatable)",
    )
    parser.add_argument(
        "--margin",
        type=float,
        default=0.10,
        help="delay element margin over the region critical path",
    )
    parser.add_argument(
        "--mux-taps",
        type=int,
        default=0,
        help="multiplexed delay-element taps (0 = fixed length)",
    )
    parser.add_argument("--top", help="top module name (default: first)")
    parser.add_argument(
        "--eco",
        metavar="EDITS_JSON",
        help="after the flow, apply the netlist edits from this JSON "
        "file through the incremental re-flow (cell swaps, wire "
        "re-annotations, constants, small add/remove) and export the "
        "patched result -- bit-identical to re-running from scratch",
    )
    parser.add_argument(
        "--eco-verify",
        choices=["none", "affected", "full"],
        default="none",
        help="re-simulate the handshake layer after --eco edits: only "
        "the affected regions, or the whole design (default none)",
    )
    parser.add_argument(
        "--gatefile", help="also write the generated gatefile"
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="write the structured JSONL run journal to FILE",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="DIR",
        help="stage artifact cache directory (default .repro_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the stage artifact cache",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON profile of the flow",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a JSON snapshot of flow metrics",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="capture deterministic per-stage profiles (cProfile + "
        "tracemalloc + sim-kernel counters)",
    )
    parser.add_argument(
        "--profile-out",
        metavar="DIR",
        help="with --profile: write profile.json, speedscope and "
        "collapsed-stack files into DIR",
    )
    parser.add_argument(
        "--vcd",
        metavar="FILE",
        help="simulate the result and write a VCD waveform of the "
        "handshake network (add --vcd-net globs for datapath nets)",
    )
    parser.add_argument(
        "--vcd-net",
        action="append",
        default=[],
        metavar="GLOB",
        help="net-name glob to include in the VCD (repeatable; "
        "default: the controller handshake nets)",
    )
    parser.add_argument(
        "--handshake-report",
        metavar="FILE",
        help="simulate the result and write the token-flow JSON report "
        "(per-region cycle times, occupancy, stall attribution, "
        "watchdog verdict, model cross-validation)",
    )
    parser.add_argument(
        "--observe-items",
        type=int,
        default=16,
        metavar="N",
        help="handshake items to simulate for --vcd/--handshake-report "
        "(default 16)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug-level logging (shorthand for --log-level debug)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="logging threshold (overrides -v and --quiet)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary (warnings and errors only)",
    )
    return parser


def resolve_log_level(args: argparse.Namespace) -> str:
    """Explicit ``--log-level`` wins, then ``-v``, then ``--quiet``."""
    if args.log_level:
        return args.log_level
    if args.verbose:
        return "debug"
    if args.quiet:
        return "warning"
    return "info"


def _print_summary(summary: Dict[str, Any], engine, cache) -> None:
    log.info("desynchronized %r:", summary["design"])
    for key, value in summary["counts"].items():
        log.info("  %-22s %s", key, value)
    for region, delay, length in summary["delay_elements"]:
        log.info(
            "  region %-8s cloud delay %7.3f ns, delay element %d levels",
            region,
            delay,
            length,
        )
    if not engine.results:
        # incremental (--eco) runs bypass the stage engine
        return
    run = engine.results[-1]
    cached = len(run.cached_stages())
    log.info(
        "  engine: %d stages, %d cached, %.3fs wall, cache=%s",
        len(run.records),
        cached,
        run.wall_time,
        "off" if cache is None else "on",
    )


def _observe_result(args: argparse.Namespace, result, library) -> None:
    """Run the desynchronized design under the handshake probe
    (``--vcd`` / ``--handshake-report``)."""
    import json

    from .flow.observe import observe_handshake

    observation = observe_handshake(
        result,
        library,
        items=args.observe_items,
        vcd_path=args.vcd,
        vcd_include=args.vcd_net or None,
    )
    report = observation.report
    if args.vcd:
        log.info(
            "VCD written to %s (%d nets, %.1f ns)",
            args.vcd,
            len(observation.vcd_nets),
            report["window_ns"],
        )
    if args.handshake_report:
        with open(args.handshake_report, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        measured = report.get("effective_period_measured_ns")
        log.info(
            "handshake report written to %s (%d regions, "
            "effective period %s ns)",
            args.handshake_report,
            len(report["regions"]),
            f"{measured:.3f}" if measured is not None else "n/a",
        )
    if report.get("error"):
        deadlock = (report.get("watchdog") or {}).get("deadlock") or {}
        log.warning(
            "handshake simulation stalled: %s (blocked cycle: %s)",
            report["error"],
            " -> ".join(deadlock.get("blocked_cycle", [])) or "none found",
        )


def _read_input(args: argparse.Namespace) -> Module:
    log.debug("reading %s", args.input)
    netlist = read_verilog(args.input)
    if args.top:
        netlist.set_top(args.top)
    return netlist.top


def _input_artifact(args: argparse.Namespace) -> DeferredArtifact:
    """The input netlist, parsed only if the ``import`` stage runs and
    keyed on the file's bytes and ``--top``."""
    with open(args.input, "rb") as handle:
        source = handle.read()
    return DeferredArtifact(
        lambda: _read_input(args), verilog_source_key(source, args.top)
    )


def _run_eco(args: argparse.Namespace, library, options):
    """Run the flow through an incremental session, then apply the
    ``--eco`` edits; returns (exported outputs, result)."""
    from .flow.incremental import IncrementalSession, load_edits

    edits = load_edits(args.eco)
    session = IncrementalSession(library, options)
    session.start(_read_input(args))
    outcome = session.apply(edits, verify=args.eco_verify)
    result = outcome.result
    reused = sorted(stage for stage, hit in outcome.reused.items() if hit)
    log.info(
        "eco: %d edit(s) applied via the %s path; reused stages: %s",
        len(edits),
        outcome.path,
        ", ".join(reused) or "none",
    )
    if outcome.report is not None:
        log.info(
            "eco verification: %d region(s) re-simulated%s",
            len(outcome.verified_regions),
            f", error: {outcome.report['error']}"
            if outcome.report.get("error")
            else "",
        )
    return result.outputs(blif=bool(args.blif)), result


def _write_outputs(
    args: argparse.Namespace, tool: Drdesync, outputs: Dict[str, Any]
) -> None:
    if args.gatefile:
        with open(args.gatefile, "w") as handle:
            handle.write(tool.gatefile.to_text())
    if args.output:
        log.debug("writing Verilog to %s", args.output)
        with open(args.output, "w") as handle:
            handle.write(outputs["verilog"])
    if args.blif:
        with open(args.blif, "w") as handle:
            handle.write(outputs["blif"])
    if args.sdc:
        with open(args.sdc, "w") as handle:
            handle.write(outputs["sdc.text"])


def _run_flow(args: argparse.Namespace) -> int:
    if args.liberty:
        library = read_liberty(args.liberty)
    else:
        library = core9_hs() if args.library == "hs" else core9_ll()

    cache = (
        None
        if args.no_cache
        else ArtifactCache(args.cache_dir, max_bytes=CACHE_MAX_BYTES)
    )
    journal = RunJournal(args.journal) if args.journal else RunJournal()
    engine = FlowEngine(cache=cache, journal=journal)

    # observability is opt-in; spans go to the --trace file, while the
    # journal keeps one line per stage boundary
    observers: Dict[str, Any] = {}
    if args.trace:
        observers["tracer"] = trace.Tracer()
    if args.metrics:
        observers["registry"] = metrics.MetricsRegistry()
    if args.profile or args.profile_out:
        observers["profiler"] = prof.Profiler(enabled=True)

    tool = Drdesync(library, engine=engine)
    options = DesyncOptions(
        grouping=args.group,
        false_path_nets=tuple(args.false_path),
        delay_margin=args.margin,
        delay_mux_taps=args.mux_taps,
    )
    try:
        with use(Context(**observers)) as context:
            if args.eco:
                outputs, result = _run_eco(args, library, options)
            else:
                # --vcd and --handshake-report simulate the result, so
                # only they load it
                outputs, result = tool.convert(
                    _input_artifact(args),
                    options,
                    label=f"drdesync:{os.path.basename(args.input)}",
                    blif=bool(args.blif),
                    result=bool(args.vcd or args.handshake_report),
                )
            _write_outputs(args, tool, outputs)
            summary = outputs["summary"]

            for key, value in summary["counts"].items():
                if isinstance(value, (int, float)):
                    metrics.gauge(f"desync.summary.{key}").set(value)
            if observers:
                _write_observations(args, context, summary)

            if args.vcd or args.handshake_report:
                _observe_result(args, result, library)
    finally:
        journal.close()

    _print_summary(summary, engine, cache)
    return EXIT_OK


def _write_observations(args, context: Context, summary) -> None:
    """Write the ``--trace`` / ``--metrics`` / ``--profile`` outputs."""
    from .obs.export import (
        profile_report,
        summary_report,
        write_chrome_trace,
        write_metrics,
        write_profile,
    )

    tracer, registry, profiler = context
    if tracer.enabled:
        write_chrome_trace(args.trace, tracer)
        log.info("trace written to %s (%d spans)", args.trace, len(tracer))
        log.debug("span summary:\n%s", summary_report(tracer))
    if registry.enabled:
        write_metrics(args.metrics, registry)
        log.info(
            "metrics written to %s (%d instruments)",
            args.metrics,
            len(registry),
        )
    if profiler.enabled:
        overhead = profiler.overhead_estimate()
        log.info(
            "profiled %d stage(s) (machinery overhead %.4fs, "
            "%.2f%% of profiled wall)",
            len(profiler),
            overhead["machinery_s"],
            100.0 * overhead["fraction"],
        )
        if args.profile_out:
            paths = write_profile(
                args.profile_out, profiler, name=summary["design"]
            )
            for kind in sorted(paths):
                log.info("profile %s written to %s", kind, paths[kind])
        else:
            log.debug("profile report:\n%s", profile_report(profiler))


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SERVICE_COMMANDS:
        # the service verbs (daemon + HTTP client) live in their own
        # sub-parser: ``drdesync serve`` / ``submit`` / ``status`` ...
        from .service.cli import service_main

        return service_main(argv)
    parser = build_argument_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as error:
        print(f"drdesync: error: {error}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exit_:  # --version / --help
        return EXIT_OK if not exit_.code else EXIT_USAGE

    configure_logging(resolve_log_level(args), stream=sys.stdout)
    try:
        with collector_scope():
            return _run_flow(args)
    except Exception as error:
        print(f"drdesync: flow error: {error}", file=sys.stderr)
        return EXIT_FLOW


if __name__ == "__main__":
    sys.exit(main())
