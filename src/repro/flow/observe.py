"""One-call simulation observability for a desynchronized design.

:func:`observe_handshake` is what the CLI's ``--vcd`` /
``--handshake-report`` flags call: it runs the handshake testbench over
a :class:`repro.desync.tool.DesyncResult` with the
:class:`~repro.sim.probes.HandshakeProbe` + watchdog attached and an
optional VCD waveform streaming to disk, then folds everything into the
cross-validated token-flow report::

    from repro.flow import observe_handshake

    obs = observe_handshake(result, library, items=32, vcd_path="run.vcd")
    print(obs.report["effective_period_measured_ns"])
    print(obs.report["agreement"])          # vs effective_period_model

A handshake timeout (e.g. a genuinely deadlocked network) does not
raise: the run stops, the watchdog names the blocked controller cycle
and the report carries an ``error`` field instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..desync.tool import DesyncResult
from ..liberty.model import Library
from ..obs.context import current
from ..obs.vcd import VcdWriter
from ..sim.probes import DeadlockWatchdog, HandshakeProbe, handshake_report
from ..sim.simulator import SimulationError, Simulator
from ..sim.testbench import HandshakeTestbench, StimulusFn

__all__ = ["ObservationResult", "observe_handshake"]


@dataclass
class ObservationResult:
    """Everything :func:`observe_handshake` produced."""

    simulator: Simulator
    probe: HandshakeProbe
    watchdog: DeadlockWatchdog
    report: Dict[str, Any]
    vcd_path: Optional[str] = None
    vcd_nets: List[str] = field(default_factory=list)


def observe_handshake(
    result: DesyncResult,
    library: Library,
    items: int = 16,
    stimulus: Optional[StimulusFn] = None,
    corner: str = "worst",
    kernel: str = "compiled",
    vcd_path: Optional[str] = None,
    vcd_nets: Optional[Sequence[str]] = None,
    vcd_include: Optional[Sequence[str]] = None,
    vcd_exclude: Optional[Sequence[str]] = None,
    watchdog_window: float = 100.0,
    free_run_time: float = 500.0,
    warmup: int = 3,
) -> ObservationResult:
    """Run the handshake network under full observation.

    Mirrors :func:`repro.sim.flowequiv.run_desynchronized` (zero-init,
    reset, ``items`` handshakes or a free run for closed designs) with
    the probe, watchdog and optional VCD writer attached *before*
    reset, so the waveform covers the whole run.  When no VCD net
    selection is given, the default waveform is the handshake layer
    itself: every net the probe watches.
    """
    simulator = Simulator(result.module, library, corner, kernel=kernel)
    probe = HandshakeProbe(simulator, result)
    watchdog = DeadlockWatchdog(probe, window_ns=watchdog_window)

    writer: Optional[VcdWriter] = None
    selected: List[str] = []
    if vcd_path is not None:
        writer = VcdWriter(vcd_path)
        if vcd_nets is None and vcd_include is None:
            vcd_nets = probe.watched_nets()
        selected = writer.attach(
            simulator,
            nets=vcd_nets,
            include=vcd_include,
            exclude=vcd_exclude,
        )

    bench = HandshakeTestbench(
        simulator, result.network.env_ports, result.network.reset_net
    )
    error: Optional[str] = None
    try:
        initial = stimulus(0) if stimulus is not None else None
        bench.apply_reset(0, initial_inputs=initial)
        has_inputs = any(
            "ri" in ports for ports in result.network.env_ports.values()
        )
        if has_inputs:
            bench.run_items(max(items - 1, 0), stimulus, first_item=1)
        else:
            bench.run_free(free_run_time)
    except SimulationError as exc:
        error = str(exc)
    finally:
        if writer is not None:
            writer.close()

    probe.finalize()
    watchdog.poll(simulator.now)
    report = handshake_report(
        probe,
        result=result,
        library=library,
        corner=corner,
        warmup=warmup,
        watchdog=watchdog,
    )
    if error is not None:
        report["error"] = error
    # correlate the report with the surrounding run: when this
    # observation happens inside a traced job (the service daemon runs
    # execute_job in the job's context), stamp its trace ID
    trace_id = current().trace_id
    if trace_id is not None:
        report["trace_id"] = trace_id
    return ObservationResult(
        simulator=simulator,
        probe=probe,
        watchdog=watchdog,
        report=report,
        vcd_path=vcd_path,
        vcd_nets=selected,
    )
