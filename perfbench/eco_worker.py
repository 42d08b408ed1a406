"""The ``dlx_eco`` worker: one incremental session fed a seeded ECO stream.

    python3 perfbench/eco_worker.py CONFIG_JSON

``CONFIG_JSON`` holds ``mode`` (``setup`` or ``stream``), ``seed``,
``seconds``, ``trace``, ``tiny``, ``index`` (which set-up this is),
``out`` (result JSON path) and ``spans`` (span JSON path, traced runs).

Set-up is the library, the DLX and ``IncrementalSession.start``.  A
``setup`` worker stops there; a ``stream`` worker then applies the edit
stream, one ``session.apply`` per op, and finally checks the session's
Verilog and SDC against ``session.oracle()`` outside the timed region.
Set-up and edits are scaled to the reference host speed by host-speed
probes (``hostspeed.Sampler``) run every ``SAMPLE_S`` seconds, inside
long calls too; traced runs probe only between edits, so that no probe
lands inside a span.

The stream is drawn from the DLX's own instances and nets: same-function
drive-strength swaps (``resize``), wire-cap annotations on the output
nets of those gates (``annotate``) and buffer/inverter resizes
(``buffer``, which take the deep re-flow path).  A fixed prefix of
``DEEP_BLOCKS`` blocks always runs, so every run makes the same number
of deep re-flows; untraced runs then continue with resizes and
annotations until ``seconds`` have passed.  Traced runs stop after the
prefix, so their path counts repeat exactly for a seed.
"""

import gc
import json
import os
import random
import resource
import sys
import time
import traceback

from hostspeed import Sampler
from inputs import design_key, dlx_module, recorded_digest, sha256_text
from repro.desync import DesyncOptions
from repro.flow.incremental import IncrementalSession, NetlistEdit
from repro.liberty.core9 import core9_hs
from repro.netlist.core import Module
from spans import Recorder, install

#: same-function drive-strength families of the swap targets
FAMILIES = (
    ("MUX2X1", "MUX2X2"),
    ("AND2X1", "AND2X2", "AND2X4"),
    ("OR2X1", "OR2X2", "OR2X4"),
    ("XOR2X1", "XOR2X2"),
    ("BUFX1", "BUFX2", "BUFX4"),
    ("INVX1", "INVX2", "INVX4"),
)
FAMILY_OF = {cell: family for family in FAMILIES for cell in family}
GATES = ("MUX2X1", "AND2X1", "OR2X1", "XOR2X1")
BUFFERS = ("BUFX1", "INVX1")

#: edits per block: the third and eighth are annotations and the others
#: resizes (a resize's time depends on the gate drawn, so the stream
#: draws several times as many), and the last slot of each of the
#: first DEEP_BLOCKS blocks is a buffer resize
BLOCK = 10
DEEP_BLOCKS = 3
TINY_BLOCK = 5
TINY_DEEP_BLOCKS = 2
#: seconds between two host-speed probes
SAMPLE_S = 0.5


def edit_kind(index, tiny):
    block = TINY_BLOCK if tiny else BLOCK
    deep_blocks = TINY_DEEP_BLOCKS if tiny else DEEP_BLOCKS
    slot = index % block
    if slot == block - 1:
        return "buffer" if index // block < deep_blocks else "resize"
    return "annotate" if slot % 5 == 2 else "resize"


def prefix_length(tiny):
    return (TINY_BLOCK * TINY_DEEP_BLOCKS) if tiny else (BLOCK * DEEP_BLOCKS)


class EditStream:
    """Seeded ECO edits addressed by the DLX's own instance and net names."""

    def __init__(self, pristine, module, seed):
        self.rng = random.Random(seed)

        def kept(cells):
            return sorted(
                name
                for name, inst in pristine.instances.items()
                if inst.cell in cells
                and name in module.instances
                and module.instances[name].cell == inst.cell
            )

        self.gates = kept(GATES)
        self.buffers = kept(BUFFERS)
        self.nets = sorted(
            {module.instances[name].pins["Z"] for name in self.gates}
        )

    def make(self, kind, module):
        if kind == "annotate":
            net = self.rng.choice(self.nets)
            cap = round(self.rng.uniform(0.002, 0.02), 4)
            return NetlistEdit("annotate_wires", wire_caps={net: cap})
        names = self.gates if kind == "resize" else self.buffers
        name = self.rng.choice(names)
        cell = module.instances[name].cell
        choices = [c for c in FAMILY_OF[cell] if c != cell]
        return NetlistEdit(
            "swap_cell", instance=name, cell=self.rng.choice(choices)
        )


def current_rss_mb():
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        resident = int(handle.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def output_digest(result):
    return {
        "verilog": sha256_text(result.export_verilog()),
        "sdc": sha256_text(result.export_sdc()),
    }


def set_up(recorder, tiny):
    """Library + DLX + ``session.start``; returns the session."""
    if recorder:
        library = recorder.span("liberty.build", core9_hs)
    else:
        library = core9_hs()
    session = IncrementalSession(library, DesyncOptions())
    session.start(dlx_module(library, tiny))
    return session


def stream(session, recorder, sampler, config):
    """Apply the edit stream; returns the op records."""
    tiny = config["tiny"]
    edits = EditStream(
        dlx_module(core9_hs(), tiny), session.result.module, config["seed"]
    )
    prefix = prefix_length(tiny)
    ops = []
    seen = {}
    began = time.perf_counter()
    index = 0
    while index < prefix or (
        not config["trace"] and time.perf_counter() - began < config["seconds"]
    ):
        kind = edit_kind(index, tiny)
        edit = edits.make(kind, session.result.module)
        traced = seen.get(kind, 0) % 2 == 0
        seen[kind] = seen.get(kind, 0) + 1
        if recorder:
            # untraced ops of each kind alternate with traced ones, so the
            # traced run measures its own overhead
            recorder.enabled = traced
            recorder.op = f"{kind}-{index}"
        op = {
            "kind": kind,
            "edit": edit.to_dict(),
            "traced": bool(recorder) and traced,
        }
        start = time.perf_counter()
        try:
            outcome = session.apply(edit)
        except Exception:
            traceback.print_exc()
            op.update(start=start, end=time.perf_counter(), ok=False)
            op["path"] = None
            ops.append(op)
            break
        op.update(start=start, end=time.perf_counter(), ok=True)
        op["path"] = outcome.path
        ops.append(op)
        if recorder and op["end"] - sampler.starts[-1] >= SAMPLE_S:
            sampler.sample()
        index += 1
    sampler.sample()
    for op in ops:
        op["seconds"], op["scaled"] = sampler.measure(
            op.pop("start"), op.pop("end")
        )
    if recorder:
        recorder.enabled = True
    return ops


def live_modules():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Module))


def main(argv):
    config = json.loads(argv[0])
    recorder = None
    if config["trace"]:
        import repro.cli  # noqa: F401  (loads every module spans.LAYERS names)

        recorder = Recorder()
        recorder.op = f"setup-{config['index']}"
        install(recorder)
    sampler = Sampler()
    if not recorder:
        sampler.start_timer(SAMPLE_S)
    result = {}
    try:
        start = time.perf_counter()
        session = set_up(recorder, config["tiny"])
        end = time.perf_counter()
        sampler.sample()
        result["setup_raw_s"], result["setup_s"] = sampler.measure(start, end)
        if config["mode"] == "stream":
            result.update(run_stream(session, recorder, sampler, config))
    finally:
        sampler.stop_timer()
        result["probes"] = sampler.probes
        with open(config["out"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        if recorder:
            recorder.dump(config["spans"])
    return 0


def run_stream(session, recorder, sampler, config):
    expected = recorded_digest(design_key("dlx_eco", 0, config["tiny"]))
    start_ok = output_digest(session.result) == expected
    rss_setup = current_rss_mb()
    ops = stream(session, recorder, sampler, config)
    sampler.stop_timer()
    report = {
        "ops": ops,
        "start_ok": start_ok,
        "peak_rss_mb": peak_rss_mb(),
        "rss_growth_mb": current_rss_mb() - rss_setup,
        "live_modules": live_modules(),
    }
    if recorder:
        recorder.op = "check"
    try:
        oracle = session.oracle()
        report["oracle_ok"] = (
            output_digest(session.result) == output_digest(oracle)
        )
    except Exception:
        traceback.print_exc()
        report["oracle_ok"] = False
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
