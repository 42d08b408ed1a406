"""Host-speed probe: scales each timed op to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes
by up to a factor of two from one second to the next, with other
tenants and with the host's clock, so raw op times of two runs of the
same code differ by the host, not by the program.  A fixed probe
therefore runs before, after and every few tenths of a second during
each timed op, and each slice of the op between two probes is scaled
by how fast the probe ran at its two ends::

    scaled = seconds * REFERENCE_S / mean(probe before, probe after)

``REFERENCE_S`` is a constant, so a scaled time reads in seconds on a
host where the probe takes ``REFERENCE_S``; the program never runs
inside the probe, so a faster program reads faster whatever the host
does.  The probe is shaped like the program's own work — it writes a
Verilog-like netlist, parses it back with regular expressions into
dicts, propagates arrival times, pickles and unpickles the result,
writes it out again and hashes it — so host slowdowns that hit the
program's mix of string, dict, allocation and pickle work hit the probe
alike.  It runs with the garbage collector paused, so the size of the
heap it runs in does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import pickle
import random
import re
import signal
import time
from typing import List, Tuple

#: probe seconds at the reference speed (about its median on a 2-vCPU
#: Xeon VM at 2.1 GHz); scaled times are seconds at that speed
REFERENCE_S = 0.05
#: probe runs discarded in a fresh process: the first ones pay for
#: growing the heap and run up to twice as long
WARMUP = 3

_CELLS = ("NAND2X1", "NOR2X1", "INVX1", "AOI21X1", "MUX2X1", "XOR2X1")
_INSTANCE = re.compile(r"^\s+(\w+)\s+(\w+)\s+\((.*)\);$", re.M)
_PIN = re.compile(r"\.(\w+)\((\w+)\)")


def _work(instances: int = 3000, seed: int = 7) -> str:
    rng = random.Random(seed)
    lines = []
    for index in range(instances):
        cell = _CELLS[rng.randrange(len(_CELLS))]
        fanin = 1 if cell == "INVX1" else 2
        nets = [
            f"n{rng.randrange(max(0, index - 400), index + 1)}"
            for _ in range(fanin)
        ]
        pins = ", ".join(f".{pin}({net})" for pin, net in zip("AB", nets))
        lines.append(f"  {cell} u{index} ( {pins}, .Z(n{index + 1}) );")
    text = "module probe;\n" + "\n".join(lines) + "\nendmodule\n"

    instances_by_name = {}
    loads = {}
    for match in _INSTANCE.finditer(text):
        cell, name, body = match.groups()
        pins = dict(_PIN.findall(body))
        instances_by_name[name] = (cell, pins)
        for pin, net in pins.items():
            loads.setdefault(net, []).append((name, pin))
    source = {
        pins["Z"]: name for name, (_cell, pins) in instances_by_name.items()
    }
    arrival = {}
    for name, (cell, pins) in instances_by_name.items():
        latest = 0.0
        for pin, net in pins.items():
            if pin != "Z" and net in source:
                latest = max(latest, arrival.get(source[net], 0.0))
        arrival[name] = latest + 0.01 * (1 + len(cell) % 5)

    blob = pickle.dumps((instances_by_name, loads, arrival), protocol=4)
    instances_by_name, loads, arrival = pickle.loads(blob)
    out = "\n".join(
        f"  {cell} {name} ( "
        + ", ".join(f".{pin}({net})" for pin, net in sorted(pins.items()))
        + f" ); // {arrival[name]:.4f}"
        for name, (cell, pins) in sorted(instances_by_name.items())
    )
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def probe() -> float:
    """Run the fixed probe work once; returns its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Sampler:
    """The probes of one process, and the ops timed between them.

    ``sample`` runs the probe now.  ``start_timer`` also runs it every
    ``interval`` seconds from a ``SIGALRM`` handler, between two
    bytecodes of whatever this process is doing, so the host's speed is
    sampled through long in-process calls too; a process that waits on
    a child must stop the child around ``sample`` instead, because the
    two would share the vCPU.  ``measure(start, end)`` takes out the
    probes run between ``start`` and ``end`` and scales each slice
    between two probes by them.
    """

    def __init__(self) -> None:
        for _ in range(WARMUP):
            probe()
        #: start of every probe, and its seconds, in order
        self.starts: List[float] = []
        self.probes: List[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = probe()
        self.starts.append(start)
        self.probes.append(seconds)

    def _alarm(self, _signum, _frame) -> None:
        self.sample()

    def start_timer(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """(seconds, scaled seconds) of the work from ``start`` to ``end``.

        Needs a probe before ``start`` and one after ``end``.  A probe
        runs between bytecodes, never inside the ``perf_counter`` call
        that read ``start`` or ``end``, so each lies wholly inside or
        wholly outside the op.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == 0 or last == len(self.starts):
            raise ValueError("no probe before or after the op")
        seconds = scaled_seconds = 0.0
        edge = start
        for index in range(first, last + 1):
            stop = self.starts[index] if index < last else end
            part = stop - edge
            seconds += part
            scaled_seconds += scaled(
                part, self.probes[index - 1], self.probes[index]
            )
            edge = self.starts[index] + self.probes[index]
        return seconds, scaled_seconds
