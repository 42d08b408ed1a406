"""Benchmark inputs and output digests, shared by the harness processes.

The DLX takes no seed.  The workload seed picks the ARM-class core
variant, ``arm9_core(seed=ARM_BASE_SEED + seed % ARM_VARIANTS)``, and a
digest of every variant's desynchronized output is recorded in
``digests.json`` (``record_digests.py`` writes it), so every seed is
checked against a recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

ARM_BASE_SEED = 1996
ARM_VARIANTS = 8
#: the ARM-class core of ``benchmarks/bench_table_5_2.py``
ARM_CELLS = 8000
TINY_ARM_CELLS = 1200


def arm_seed(seed: int) -> int:
    return ARM_BASE_SEED + seed % ARM_VARIANTS


def design_key(workload: str, seed: int, tiny: bool) -> str:
    """The ``digests.json`` key of a workload's checked output.

    ``dlx_eco`` checks the output of ``IncrementalSession.start`` on the
    generated DLX, which names nets differently from a conversion of
    the DLX read back from Verilog.
    """
    design = {
        "dlx_convert": "dlx",
        "dlx_eco": "dlx-session",
        "arm_convert": f"arm{arm_seed(seed)}",
    }[workload]
    return design + ("-tiny" if tiny else "")


def dlx_module(library, tiny: bool):
    """The full DLX, or the small DLX of ``bench_flow_equivalence.py``."""
    from repro.designs import dlx_core

    if tiny:
        return dlx_core(library, registers=8, multiplier=False, width=16)
    return dlx_core(library)


def write_input(workload: str, seed: int, tiny: bool, path: str) -> None:
    """Generate the workload's synchronous netlist as a Verilog file."""
    from repro.designs import arm9_core
    from repro.liberty.core9 import core9_hs, core9_ll
    from repro.netlist.verilog import write_module

    if workload == "arm_convert":
        module = arm9_core(
            core9_ll(),
            target_cells=TINY_ARM_CELLS if tiny else ARM_CELLS,
            seed=arm_seed(seed),
        )
    else:
        module = dlx_module(core9_hs(), tiny)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_module(module))


def cli_args(
    workload: str, netlist: str, verilog: str, sdc: str, cache_dir: str
) -> List[str]:
    """``drdesync`` arguments of one convert op (default flags otherwise)."""
    args = [netlist, "-o", verilog, "--sdc", sdc, "--cache-dir", cache_dir]
    if workload == "arm_convert":
        args += ["--library", "ll", "--group", "single"]
    return args


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def recorded_digest(key: str) -> Optional[Dict[str, str]]:
    """``{"verilog": sha256, "sdc": sha256}`` recorded for ``key``."""
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle).get(key)


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env
