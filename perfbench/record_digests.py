"""Record the output digests the benchmark checks every op against.

    python3 perfbench/record_digests.py

Converts each benchmark design once, through the same path its workload
uses, and writes ``perfbench/digests.json``: the DLX and every ARM core
variant through a fresh ``drdesync`` process, and the DLX through
``IncrementalSession.start`` for ``dlx_eco``; each at full size and at
the ``--tiny`` size.  Run it only when a change is meant to alter the
desynchronized output.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from inputs import (
    ARM_VARIANTS,
    DIGESTS,
    ROOT,
    SRC,
    child_env,
    cli_args,
    design_key,
    sha256_file,
)


def convert_digest(workload, seed, tiny, work):
    from inputs import write_input

    netlist = os.path.join(work, "input.v")
    write_input(workload, seed, tiny, netlist)
    verilog = os.path.join(work, "out.v")
    sdc = os.path.join(work, "out.sdc")
    cache = os.path.join(work, "cache")
    command = [sys.executable, "-m", "repro.cli", "--quiet"]
    command += cli_args(workload, netlist, verilog, sdc, cache)
    subprocess.run(command, check=True, cwd=ROOT, env=child_env())
    digest = {"verilog": sha256_file(verilog), "sdc": sha256_file(sdc)}
    shutil.rmtree(cache)
    return digest


def main():
    sys.path.insert(0, SRC)
    from eco_worker import output_digest, set_up

    digests = {}
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=parent)
    try:
        for tiny in (False, True):
            for workload, seeds in (
                ("dlx_convert", [0]),
                ("arm_convert", range(ARM_VARIANTS)),
            ):
                for seed in seeds:
                    key = design_key(workload, seed, tiny)
                    digests[key] = convert_digest(workload, seed, tiny, work)
            session = set_up(None, tiny)
            key = design_key("dlx_eco", 0, tiny)
            digests[key] = output_digest(session.result)
    finally:
        shutil.rmtree(work)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")


if __name__ == "__main__":
    main()
