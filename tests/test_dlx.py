"""DLX processor tests: assembler, execution, desynchronization, FE."""

import pytest

from repro.desync import Drdesync
from repro.designs import (
    DlxMemories,
    assemble,
    demo_program,
    dlx_core,
)
from repro.designs.dlx import OP_RTYPE, F_MUL
from repro.designs.dlx_env import dlx_respond, dlx_sync_stimulus
from repro.liberty import core9_hs
from repro.sim import Simulator, SyncTestbench, initialize_registers
from repro.sim.flowequiv import check_flow_equivalence_reactive
from repro.sta import min_clock_period

N = ("nop",)


@pytest.fixture(scope="module")
def lib():
    return core9_hs()


@pytest.fixture(scope="module")
def small_dlx(lib):
    return dlx_core(lib, registers=8, multiplier=False, width=16)


def run_program(lib, module, program, cycles, width=16):
    sim = Simulator(module, lib)
    memories = DlxMemories(program)
    stim = dlx_sync_stimulus(sim, memories, width=width)
    initialize_registers(sim, 0)
    bench = SyncTestbench(
        sim, period=min_clock_period(module, lib) * 1.5 + 0.5
    )
    bench.run_cycles(cycles, stim)
    return sim, memories


def reg_value(sim, n, width=16):
    return sim.bus_value([f"rf{n}[{i}]" for i in range(width)])


def test_assembler_encodings():
    words = assemble([
        ("add", 3, 1, 2),
        ("addi", 1, 0, 5),
        ("beq", 7, 0, 4),
        ("j", 2),
        ("nop",),
    ])
    assert words[0] >> 26 == OP_RTYPE
    assert (words[0] >> 11) & 0x1F == 3
    assert words[1] & 0xFFFF == 5
    assert words[3] & 0x3FFFFFF == 2
    assert words[4] == 0


def test_assembler_rejects_unknown():
    with pytest.raises(ValueError):
        assemble([("frobnicate", 1, 2, 3)])


def test_arithmetic_program(lib, small_dlx):
    program = assemble([
        ("addi", 1, 0, 5), ("addi", 2, 0, 7), N, N,
        ("add", 3, 1, 2), ("sub", 4, 2, 1), N, N,
        ("xor", 5, 3, 4), ("slt", 7, 4, 3), N, N, N, N,
    ])
    sim, _ = run_program(lib, small_dlx, program, 18)
    assert reg_value(sim, 1) == 5
    assert reg_value(sim, 2) == 7
    assert reg_value(sim, 3) == 12
    assert reg_value(sim, 4) == 2
    assert reg_value(sim, 5) == 14
    assert reg_value(sim, 7) == 1  # 2 < 12


def test_memory_program(lib, small_dlx):
    program = assemble([
        ("addi", 1, 0, 37), N, N, N,
        ("sw", 1, 0, 4), N, N, N,
        ("lw", 2, 0, 4), N, N, N, N, N, N, N,
    ])
    sim, memories = run_program(lib, small_dlx, program, 16)
    assert memories.data.get(4) == 37
    assert reg_value(sim, 2) == 37


def test_shift_and_logic(lib, small_dlx):
    program = assemble([
        ("addi", 1, 0, 3), ("addi", 2, 0, 2), N, N,
        ("sll", 3, 1, 2), ("srl", 4, 1, 2), N, N,
        ("and", 5, 1, 2), ("or", 6, 1, 2), N, N, N, N,
    ])
    sim, _ = run_program(lib, small_dlx, program, 18)
    assert reg_value(sim, 3) == 3 << 2
    assert reg_value(sim, 4) == 3 >> 2
    assert reg_value(sim, 5) == 3 & 2
    assert reg_value(sim, 6) == 3 | 2


def test_branch_taken_redirects_pc(lib, small_dlx):
    # beq r0, r0 always taken; the two delay-slot instructions execute
    program = assemble([
        ("beq", 0, 0, 5), N, N, N,
        ("addi", 1, 0, 1),  # skipped by the branch
        N, N, N,
        ("addi", 2, 0, 9), N, N, N, N, N, N, N,
    ])
    sim, _ = run_program(lib, small_dlx, program, 16)
    assert reg_value(sim, 1) == 0  # skipped
    assert reg_value(sim, 2) == 9  # branch target path executed


def test_multiplier_variant(lib):
    mod = dlx_core(lib, registers=8, multiplier=True, width=16)
    program = assemble([
        ("addi", 1, 0, 6), ("addi", 2, 0, 7), N, N,
        ("mul", 3, 1, 2), N, N, N, N, N, N, N,
    ])
    sim, _ = run_program(lib, mod, program, 16)
    assert reg_value(sim, 3) == 42


def test_r0_is_hardwired_zero(lib, small_dlx):
    program = assemble([
        ("addi", 0, 0, 99), N, N, N,
        ("add", 1, 0, 0), N, N, N, N, N, N, N,
    ])
    sim, _ = run_program(lib, small_dlx, program, 14)
    assert reg_value(sim, 1) == 0


def test_full_size_parameters(lib):
    mod = dlx_core(lib)
    assert len(mod.instances) > 5000
    assert "instr" in mod.ports and mod.ports["instr"].width == 32
    assert mod.check() == []


def test_dlx_autogrouping_finds_pipeline_regions(lib, small_dlx):
    mod = small_dlx.clone()
    tool = Drdesync(lib)
    result = tool.run(mod)
    active = [
        name
        for name, region in result.region_map.regions.items()
        if region.sequential_instances(mod, result.gatefile)
    ]
    # the paper's DLX decomposed into its 4 pipeline stages; our finer
    # netlist yields at least that many independent regions
    assert len(active) >= 4
    # the PC loop is a dependency cycle in the DDG
    from repro.perf import simple_cycles

    core = result.ddg.subgraph(n for n in result.ddg if n != "ENV")
    assert any(True for _ in simple_cycles(core))


def test_dlx_flow_equivalence_reactive(lib, small_dlx):
    mod = small_dlx.clone()
    golden = mod.clone()
    program = assemble([
        ("addi", 1, 0, 5), ("addi", 2, 0, 7), N, N,
        ("add", 3, 1, 2), ("sub", 4, 2, 1), N, N,
        ("sw", 3, 0, 0), ("xor", 5, 3, 4), N, N,
        ("lw", 6, 0, 0), ("slt", 7, 4, 3), N, N,
    ])
    tool = Drdesync(lib)
    result = tool.run(mod)

    def respond_factory(simulator):
        return dlx_respond(DlxMemories(program), width=16)

    report = check_flow_equivalence_reactive(
        golden, result, lib, cycles=14, respond_factory=respond_factory
    )
    assert report.compared > 100
    assert report.equivalent, report.mismatches[:5]


def test_fast_adder_correctness(lib):
    """Carry-select adder matches integer addition on random vectors."""
    from repro.designs import Builder
    from repro.netlist import Module, PortDirection
    from repro.sim import Simulator

    mod = Module("fa")
    b = Builder(mod, lib)
    a_bits = b.input_port("a", 12)
    b_bits = b.input_port("b", 12)
    out = b.output_port("s", 12)
    sums, carry = b.fast_adder(a_bits, b_bits, name="t")
    b.connect_output(sums, out)
    sim = Simulator(mod, lib)
    import random

    rng = random.Random(5)
    for _ in range(20):
        x, y = rng.randrange(1 << 12), rng.randrange(1 << 12)
        for i in range(12):
            sim.set_input(f"a[{i}]", (x >> i) & 1)
            sim.set_input(f"b[{i}]", (y >> i) & 1)
        sim.settle(max_time=200)
        got = sim.bus_value([f"s[{i}]" for i in range(12)])
        assert got == (x + y) % (1 << 12), (x, y, got)


def test_csa_multiplier_correctness(lib):
    mod = dlx_core(lib, registers=8, multiplier=True, width=16)
    program = assemble([
        ("addi", 1, 0, 123), ("addi", 2, 0, 45), N, N,
        ("mul", 3, 1, 2), N, N, N, N, N, N, N,
    ])
    sim, _ = run_program(lib, mod, program, 16)
    assert reg_value(sim, 3) == (123 * 45) % (1 << 16)
